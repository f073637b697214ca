package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// Batched query engine. Two layers cooperate:
//
//   - Matcher.FilterHitsBatch / FindAllBatch / LongestBatch answer a slice
//     of queries in one sequential pass, concatenating every query's
//     segments into a single refnet.BatchRange traversal — each index node's
//     children are walked once for the whole query set instead of once per
//     segment per query (Section 7's "many queries ... in a single
//     traversal").
//   - QueryPool fans a query slice out over a fixed set of worker
//     goroutines, each of which answers its chunk with the batched
//     sequential path. A Matcher is safe for concurrent queries (the filter
//     scratch is pooled, the counters are atomic), so the pool needs no
//     locking beyond the chunk cursor.

// FilterHitsBatch runs the filtering steps for many queries at once,
// sharing one index traversal across all of their segments on backends
// that support it. Result i is exactly FilterHits(qs[i], eps).
func (mt *Matcher[E]) FilterHitsBatch(qs []seq.Sequence[E], eps float64) [][]Hit[E] {
	mt.batchCalls.Add(1)
	mt.batchQueries.Add(int64(len(qs)))
	out := make([][]Hit[E], len(qs))
	br, ok := mt.index.(batchRanger[E])
	if !ok || mt.linear != nil {
		// No shared traversal to exploit (or the linear backend, whose
		// incremental kernels already amortise across segments): answer
		// query by query on pooled scratch.
		for i, q := range qs {
			out[i] = mt.FilterHits(q, eps)
		}
		return out
	}
	// Chunk the query set so the per-probe traversal state (flags plus
	// computed distances per index node) stays cache-resident: one huge
	// BatchRange over thousands of probes touches tens of megabytes of
	// per-query state at random and runs slower than the same probes in
	// cache-sized groups.
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	probeCap := maxBatchProbesFor(mt.index.Len())
	lambda, lambda0 := mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0
	for lo := 0; lo < len(qs); {
		sc.segs = sc.segs[:0]
		starts := []int{0}
		hi := lo
		for hi < len(qs) && (hi == lo || len(sc.segs) < probeCap) {
			sc.segs = seq.AppendSegmentsFor(sc.segs, qs[hi], lambda, lambda0)
			starts = append(starts, len(sc.segs))
			hi++
		}
		results := mt.rangeSegments(br, qs[lo:hi], starts, eps, sc)
		for i := lo; i < hi; i++ {
			var hits []Hit[E]
			for si := starts[i-lo]; si < starts[i-lo+1]; si++ {
				for _, w := range results[si] {
					hits = append(hits, Hit[E]{Window: w, Segment: sc.segs[si]})
				}
			}
			out[i] = hits
		}
		lo = hi
	}
	return out
}

// rangeSegments is the filter traversal shared by FilterHits and
// FilterHitsBatch: one range query over the index for every segment in
// sc.segs, where query qs[i]'s segments are sc.segs[starts[i]:starts[i+1]].
// Result j holds the windows within eps of segment j.
func (mt *Matcher[E]) rangeSegments(br batchRanger[E], qs []seq.Sequence[E], starts []int, eps float64, sc *filterScratch[E]) [][]seq.Window[E] {
	sc.probes = sc.probes[:0]
	for _, s := range sc.segs {
		sc.probes = append(sc.probes, seq.Window[E]{SeqID: -1, Start: s.Start, Data: s.Data})
	}
	bre, ok := mt.index.(batchRangerEval[E])
	if !ok || !mt.kernelTraversal() {
		return br.BatchRange(sc.probes, eps)
	}
	// Kernel-fed traversal: group probes by (query, start offset) so one
	// streamed kernel pass prices all 2λ0+1 lengths at an offset. Group
	// keys only need to be distinct, so queries partition the key space by
	// their segment-start ranges.
	sc.keval.bind(mt, sc.probes)
	gbase := int32(0)
	for i, q := range qs {
		for si := starts[i]; si < starts[i+1]; si++ {
			sc.keval.groupOf[si] = gbase + int32(sc.segs[si].Start)
		}
		gbase += int32(len(q))
	}
	return bre.BatchRangeEval(sc.probes, eps, &sc.keval)
}

// maxBatchProbes and minBatchProbes are the ceiling and floor of the
// shared-traversal chunk size. The ceiling is the value tuned on the
// protein workload (2000 windows: a 2000-probe traversal ran ~1.5× slower
// than the same probes in ~250-probe groups); the floor keeps enough
// probes per traversal for sharing to pay off on very large indexes.
const (
	maxBatchProbes = 256
	minBatchProbes = 32
	// batchCacheBudget estimates the cache the per-probe traversal state
	// may occupy — roughly an L2/L3 share per core on current hardware.
	batchCacheBudget = 4 << 20
	// batchProbeNodeBytes is the per-probe, per-index-node traversal state:
	// a flag byte plus a float64 computed distance (refnet.queryState).
	batchProbeNodeBytes = 9
)

// maxBatchProbesFor derives the shared-traversal chunk size from the index
// size: as many probes as keep their combined traversal state inside the
// cache budget, clamped to [minBatchProbes, maxBatchProbes]. On the tuning
// workload (2000 windows) the derivation lands where the measured constant
// did; much larger indexes shrink the chunk instead of thrashing.
func maxBatchProbesFor(nodes int) int {
	if nodes <= 0 {
		return maxBatchProbes
	}
	probes := batchCacheBudget / (batchProbeNodeBytes * nodes)
	if probes > maxBatchProbes {
		return maxBatchProbes
	}
	if probes < minBatchProbes {
		return minBatchProbes
	}
	return probes
}

// FindAllBatch answers query Type I for every query in qs; result i is
// exactly FindAll(qs[i], eps).
func (mt *Matcher[E]) FindAllBatch(qs []seq.Sequence[E], eps float64) [][]Match {
	hits := mt.FilterHitsBatch(qs, eps)
	out := make([][]Match, len(qs))
	for i, q := range qs {
		out[i] = mt.verifier.verifyAll(q, hits[i], eps)
	}
	return out
}

// LongestBatch answers query Type II for every query in qs; entry i is
// exactly Longest(qs[i], eps).
func (mt *Matcher[E]) LongestBatch(qs []seq.Sequence[E], eps float64) ([]Match, []bool) {
	hits := mt.FilterHitsBatch(qs, eps)
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	for i, q := range qs {
		matches[i], found[i] = mt.verifier.verifyLongest(q, hits[i], eps)
	}
	return matches, found
}

// QueryPool drives a Matcher from a fixed set of worker goroutines,
// answering large query batches with multi-core throughput. It has two
// faces over one worker budget:
//
//   - The batch-barrier methods (FilterHits, FindAll, Longest, Nearest)
//     take a complete query slice and block until every answer is back.
//     Workers claim contiguous query chunks off a shared cursor and answer
//     each chunk with the batched sequential path, so index-traversal
//     sharing and parallelism compose. These methods are stateless between
//     calls and safe for concurrent use.
//   - The streaming methods (Submit, SubmitFilter, SubmitLongest,
//     SubmitNearest — see stream.go) accept queries one at a time and
//     return per-query Futures, answering them from a long-lived worker
//     set that coalesces concurrent submissions into the same shared
//     traversals. This is the serving shape: bounded in-flight queue,
//     context cancellation, graceful Close.
//
// Construct once and reuse; both faces may be used concurrently.
//
// A pool built with NewQueryPool serves one fixed matcher. A pool built
// with NewQueryPoolView resolves its matcher through a MatcherView at
// every entry point instead, which is how the store's serving tier gets
// zero-downtime swaps: each barrier call or streaming claim pins the
// current matcher (and its read guard) for exactly its own duration, so a
// swap or mutation waits only for claims already in flight.
type QueryPool[E any] struct {
	mt          *Matcher[E]
	view        MatcherView[E]
	workers     int
	queueDepth  int
	maxCoalesce int
	shedPolicy  ShedPolicy

	// streaming is the lazily-started engine behind the Submit methods.
	streaming streamState[E]
}

// MatcherView resolves the matcher to answer one unit of query work with,
// plus a release function invoked when that unit completes. The store
// implements it as "RLock; return current matcher, RUnlock on release",
// making every query a guarded reader of a consistent index view.
type MatcherView[E any] func() (*Matcher[E], func())

// acquire pins a matcher for one unit of query work. The returned release
// must be called exactly once, after the last touch of the matcher.
func (p *QueryPool[E]) acquire() (*Matcher[E], func()) {
	if p.view != nil {
		return p.view()
	}
	return p.mt, func() {}
}

// poolConfig carries the streaming-engine knobs a PoolOption may set —
// the one place option fields live, so an option cannot silently set a
// field the pool constructor does not read.
type poolConfig struct {
	queueDepth  int
	maxCoalesce int
	shedPolicy  ShedPolicy
}

// PoolOption tunes a QueryPool beyond its worker count.
type PoolOption func(*poolConfig)

// WithQueueDepth bounds the streaming engine's in-flight submissions
// (submitted but not completed); Submit blocks once the bound is reached.
// The default is 1024. Values < 1 are ignored.
func WithQueueDepth(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.queueDepth = n
		}
	}
}

// WithMaxCoalesce caps how many streaming submissions one worker claim may
// answer in a single batched call (default 64). Raising it trades the
// latency of a claim's first member for more traversal sharing under very
// large bursts; FilterHitsBatch re-chunks internally either way, so
// throughput is insensitive beyond a few dozen. Values < 1 are ignored.
func WithMaxCoalesce(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.maxCoalesce = n
		}
	}
}

// NewQueryPool returns a pool of the given concurrency over mt; workers
// ≤ 0 selects GOMAXPROCS. Options tune the streaming engine; the batch
// methods ignore them.
func NewQueryPool[E any](mt *Matcher[E], workers int, opts ...PoolOption) *QueryPool[E] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := poolConfig{queueDepth: DefaultQueueDepth, maxCoalesce: defaultMaxCoalesce}
	for _, o := range opts {
		o(&cfg)
	}
	return &QueryPool[E]{
		mt: mt, workers: workers,
		queueDepth:  cfg.queueDepth,
		maxCoalesce: cfg.maxCoalesce,
		shedPolicy:  cfg.shedPolicy,
	}
}

// NewQueryPoolView is NewQueryPool over a MatcherView instead of a fixed
// matcher: every batch-barrier call and every streaming claim resolves the
// matcher afresh and holds its guard only for that unit of work. view must
// not return nil.
func NewQueryPoolView[E any](view MatcherView[E], workers int, opts ...PoolOption) *QueryPool[E] {
	p := NewQueryPool[E](nil, workers, opts...)
	p.view = view
	return p
}

// Workers reports the pool's concurrency.
func (p *QueryPool[E]) Workers() int { return p.workers }

// run partitions [0, n) into chunks and feeds them to the workers.
func (p *QueryPool[E]) run(n int, process func(lo, hi int)) {
	if n == 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	// Aim for several chunks per worker so stragglers re-balance, while
	// keeping chunks big enough for the batched path to share traversal —
	// a floor of min(n/workers, 4) stops small batches from degenerating
	// to one query per chunk (which would silently disable sharing)
	// without idling workers.
	chunk := n / (workers * 4)
	if floor := min(n/workers, 4); chunk < floor {
		chunk = floor
	}
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				process(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// FilterHits runs the filtering steps for every query; result i is exactly
// Matcher.FilterHits(qs[i], eps).
func (p *QueryPool[E]) FilterHits(qs []seq.Sequence[E], eps float64) [][]Hit[E] {
	mt, release := p.acquire()
	defer release()
	out := make([][]Hit[E], len(qs))
	p.run(len(qs), func(lo, hi int) {
		copy(out[lo:hi], mt.FilterHitsBatch(qs[lo:hi], eps))
	})
	return out
}

// FindAll answers query Type I for every query; result i is exactly
// Matcher.FindAll(qs[i], eps).
func (p *QueryPool[E]) FindAll(qs []seq.Sequence[E], eps float64) [][]Match {
	mt, release := p.acquire()
	defer release()
	out := make([][]Match, len(qs))
	p.run(len(qs), func(lo, hi int) {
		copy(out[lo:hi], mt.FindAllBatch(qs[lo:hi], eps))
	})
	return out
}

// Longest answers query Type II for every query; entry i is exactly
// Matcher.Longest(qs[i], eps).
func (p *QueryPool[E]) Longest(qs []seq.Sequence[E], eps float64) ([]Match, []bool) {
	mt, release := p.acquire()
	defer release()
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	p.run(len(qs), func(lo, hi int) {
		m, f := mt.LongestBatch(qs[lo:hi], eps)
		copy(matches[lo:hi], m)
		copy(found[lo:hi], f)
	})
	return matches, found
}

// Nearest answers query Type III for every query; entry i is exactly
// Matcher.Nearest(qs[i], opts). Type III shares no traversal across
// queries (each runs its own radius search), so the pool contributes
// parallelism only.
func (p *QueryPool[E]) Nearest(qs []seq.Sequence[E], opts NearestOptions) ([]Match, []bool) {
	mt, release := p.acquire()
	defer release()
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	p.run(len(qs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matches[i], found[i] = mt.Nearest(qs[i], opts)
		}
	})
	return matches, found
}
