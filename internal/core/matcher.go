package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/covertree"
	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// Match is a reported pair of similar subsequences: the query subsequence
// Q[QStart:QEnd) matches the database subsequence db[SeqID][XStart:XEnd)
// at distance Dist.
type Match struct {
	SeqID        int
	QStart, QEnd int
	XStart, XEnd int
	Dist         float64
}

// QLen returns the query subsequence length.
func (m Match) QLen() int { return m.QEnd - m.QStart }

// XLen returns the database subsequence length.
func (m Match) XLen() int { return m.XEnd - m.XStart }

// String renders the match for diagnostics.
func (m Match) String() string {
	return fmt.Sprintf("match{q[%d,%d) ~ x%d[%d,%d) δ=%.4f}", m.QStart, m.QEnd, m.SeqID, m.XStart, m.XEnd, m.Dist)
}

// Hit is a filtered segment↔window pair produced by steps 3–4 of the
// framework: the query segment matched the database window within the
// query radius.
type Hit[E any] struct {
	Window  seq.Window[E]
	Segment seq.Segment[E]
}

// windowIndex is the operation the framework needs from its filter
// backend.
type windowIndex[E any] interface {
	Range(q seq.Window[E], eps float64) []seq.Window[E]
	Len() int
}

// batchRanger is the optional batched-query fast path (implemented by the
// reference net).
type batchRanger[E any] interface {
	BatchRange(qs []seq.Window[E], eps float64) [][]seq.Window[E]
}

// existenceIndex is the optional existence-only fast path (implemented by
// the reference net and the linear scan): it stops at the first in-range
// window instead of materialising the full result set.
type existenceIndex[E any] interface {
	Exists(q seq.Window[E], eps float64) bool
}

// Matcher is the subsequence-retrieval engine. Construct with NewMatcher,
// which runs the two offline steps (dataset windowing, index construction);
// the query methods FindAll, Longest and Nearest run the online steps.
// A Matcher is safe for concurrent queries.
type Matcher[E any] struct {
	measure dist.Measure[E]
	cfg     Config
	db      []seq.Sequence[E]
	windows []seq.Window[E]
	index   windowIndex[E]

	// counter wraps the window distance used by the index, for the
	// paper's distance-computation accounting.
	counter *metric.Counter[seq.Window[E]]
	// buildCalls is the number of distance computations spent on index
	// construction.
	buildCalls int64
	// verifier handles candidate generation + verification (step 5).
	verifier *verifier[E]
	// linear is set when the backend is IndexLinearScan; the incremental
	// filter kernels need direct access to the window slice.
	linear *metric.LinearScan[seq.Window[E]]
	// net/ct/mv are the typed backend handles behind mt.index — the index
	// lifecycle (lifecycle.go) needs backend-specific operations (tracked
	// deletes, row removal, serialisation) the windowIndex face does not
	// carry. Exactly one is non-nil, matching cfg.Index.
	net *refnet.Net[seq.Window[E]]
	ct  *covertree.Tree[seq.Window[E]]
	mv  *refindex.Index[seq.Window[E]]
	// tracked maps each indexed window to its refnet node handle so
	// RetireSequence can Delete without searching (refnet backend only).
	tracked map[winKey]*refnet.Node[seq.Window[E]]
	// scratch pools per-query filter state (segment, probe and hit slices)
	// so concurrent queries allocate nothing per segment.
	scratch sync.Pool
	// batchCalls/batchQueries count FilterHitsBatch invocations and the
	// queries they carried — the serving tier's proof that its batch
	// endpoint actually amortises (many queries per shared traversal),
	// surfaced on /stats.
	batchCalls   atomic.Int64
	batchQueries atomic.Int64

	// prepared holds, per indexed window, the shared immutable half of the
	// measure's incremental kernel (Myers peq tables, edit base rows),
	// shared by every concurrent worker — the O(windows) half of the
	// kernel memory split. Slots are built lazily on first touch (per-slot
	// sync.Once), so a selective serving workload pays preprocessing only
	// for the windows its traversals actually visit; preparedOnce guards
	// the cheap slot-array and window→slot map construction. winIndex maps
	// a window back to its slot. See preparedAt (kerneleval.go).
	// Slots are pointers so the lifecycle paths (lifecycle.go) can grow and
	// compact the array without copying the per-slot sync.Once.
	preparedOnce sync.Once
	prepared     []*preparedSlot[E]
	winIndex     map[winKey]int32
}

// filterScratch is the reusable per-query working set of the filter steps.
type filterScratch[E any] struct {
	segs   []seq.Segment[E]
	probes []seq.Window[E]
	hits   []Hit[E]
	// perSeg collects, on the incremental-kernel path, the windows hit by
	// each segment so results can be emitted in the same segment-major
	// order as the plain path.
	perSeg [][]seq.Window[E]
	// kstate is the per-worker mutable half of the incremental kernels:
	// a single state, rebound window to window against the matcher's
	// shared prepared tables. Kernel state is single-threaded, so it lives
	// in the scratch (one per concurrent query); the immutable window
	// preprocessing it points at is shared matcher-wide.
	kstate dist.Kernel[E]
	// keval is the grouped kernel evaluator driving kernel-aware index
	// traversals (refnet BatchRangeEval); it owns its own kernel state and
	// sort buffer.
	keval kernelEvaluator[E]
}

func (mt *Matcher[E]) getScratch() *filterScratch[E] {
	if sc, ok := mt.scratch.Get().(*filterScratch[E]); ok {
		return sc
	}
	return &filterScratch[E]{}
}

func (mt *Matcher[E]) putScratch(sc *filterScratch[E]) { mt.scratch.Put(sc) }

// NewMatcher builds a matcher over db: it validates the configuration,
// partitions every database sequence into windows of length λ/2 (step 1)
// and builds the window index (step 2).
func NewMatcher[E any](m dist.Measure[E], cfg Config, db []seq.Sequence[E]) (*Matcher[E], error) {
	cfg.defaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := validateMeasure(m, cfg); err != nil {
		return nil, err
	}
	mt := &Matcher[E]{
		measure: m,
		cfg:     cfg,
		db:      db,
		windows: seq.PartitionAll(db, cfg.Params.WindowLen()),
	}
	mt.counter = metric.NewCounter(func(a, b seq.Window[E]) float64 {
		return m.Fn(a.Data, b.Data)
	})
	windowDist := mt.counter.Distance
	switch cfg.Index {
	case IndexRefNet:
		net := refnet.New(windowDist, refnet.WithBase(cfg.Base), refnet.WithMaxParents(cfg.MaxParents))
		if m.Bounded != nil {
			// Arm the eps+ρ early-abandoning traversal: probes prove
			// subtrees outside the query ball at a fraction of a full
			// evaluation (results are unchanged; see refnet.SetBounded).
			bounded := m.Bounded
			net.SetBounded(mt.counter.CountBounded(
				func(a, b seq.Window[E], eps float64) float64 {
					return bounded(a.Data, b.Data, eps)
				}))
		}
		mt.tracked = make(map[winKey]*refnet.Node[seq.Window[E]], len(mt.windows))
		for _, w := range mt.windows {
			mt.tracked[winKey{w.SeqID, w.Ord}] = net.InsertTracked(w)
		}
		mt.index = net
		mt.net = net
	case IndexCoverTree:
		ct := covertree.New(windowDist, cfg.Base)
		for _, w := range mt.windows {
			ct.Insert(w)
		}
		mt.index = ct
		mt.ct = ct
	case IndexMV:
		if len(mt.windows) == 0 {
			return nil, fmt.Errorf("core: MV index requires a non-empty database")
		}
		mv, err := refindex.Build(mt.windows, cfg.MVRefs, windowDist, refindex.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		mt.index = mv
		mt.mv = mv
	case IndexLinearScan:
		ls := metric.NewLinearScan(windowDist)
		if m.Bounded != nil {
			// Thread the query radius into the distance kernel: an
			// early-abandoned comparison still counts as one distance
			// computation, but costs a fraction of the cells.
			bounded := m.Bounded
			ls.SetBounded(mt.counter.CountBounded(
				func(a, b seq.Window[E], eps float64) float64 {
					return bounded(a.Data, b.Data, eps)
				}))
		}
		for _, w := range mt.windows {
			ls.Insert(w)
		}
		mt.index = ls
		mt.linear = ls
	default:
		return nil, fmt.Errorf("core: unknown index kind %v", cfg.Index)
	}
	mt.buildCalls = mt.counter.Calls()
	mt.counter.Reset()
	mt.verifier = newVerifier(m.Fn, cfg.Params, db)
	return mt, nil
}

// Params returns the matcher's framework parameters.
func (mt *Matcher[E]) Params() Params { return mt.cfg.Params }

// NumWindows reports how many database windows are indexed.
func (mt *Matcher[E]) NumWindows() int { return len(mt.windows) }

// Windows exposes the indexed windows (shared slice; do not mutate).
func (mt *Matcher[E]) Windows() []seq.Window[E] { return mt.windows }

// BuildDistanceCalls reports the distance computations spent building the
// index (offline cost).
func (mt *Matcher[E]) BuildDistanceCalls() int64 { return mt.buildCalls }

// FilterDistanceCalls reports the distance computations spent by the index
// on queries since the last ResetFilterCalls — the quantity Figures 8–11 of
// the paper compare against a full scan. An early-abandoned bounded
// evaluation counts as one computation; a streamed kernel pass pricing a
// whole group of same-offset probes also counts as one (it costs one
// longest-member evaluation), which is how the kernel-fed refnet traversal
// drops below one counted evaluation per probe.
func (mt *Matcher[E]) FilterDistanceCalls() int64 { return mt.counter.Calls() }

// ResetFilterCalls zeroes the query-side distance counter.
func (mt *Matcher[E]) ResetFilterCalls() { mt.counter.Reset() }

// BatchCalls reports how many times FilterHitsBatch ran (directly or via
// FindAllBatch/LongestBatch/the streaming pool's claimed runs).
func (mt *Matcher[E]) BatchCalls() int64 { return mt.batchCalls.Load() }

// BatchQueries reports the total queries those batch calls carried;
// BatchQueries/BatchCalls is the realised amortisation factor.
func (mt *Matcher[E]) BatchQueries() int64 { return mt.batchQueries.Load() }

// VerifyDistanceCalls reports distance computations spent in verification
// (step 5) since the matcher was built.
func (mt *Matcher[E]) VerifyDistanceCalls() int64 { return mt.verifier.calls.Load() }

// FilterHits runs the online filtering steps (3–4): it extracts every
// query segment of length λ/2−λ0 … λ/2+λ0 and range-queries the window
// index with each, returning all segment↔window pairs within eps. By
// Lemma 3, windows absent from the hit list cannot participate in any
// similar pair, which is what caps the framework at O(|Q||X|) segment
// comparisons.
func (mt *Matcher[E]) FilterHits(q seq.Sequence[E], eps float64) []Hit[E] {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	if len(hits) == 0 {
		return nil
	}
	out := make([]Hit[E], len(hits))
	copy(out, hits)
	return out
}

// filterHits is FilterHits into pooled scratch: the returned slice aliases
// sc.hits and is valid until the scratch is reused. The internal query
// paths (FindAll, Longest, Nearest, the batch engine) consume the hits
// before returning the scratch, so steady-state queries allocate neither
// probe windows nor hit slices.
func (mt *Matcher[E]) filterHits(q seq.Sequence[E], eps float64, sc *filterScratch[E]) []Hit[E] {
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0)
	sc.hits = sc.hits[:0]
	segs := sc.segs
	if len(segs) == 0 {
		return nil
	}
	// The incremental kernel prices all segment lengths at one start for a
	// single pass over the window; it pays off exactly when there is more
	// than one length (λ0 > 0 — with a single length the bounded scan's
	// early abandoning is the better linear-backend kernel).
	if mt.linear != nil && mt.kernelTraversal() {
		return mt.filterHitsIncremental(q, eps, sc)
	}
	if br, ok := mt.index.(batchRanger[E]); ok {
		one := [1]seq.Sequence[E]{q}
		bounds := [2]int{0, len(segs)}
		for i, wins := range mt.rangeSegments(br, one[:], bounds[:], eps, sc) {
			for _, w := range wins {
				sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: segs[i]})
			}
		}
		return sc.hits
	}
	for _, s := range segs {
		probe := seq.Window[E]{SeqID: -1, Start: s.Start, Data: s.Data}
		for _, w := range mt.index.Range(probe, eps) {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: s})
		}
	}
	return sc.hits
}

// filterHitsIncremental is the linear-backend filter driven by the
// measure's incremental kernel (ROADMAP: per-measure window-distance
// evaluation across overlapping segments). For every database window it
// binds one kernel and, per query offset, streams the λ/2+λ0 elements once,
// reading off the distance of every segment length on the way — 2λ0+1
// segment evaluations for one pass instead of 2λ0+1 independent DPs.
//
// Results are bucketed per segment and flattened segment-major so the hit
// order matches the plain path exactly; distance accounting also matches
// (one counted evaluation per priced segment↔window pair).
func (mt *Matcher[E]) filterHitsIncremental(q seq.Sequence[E], eps float64, sc *filterScratch[E]) []Hit[E] {
	l := mt.cfg.Params.WindowLen()
	minLen, maxLen := l-mt.cfg.Params.Lambda0, l+mt.cfg.Params.Lambda0
	if minLen < 1 {
		minLen = 1
	}
	if maxLen > len(q) {
		maxLen = len(q)
	}
	segs := sc.segs
	// seg index of (length n, start a): offsets[n-minLen] + a, matching
	// AppendSegments' length-major order.
	offsets := make([]int, maxLen-minLen+1)
	for n, off := minLen+1, 0; n <= maxLen; n++ {
		off += len(q) - (n - 1) + 1
		offsets[n-minLen] = off
	}
	for len(sc.perSeg) < len(segs) {
		sc.perSeg = append(sc.perSeg, nil)
	}
	perSeg := sc.perSeg[:len(segs)]
	for i := range perSeg {
		perSeg[i] = perSeg[i][:0]
	}
	items := mt.linear.Items()
	// The immutable window preprocessing is shared matcher-wide; this
	// worker carries one kernel state and rebinds it window to window, so
	// steady-state kernel memory is O(windows), not O(windows × workers).
	// The linear scan touches every window per query, so the lazy slots
	// all fill on the first query and later queries read them for free.
	mt.preparedInit()
	var evals int64
	for wi, w := range items {
		sc.kstate = dist.BindKernel(sc.kstate, mt.preparedAt(int32(wi)))
		k := sc.kstate
		for a := 0; a+minLen <= len(q); a++ {
			k.Reset()
			top := maxLen
			if a+top > len(q) {
				top = len(q) - a
			}
			for n := 1; n <= top; n++ {
				d := k.Feed(q[a+n-1])
				if n >= minLen && d <= eps {
					perSeg[offsets[n-minLen]+a] = append(perSeg[offsets[n-minLen]+a], w)
				}
			}
			evals += int64(top - minLen + 1)
		}
	}
	mt.counter.Add(evals)
	for i, wins := range perSeg {
		for _, w := range wins {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: segs[i]})
		}
	}
	return sc.hits
}

// hasHits reports whether the filter produces any segment hit at radius
// eps, stopping at the first in-range window. Nearest's binary search
// probes many radii; materialising (and then discarding) the full hit list
// at every probe is what this path avoids.
func (mt *Matcher[E]) hasHits(q seq.Sequence[E], eps float64, sc *filterScratch[E]) bool {
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0)
	ex, hasEx := mt.index.(existenceIndex[E])
	for _, s := range sc.segs {
		probe := seq.Window[E]{SeqID: -1, Start: s.Start, Data: s.Data}
		if hasEx {
			if ex.Exists(probe, eps) {
				return true
			}
		} else if len(mt.index.Range(probe, eps)) > 0 {
			return true
		}
	}
	return false
}

// FindAll answers query Type I: it returns every pair of similar
// subsequences reachable from the per-hit candidate regions of Section 7 —
// pairs (SQ, SX) with |SQ| ≥ λ, |SX| ≥ λ, ||SQ|−|SX|| ≤ λ0 and
// δ(SQ,SX) ≤ eps. As in the paper, each hit's candidate region bounds the
// enumerated supersequences (SX start within λ/2 before its window, end
// within λ/2+λ/2 after, and correspondingly for SQ), so arbitrarily long
// matches are the domain of Longest (Type II); completeness is exact for
// pair lengths up to λ.
func (mt *Matcher[E]) FindAll(q seq.Sequence[E], eps float64) []Match {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	return mt.verifier.verifyAll(q, hits, eps)
}

// Longest answers query Type II: among all similar pairs at radius eps it
// returns one maximising the query subsequence length |SQ|. It concatenates
// hits on consecutive windows into chains, then verifies candidates from
// the longest chain downwards, as in Section 7. The boolean reports whether
// any similar pair exists.
func (mt *Matcher[E]) Longest(q seq.Sequence[E], eps float64) (Match, bool) {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	return mt.verifier.verifyLongest(q, hits, eps)
}

// NearestOptions tunes Nearest (query Type III).
type NearestOptions struct {
	// EpsMax is the largest radius considered; if no pair exists within
	// it, Nearest reports not found.
	EpsMax float64
	// EpsInc is the paper's ǫ_inc: the radius increment between
	// verification rounds, and the binary-search resolution. Choose a
	// small fraction of typical pairwise distances.
	EpsInc float64
}

// Nearest answers query Type III: it returns a pair minimising δ(SQ,SX)
// subject to the length constraints. Following Section 7 it binary-searches
// the minimal radius at which the filter produces any segment hit, then
// verifies, enlarging the radius by EpsInc until a pair is confirmed. The
// binary-search probes are existence-only (hasHits): they stop at the first
// in-range window instead of materialising every hit at every probe radius;
// only the final verification rounds run the full filter.
func (mt *Matcher[E]) Nearest(q seq.Sequence[E], opts NearestOptions) (Match, bool) {
	if opts.EpsMax <= 0 || opts.EpsInc <= 0 {
		return Match{}, false
	}
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	if !mt.hasHits(q, opts.EpsMax, sc) {
		return Match{}, false
	}
	lo, hi := 0.0, opts.EpsMax
	if mt.hasHits(q, 0, sc) {
		hi = 0
	}
	for hi-lo > opts.EpsInc {
		mid := lo + (hi-lo)/2
		if mt.hasHits(q, mid, sc) {
			hi = mid
		} else {
			lo = mid
		}
	}
	for eps := hi; eps <= opts.EpsMax+opts.EpsInc/2; eps += opts.EpsInc {
		hits := mt.filterHits(q, eps, sc)
		if best, ok := mt.verifier.verifyNearest(q, hits, eps); ok {
			return best, true
		}
	}
	return Match{}, false
}
