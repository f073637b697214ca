package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	subseq "repro"
	"repro/registry"
)

// libWorkload is an in-process workload: one client in a closed loop over
// a fixed pool of distinct queries against a refnet-backed Matcher.
type libWorkload[E any] struct {
	dataset   string
	measure   string
	windows   int
	windowLen int
	lambda0   int
	qlen      int
	mutation  float64
	dataSeed  uint64 // seeds the data and the query pool
	pool      int    // distinct queries in the pool
	oracle    int    // pool queries re-answered by the linear-scan backend
	longest   bool   // Type II Longest instead of Type I FindAll
	// eps picks the query radius from the generated data.
	eps func(ds registry.Dataset[E], m subseq.Measure[E], rng *rand.Rand) float64
	// alien builds a sequence no query can match, for the write phase.
	alien func(rng *rand.Rand, n int) subseq.Sequence[E]
}

// The write phase times at least writePairs append+retire pairs and runs
// for at least writePhase, so that a brief stall elsewhere on the machine
// cannot dominate its median.
const (
	writePairs = 64
	writePhase = 3 * time.Second
)

// writeTimes are the latencies, in ms, of a run of append+retire pairs.
// write_p50_ms is the median over pairs of a pair's mean: appends and
// retires take different times, so the median of both pooled would fall
// in the gap between them and jump with the slightest shift.
type writeTimes struct {
	appends, retires, pairs []float64
}

// add records one pair; an append that failed has no retire.
func (w *writeTimes) add(app, ret time.Duration, retired bool) {
	w.appends = append(w.appends, ms(app))
	if retired {
		w.retires = append(w.retires, ms(ret))
		w.pairs = append(w.pairs, ms(app+ret)/2)
	}
}

func (w *writeTimes) merge(o writeTimes) {
	w.appends = append(w.appends, o.appends...)
	w.retires = append(w.retires, o.retires...)
	w.pairs = append(w.pairs, o.pairs...)
}

func runProteinFindAll(cfg runConfig, tr *tracer, _ *children) (*outcome, error) {
	return libWorkload[byte]{
		dataset: "proteins", measure: "levenshtein-fast",
		windows: 2000, windowLen: 20, lambda0: 1, dataSeed: 1,
		qlen: 60, mutation: 0.1, pool: 64, oracle: 16,
		eps:   func(registry.Dataset[byte], subseq.Measure[byte], *rand.Rand) float64 { return 2 },
		alien: alienLetters,
	}.run(cfg, tr)
}

func runTrajLongest(cfg runConfig, tr *tracer, _ *children) (*outcome, error) {
	return libWorkload[subseq.Point2]{
		dataset: "traj", measure: "erp",
		windows: 2000, windowLen: 20, lambda0: 1, dataSeed: 1,
		qlen: 48, mutation: 0.1, pool: 32, oracle: 4, longest: true,
		eps: func(ds registry.Dataset[subseq.Point2], m subseq.Measure[subseq.Point2], rng *rand.Rand) float64 {
			return windowDistanceQuantile(ds, m, rng, 2000, 0.005)
		},
		alien: func(_ *rand.Rand, n int) subseq.Sequence[subseq.Point2] {
			s := make(subseq.Sequence[subseq.Point2], n)
			for i := range s {
				s[i] = subseq.Point2{X: 1e6 + float64(i), Y: 1e6}
			}
			return s
		},
	}.run(cfg, tr)
}

// alienLetters is a string over the six letters outside the 20-letter
// amino-acid alphabet: its windows sit at the maximum edit distance from
// every protein segment, so it can never join an answer at small eps.
func alienLetters(rng *rand.Rand, n int) subseq.Sequence[byte] {
	const letters = "BJOUXZ"
	s := make(subseq.Sequence[byte], n)
	for i := range s {
		s[i] = letters[rng.IntN(len(letters))]
	}
	return s
}

// windowDistanceQuantile is the q-quantile of the distances between n
// random pairs of distinct database windows.
func windowDistanceQuantile[E any](ds registry.Dataset[E], m subseq.Measure[E], rng *rand.Rand, n int, q float64) float64 {
	ds2 := make([]float64, n)
	for i := range ds2 {
		a := rng.IntN(len(ds.Windows))
		b := rng.IntN(len(ds.Windows) - 1)
		if b >= a {
			b++
		}
		ds2[i] = m.Fn(ds.Windows[a].Data, ds.Windows[b].Data)
	}
	return percentile(ds2, q*100)
}

func (w libWorkload[E]) params() subseq.Params {
	return subseq.Params{Lambda: 2 * w.windowLen, Lambda0: w.lambda0}
}

func (w libWorkload[E]) kind() string {
	if w.longest {
		return "longest"
	}
	return "findall"
}

// query runs the workload's query type; a Longest answer is a list of at
// most one match.
func (w libWorkload[E]) query(mt *subseq.Matcher[E], q subseq.Sequence[E], eps float64) []subseq.Match {
	if w.longest {
		if m, ok := mt.Longest(q, eps); ok {
			return []subseq.Match{m}
		}
		return nil
	}
	return mt.FindAll(q, eps)
}

// libState is what one set-up produces.
type libState[E any] struct {
	ds   registry.Dataset[E]
	m    subseq.Measure[E]
	eps  float64
	pool []subseq.Sequence[E]
	mt   *subseq.Matcher[E]
}

// setup generates the data and the query pool from the workload's data
// seed, builds the index and warms it with two queries outside the pool.
func (w libWorkload[E]) setup(tr *tracer) (*libState[E], error) {
	seed := w.dataSeed
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	gen := tr.begin("data.generate", root, -1)
	ds, err := registry.GenerateDataset[E](w.dataset, w.windows, w.windowLen, seed)
	if err != nil {
		return nil, err
	}
	m, err := registry.Measure[E](w.measure)
	if err != nil {
		return nil, err
	}
	mutate, err := registry.QueryMutator[E](w.dataset)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	st := &libState[E]{ds: ds, m: m, eps: w.eps(ds, m, rng)}
	for range w.pool {
		st.pool = append(st.pool, registry.RandomQuery(ds, w.qlen, w.mutation, mutate, rng.Uint64()))
	}
	warm := []subseq.Sequence[E]{
		registry.RandomQuery(ds, w.qlen, w.mutation, mutate, rng.Uint64()),
		registry.RandomQuery(ds, w.qlen, w.mutation, mutate, rng.Uint64()),
	}
	tr.end(gen)
	build := tr.begin("refnet.build", root, -1)
	st.mt, err = subseq.NewMatcher(m, subseq.Config{Params: w.params(), Index: subseq.IndexRefNet}, ds.Sequences)
	tr.end(build)
	if err != nil {
		return nil, err
	}
	wu := tr.begin("warmup", root, -1)
	for _, q := range warm {
		w.query(st.mt, q, st.eps)
	}
	tr.end(wu)
	return st, nil
}

// libOp is one timed query.
type libOp struct {
	q      int // pool index
	lat    time.Duration
	end    time.Duration // completion, from the start of the timed phase
	calls  int64         // filter + verify distance computations of the query call
	ans    []subseq.Match
	traced bool
	// Traced ops also time a separate FilterHits call on the same query.
	filterCalls, verifyCalls int64
	hits, segs               int
}

func (w libWorkload[E]) run(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var st *libState[E]
	for range cfg.setups() {
		st = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	// Two collections: the first moves pooled scratch to sync.Pool's victim
	// cache, the second frees it.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.metrics["mem_mb"] = float64(mem.HeapAlloc) / 1e6

	mt, pool, eps := st.mt, st.pool, st.eps
	kind := "core." + w.kind()
	calls := func() int64 { return mt.FilterDistanceCalls() + mt.VerifyDistanceCalls() }
	l := w.windowLen
	// The run's seed orders the pool: every pass is a fresh permutation.
	order := rand.New(rand.NewPCG(cfg.seed, 0x0dde7))
	var perm []int
	var ops []libOp
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) && (cfg.maxOps == 0 || i < cfg.maxOps); i++ {
		if i%len(pool) == 0 {
			perm = order.Perm(len(pool))
		}
		op := libOp{q: perm[i%len(pool)], traced: tr.on && i%2 == 1}
		q := pool[op.q]
		root := -1
		if op.traced {
			root = tr.begin("query", -1, int64(i))
			f := tr.begin("core.filter", root, int64(i))
			f0 := mt.FilterDistanceCalls()
			op.hits = len(mt.FilterHits(q, eps))
			op.filterCalls = mt.FilterDistanceCalls() - f0
			tr.end(f)
			op.segs = len(subseq.Segments(q, l-w.lambda0, l+w.lambda0))
		}
		c0, v0 := calls(), mt.VerifyDistanceCalls()
		t0 := time.Now()
		id := tr.begin(kind, root, int64(i))
		op.ans = w.query(mt, q, eps)
		tr.end(id)
		op.lat = time.Since(t0)
		op.end = time.Since(start)
		op.calls = calls() - c0
		op.verifyCalls = mt.VerifyDistanceCalls() - v0
		tr.end(root)
		ops = append(ops, op)
	}
	elapsed := time.Since(start)
	out.attempted = len(ops)
	if len(ops) == 0 {
		return nil, fmt.Errorf("no query finished within %v", elapsed)
	}

	// Untimed from here on: complete the pool so the distance count covers
	// every distinct query exactly once, then check the answers.
	firstCalls := make([]int64, len(pool))
	ref := make([][]subseq.Match, len(pool))
	seen := make([]bool, len(pool))
	if cfg.corrupt {
		ops[0].ans = corruptAnswer(ops[0].ans)
	}
	for _, op := range ops {
		if !seen[op.q] {
			seen[op.q], firstCalls[op.q], ref[op.q] = true, op.calls, op.ans
		}
	}
	for j, q := range pool {
		if !seen[j] {
			c0 := calls()
			ref[j] = w.query(mt, q, eps)
			firstCalls[j] = calls() - c0
		}
	}
	okOps := make([]bool, len(ops))
	for i, op := range ops {
		if okOps[i] = slices.Equal(op.ans, ref[op.q]); !okOps[i] {
			out.fail("op %d: query %d answered differently than on its first run", i, op.q)
		}
	}
	w.checkAnswers(out, st, ref)

	var totalCalls float64
	for _, c := range firstCalls {
		totalCalls += float64(c)
	}
	out.metrics["dist_calls_per_query"] = totalCalls / float64(len(pool))
	// The latency figures are taken over the complete passes over the pool,
	// so that every pool query weighs the same; the ops of the pass the
	// deadline cut short are checked but not timed.
	timed := ops
	if full := len(ops) / len(pool) * len(pool); full > 0 {
		timed = ops[:full]
	}
	var lat []float64
	ok := 0
	for i, op := range timed {
		lat = append(lat, ms(op.lat))
		if okOps[i] {
			ok++
		}
	}
	out.metrics["query_p50_ms"] = median(lat)
	out.metrics["query_p95_ms"] = percentile(lat, 95)
	if n := beyond(lat, percentile(lat, 95)); n < 10 && cfg.maxOps == 0 && !tr.on {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p95; lengthen --seconds\n", n)
	}
	// One client in a closed loop: queries answered correctly per second
	// of the timed passes.
	out.metrics["throughput_qps"] = float64(ok) / timed[len(timed)-1].end.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %d queries in %.1fs (%.2f passes over the pool)\n",
		len(ops), elapsed.Seconds(), float64(len(ops))/float64(len(pool)))

	if tr.on {
		if err := w.layerMetrics(out, st, tr, ops); err != nil {
			return nil, err
		}
	}
	w.writes(out, st, cfg)
	out.metrics["ok_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	return out, nil
}

// checkAnswers holds the reference answer of every pool query against the
// measure itself (each match's distance recomputed from scratch, its
// lengths against λ and λ0) and the first w.oracle of them against an
// independently indexed linear-scan matcher, which must agree exactly.
func (w libWorkload[E]) checkAnswers(out *outcome, st *libState[E], ref [][]subseq.Match) {
	p := w.params()
	db := st.ds.Sequences
	for j, ans := range ref {
		q := st.pool[j]
		for _, mm := range ans {
			if mm.SeqID < 0 || mm.SeqID >= len(db) || mm.QStart < 0 || mm.QEnd > len(q) ||
				mm.XStart < 0 || mm.XEnd > len(db[mm.SeqID]) {
				out.fail("query %d: match %v lies outside its sequences", j, mm)
				continue
			}
			d := st.m.Fn(q[mm.QStart:mm.QEnd], db[mm.SeqID][mm.XStart:mm.XEnd])
			if mm.QLen() < p.Lambda || mm.XLen() < p.Lambda || abs(mm.QLen()-mm.XLen()) > p.Lambda0 ||
				d > st.eps || math.Abs(d-mm.Dist) > 1e-9*max(1, d) {
				out.fail("query %d: match %v does not hold (distance %g, eps %g)", j, mm, d, st.eps)
			}
		}
	}
	lin, err := subseq.NewMatcher(st.m, subseq.Config{Params: p, Index: subseq.IndexLinearScan}, db)
	if err != nil {
		out.fail("building the linear-scan oracle: %v", err)
		return
	}
	nonEmpty := 0
	for j := range min(w.oracle, len(ref)) {
		want := w.query(lin, st.pool[j], st.eps)
		if len(want) > 0 {
			nonEmpty++
		}
		if !slices.Equal(ref[j], want) {
			out.fail("query %d: %d matches, the linear-scan oracle finds %d", j, len(ref[j]), len(want))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: oracle agreed on %d queries (%d with matches)\n", min(w.oracle, len(ref)), nonEmpty)
}

// corruptAnswer returns a copy of ans that differs from it.
func corruptAnswer(ans []subseq.Match) []subseq.Match {
	if len(ans) == 0 {
		return []subseq.Match{{SeqID: 0, QStart: 0, QEnd: 1, XStart: 0, XEnd: 1}}
	}
	c := slices.Clone(ans)
	c[0].Dist += 1
	return c
}

// writes times append+retire pairs of never-matching sequences on the
// live matcher, after every query has been checked. The sequences come
// from the data seed, as the pool does.
func (w libWorkload[E]) writes(out *outcome, st *libState[E], cfg runConfig) {
	mt := st.mt
	runtime.GC()
	rng := rand.New(rand.NewPCG(w.dataSeed, 0xa11e))
	before := mt.NumWindows()
	// Each write is a sequence of the database's mean length in windows.
	wins := max(1, len(st.ds.Windows)/len(st.ds.Sequences))
	var lat writeTimes
	start := time.Now()
	for n := 0; n < writePairs || time.Since(start) < cfg.writePhase(); n++ {
		x := w.alien(rng, wins*w.windowLen)
		t0 := time.Now()
		id, added, err := mt.AppendSequence(x)
		ta := time.Since(t0)
		out.attempted++
		if err != nil || added != wins {
			lat.add(ta, 0, false)
			out.fail("append: %d windows added, err %v", added, err)
			continue
		}
		t0 = time.Now()
		removed, err := mt.RetireSequence(id)
		lat.add(ta, time.Since(t0), true)
		out.attempted++
		if err != nil || removed != added {
			out.fail("retire %d: %d windows removed of %d, err %v", id, removed, added, err)
		}
	}
	if after := mt.NumWindows(); after != before {
		out.fail("after the write phase the index holds %d windows, want %d", after, before)
	}
	out.metrics["write_p50_ms"] = median(lat.pairs)
}

// layerMetrics derives the per-layer metrics of a traced run.
func (w libWorkload[E]) layerMetrics(out *outcome, st *libState[E], tr *tracer, ops []libOp) error {
	spans := tr.snapshot()
	// Both spans are leaves, so their self times are their durations.
	filt := selfByReq(spans, "core.filter")
	whole := selfByReq(spans, "core."+w.kind())
	var split coreSplit
	// Per pool query: summed latency of its traced and its untraced ops.
	tracedLat := make(map[int]time.Duration)
	plainLat := make(map[int]time.Duration)
	tracedN, plainN := make(map[int]int), make(map[int]int)
	for i, op := range ops {
		if !op.traced {
			plainLat[op.q] += op.lat
			plainN[op.q]++
			continue
		}
		tracedLat[op.q] += op.lat
		tracedN[op.q]++
		split.add(filt[int64(i)], whole[int64(i)], op.filterCalls, op.verifyCalls,
			op.hits, len(op.ans), op.segs*st.mt.NumWindows())
	}
	if len(split.filterMs) == 0 {
		return fmt.Errorf("the traced run finished no traced query")
	}
	split.report(out)

	var build []float64
	for _, s := range spans {
		if s.Name == "refnet.build" {
			build = append(build, s.dur().Seconds())
		}
	}
	out.metrics["refnet.build_s"] = median(build)
	out.metrics["refnet.build_dist_calls"] = float64(st.mt.BuildDistanceCalls())
	var cw countingWriter
	if err := st.mt.SaveIndex(&cw); err != nil {
		return fmt.Errorf("saving the index: %w", err)
	}
	out.metrics["refnet.index_bytes_per_window"] = float64(cw) / float64(st.mt.NumWindows())

	var windows []subseq.Window[E]
	for _, s := range st.ds.Sequences {
		windows = append(windows, subseq.Partition(0, s, w.windowLen)...)
	}
	fn, bounded, feed := distSample(st.m, st.pool, windows, w.windowLen, w.lambda0, st.eps)
	out.metrics["dist.fn_ns"] = fn
	out.metrics["dist.bounded_ns"] = bounded
	out.metrics["dist.kernel_feed_ns"] = feed

	// Tracing overhead: traced against untraced latency of the same
	// queries, over the queries that ran both ways.
	var tSum, pSum float64
	for q, t := range tracedLat {
		if plainN[q] == 0 {
			continue
		}
		tSum += float64(t) / float64(tracedN[q])
		pSum += float64(plainLat[q]) / float64(plainN[q])
	}
	out.metrics["trace.overhead_pct"] = 100 * (ratio(tSum, pSum) - 1)
	if pSum == 0 {
		out.metrics["trace.overhead_pct"] = 0
	}
	return nil
}

// coreSplit accumulates the core filter/verify split of traced queries:
// each is answered by a FilterHits call and then by the query call, whose
// duration minus the FilterHits duration is the verify time.
type coreSplit struct {
	filterMs, verifyMs                             []float64
	filterCalls, verifyCalls, hits, matches, naive float64
}

// add records one query: its FilterHits and query-call durations, the
// distance computations of each, its filter hits and matches, and the
// naive filter cost (segments × windows).
func (c *coreSplit) add(filter, query time.Duration, filterCalls, verifyCalls int64, hits, matches, naive int) {
	c.filterMs = append(c.filterMs, ms(filter))
	c.verifyMs = append(c.verifyMs, ms(query-filter))
	c.filterCalls += float64(filterCalls)
	c.verifyCalls += float64(verifyCalls)
	c.hits += float64(hits)
	c.matches += float64(matches)
	c.naive += float64(naive)
}

// report derives the core.filter.* and core.verify.* metrics.
func (c *coreSplit) report(out *outcome) {
	n := float64(len(c.filterMs))
	out.metrics["core.filter.self_ms"] = median(c.filterMs)
	out.metrics["core.filter.dist_calls"] = c.filterCalls / n
	out.metrics["core.filter.hits"] = c.hits / n
	out.metrics["core.filter.pct_naive"] = 100 * ratio(c.filterCalls, c.naive)
	out.metrics["core.filter.hit_yield"] = ratio(c.hits, c.filterCalls)
	out.metrics["core.verify.self_ms"] = median(c.verifyMs)
	out.metrics["core.verify.dist_calls"] = c.verifyCalls / n
	out.metrics["core.verify.match_yield"] = ratio(c.matches, c.verifyCalls)
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// distSamplePairs is the size of the fixed segment–window sample the dist
// metrics are timed on.
const distSamplePairs = 256

// distSample times the measure's three evaluation paths on a fixed sample
// of segment–window pairs drawn from the workload's own queries and
// windows: Fn, Bounded at the workload's eps, and a prepared incremental
// kernel fed the segment element by element. Each is reported as the
// median, over timed passes, of nanoseconds per pair; a missing capability
// reads 0.
func distSample[E any](m subseq.Measure[E], pool []subseq.Sequence[E], windows []subseq.Window[E],
	l, lambda0 int, eps float64) (fn, bounded, feed float64) {
	rng := rand.New(rand.NewPCG(uint64(len(pool)), uint64(len(windows))))
	segs := make([][]E, distSamplePairs)
	wins := make([][]E, distSamplePairs)
	for i := range segs {
		q := pool[rng.IntN(len(pool))]
		n := l - lambda0 + rng.IntN(2*lambda0+1)
		at := rng.IntN(len(q) - n + 1)
		segs[i] = q[at : at+n]
		wins[i] = windows[rng.IntN(len(windows))].Data
	}
	var sink float64
	timePasses := func(pass func()) float64 {
		var per []float64
		deadline := time.Now().Add(60 * time.Millisecond)
		for len(per) < 5 || time.Now().Before(deadline) {
			t0 := time.Now()
			pass()
			per = append(per, float64(time.Since(t0).Nanoseconds())/distSamplePairs)
		}
		return median(per)
	}
	fn = timePasses(func() {
		for i := range segs {
			sink += m.Fn(segs[i], wins[i])
		}
	})
	if m.Bounded != nil {
		bounded = timePasses(func() {
			for i := range segs {
				sink += m.Bounded(segs[i], wins[i], eps)
			}
		})
	}
	if m.Prepare != nil {
		prep := make([]subseq.PreparedKernel[E], len(wins))
		for i, w := range wins {
			prep[i] = m.Prepare(w)
		}
		var state subseq.IncrementalKernel[E]
		feed = timePasses(func() {
			for i := range segs {
				state = subseq.BindKernel(state, prep[i])
				for _, e := range segs[i] {
					sink += state.Feed(e)
				}
			}
		})
	}
	if math.IsNaN(sink) {
		fmt.Fprintln(os.Stderr, "perfbench: distance sample produced NaN")
	}
	return fn, bounded, feed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
