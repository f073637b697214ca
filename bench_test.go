// Benchmarks regenerating the paper's evaluation (one per figure) plus
// micro-benchmarks of the index structures and ablations of the design
// decisions called out in DESIGN.md. Figure benches run the Small
// workloads; `go run ./cmd/experiments -size paper` regenerates full-scale
// numbers.
package subseq_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	subseq "repro"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/metric"
	"repro/internal/refnet"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/registry"
)

// sinkRows prevents the compiler from discarding experiment results.
var sinkRows int

func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry[id]
	for i := 0; i < b.N; i++ {
		for _, t := range runner(experiments.Small) {
			sinkRows += len(t.Rows)
		}
	}
}

func BenchmarkFig04DistanceDistributions(b *testing.B) { benchFigure(b, "fig04") }
func BenchmarkFig05SpaceProteins(b *testing.B)         { benchFigure(b, "fig05") }
func BenchmarkFig06SpaceSongs(b *testing.B)            { benchFigure(b, "fig06") }
func BenchmarkFig07SpaceTraj(b *testing.B)             { benchFigure(b, "fig07") }
func BenchmarkFig08QueryProteins(b *testing.B)         { benchFigure(b, "fig08") }
func BenchmarkFig09QuerySongsDFD(b *testing.B)         { benchFigure(b, "fig09") }
func BenchmarkFig10QueryTrajERP(b *testing.B)          { benchFigure(b, "fig10") }
func BenchmarkFig11QueryTrajDFD(b *testing.B)          { benchFigure(b, "fig11") }
func BenchmarkFig12MatchingWindows(b *testing.B)       { benchFigure(b, "fig12") }

// --- Index micro-benchmarks (PROTEINS windows, Levenshtein) ---

func proteinWindows(n int) []seq.Window[byte] {
	return data.Proteins(n, 20, 1).Windows[:n]
}

func windowLev(a, b seq.Window[byte]) float64 { return dist.LevenshteinFast(a.Data, b.Data) }

func BenchmarkRefNetInsert(b *testing.B) {
	wins := proteinWindows(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := refnet.New(metric.DistFunc[seq.Window[byte]](windowLev))
		for _, w := range wins {
			net.Insert(w)
		}
	}
}

func builtNet(wins []seq.Window[byte], opts ...refnet.Option) *refnet.Net[seq.Window[byte]] {
	net := refnet.New(metric.DistFunc[seq.Window[byte]](windowLev), opts...)
	for _, w := range wins {
		net.Insert(w)
	}
	return net
}

func BenchmarkRefNetRangeSmallRadius(b *testing.B) {
	wins := proteinWindows(5000)
	net := builtNet(wins)
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(net.Range(q, 2))
	}
}

func BenchmarkRefNetRangeLargeRadius(b *testing.B) {
	wins := proteinWindows(5000)
	net := builtNet(wins)
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(net.Range(q, 12))
	}
}

func BenchmarkCoverTreeRange(b *testing.B) {
	wins := proteinWindows(5000)
	ct := subseq.NewCoverTree(windowLev, 1)
	for _, w := range wins {
		ct.Insert(w)
	}
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(ct.Range(q, 2))
	}
}

func BenchmarkMVIndexRange(b *testing.B) {
	wins := proteinWindows(5000)
	idx, err := subseq.NewMVIndex(wins, 5, windowLev)
	if err != nil {
		b.Fatal(err)
	}
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(idx.Range(q, 2))
	}
}

func BenchmarkLinearScanRange(b *testing.B) {
	wins := proteinWindows(5000)
	ls := metric.NewLinearScan(metric.DistFunc[seq.Window[byte]](windowLev))
	for _, w := range wins {
		ls.Insert(w)
	}
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(ls.Range(q, 2))
	}
}

// --- Framework benchmarks ---

func proteinMatcher(b *testing.B, windows int) (*subseq.Matcher[byte], subseq.Sequence[byte]) {
	b.Helper()
	ds := data.Proteins(windows, 20, 1)
	mt, err := subseq.NewMatcher(subseq.LevenshteinFastMeasure(), subseq.Config{
		Params: subseq.Params{Lambda: 40, Lambda0: 1},
	}, ds.Sequences)
	if err != nil {
		b.Fatal(err)
	}
	q := data.RandomQuery(ds, 60, 0.1, data.MutateAA, 9)
	return mt, q
}

func BenchmarkMatcherFilterHits(b *testing.B) {
	mt, q := proteinMatcher(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(mt.FilterHits(q, 4))
	}
}

func BenchmarkMatcherLongest(b *testing.B) {
	mt, q := proteinMatcher(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := mt.Longest(q, 4); ok {
			sinkRows++
		}
	}
}

// --- Batch / worker-pool benchmarks ---

// proteinBatch builds a matcher plus a set of queries for the batched
// throughput benchmarks.
func proteinBatch(b *testing.B, windows, numQ int) (*subseq.Matcher[byte], []subseq.Sequence[byte]) {
	b.Helper()
	ds := data.Proteins(windows, 20, 1)
	mt, err := subseq.NewMatcher(subseq.LevenshteinFastMeasure(), subseq.Config{
		Params: subseq.Params{Lambda: 40, Lambda0: 1},
	}, ds.Sequences)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]subseq.Sequence[byte], numQ)
	for i := range qs {
		qs[i] = data.RandomQuery(ds, 60, 0.1, data.MutateAA, uint64(100+i))
	}
	return mt, qs
}

// BenchmarkMatcherSequentialQueries is the baseline the worker pool is
// measured against: the same query set answered one FindAll at a time.
func BenchmarkMatcherSequentialQueries(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			sinkRows += len(mt.FindAll(q, 2))
		}
	}
}

// BenchmarkMatcherBatch answers the same query set with the sequential
// batched path (shared index traversal, no goroutines).
func BenchmarkMatcherBatch(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range mt.FindAllBatch(qs, 2) {
			sinkRows += len(ms)
		}
	}
}

// BenchmarkMatcherQueryPool adds the worker pool on top of the batched
// path — the multi-core configuration a serving deployment would run.
func BenchmarkMatcherQueryPool(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	pool := subseq.NewQueryPool(mt, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range pool.FindAll(qs, 2) {
			sinkRows += len(ms)
		}
	}
}

// --- Streaming-engine benchmarks ---

// BenchmarkMatcherFilterBatch is the batch-barrier baseline the streaming
// engine is measured against: the protein query set answered by one
// FilterHitsBatch call (shared traversal, single-threaded).
func BenchmarkMatcherFilterBatch(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hits := range mt.FilterHitsBatch(qs, 2) {
			sinkRows += len(hits)
		}
	}
}

// BenchmarkMatcherStreamFilter answers the same query set through the
// streaming submit path: per-query futures, with the engine coalescing the
// burst back into shared traversals. The acceptance bar for the serving
// path is ≥ 90% of BenchmarkMatcherFilterBatch's throughput; in practice
// the worker parallelism puts it well above.
func BenchmarkMatcherStreamFilter(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	pool := subseq.NewQueryPool(mt, 0)
	defer pool.Close()
	ctx := context.Background()
	futures := make([]*subseq.Future[[]subseq.Hit[byte]], len(qs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, q := range qs {
			futures[j] = pool.SubmitFilter(ctx, q, 2)
		}
		for _, f := range futures {
			hits, err := f.Await(ctx)
			if err != nil {
				b.Fatal(err)
			}
			sinkRows += len(hits)
		}
	}
}

// BenchmarkMatcherStreamFindAll is the full streamed Type I pipeline
// (filter + verify) — the configuration `subseqctl serve` runs per
// /query/findall request.
func BenchmarkMatcherStreamFindAll(b *testing.B) {
	mt, qs := proteinBatch(b, 2000, 16)
	pool := subseq.NewQueryPool(mt, 0)
	defer pool.Close()
	ctx := context.Background()
	futures := make([]*subseq.Future[[]subseq.Match], len(qs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, q := range qs {
			futures[j] = pool.Submit(ctx, q, 2)
		}
		for _, f := range futures {
			ms, err := f.Await(ctx)
			if err != nil {
				b.Fatal(err)
			}
			sinkRows += len(ms)
		}
	}
}

// --- Refnet kernel-traversal benchmarks ---

// refnetFilterBench builds a protein matcher on the refnet backend plus a
// query batch; kernel=false strips the Prepare/Bounded capabilities so the
// traversal evaluates every probe independently (the pre-kernel baseline).
func refnetFilterBench(b *testing.B, kernel bool) (*subseq.Matcher[byte], []subseq.Sequence[byte]) {
	b.Helper()
	ds := data.Proteins(2000, 20, 1)
	m := subseq.LevenshteinFastMeasure()
	if !kernel {
		m.Prepare = nil
		m.Bounded = nil
	}
	mt, err := subseq.NewMatcher(m, subseq.Config{
		Params: subseq.Params{Lambda: 40, Lambda0: 1},
		Index:  subseq.IndexRefNet,
	}, ds.Sequences)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]subseq.Sequence[byte], 16)
	for i := range qs {
		qs[i] = data.RandomQuery(ds, 60, 0.1, data.MutateAA, uint64(100+i))
	}
	return mt, qs
}

// BenchmarkRefnetFilterBatchKernel is the kernel-fed refnet filter: probes
// sharing a query offset are priced by one streamed kernel pass per visited
// node. The dist/op metric is the counted filter evaluations per batch —
// compare against BenchmarkRefnetFilterBatchPerProbe.
func BenchmarkRefnetFilterBatchKernel(b *testing.B) {
	mt, qs := refnetFilterBench(b, true)
	mt.ResetFilterCalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hits := range mt.FilterHitsBatch(qs, 4) {
			sinkRows += len(hits)
		}
	}
	b.ReportMetric(float64(mt.FilterDistanceCalls())/float64(b.N), "dist/op")
}

// BenchmarkRefnetFilterBatchPerProbe is the pre-kernel baseline: one full
// evaluation per inconclusive probe at every visited node.
func BenchmarkRefnetFilterBatchPerProbe(b *testing.B) {
	mt, qs := refnetFilterBench(b, false)
	mt.ResetFilterCalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hits := range mt.FilterHitsBatch(qs, 4) {
			sinkRows += len(hits)
		}
	}
	b.ReportMetric(float64(mt.FilterDistanceCalls())/float64(b.N), "dist/op")
}

// BenchmarkRefNetBatchRangeAllocs pins the traversal's allocation behaviour
// (the active-list freelist): steady-state allocs/op must track the result
// shape, not the number of inconclusive nodes.
func BenchmarkRefNetBatchRangeAllocs(b *testing.B) {
	wins := proteinWindows(3000)
	net := builtNet(wins)
	qs := make([]seq.Window[byte], 32)
	for i := range qs {
		qs[i] = seq.Window[byte]{SeqID: -1, Data: wins[i*37].Data}
	}
	net.BatchRange(qs, 4) // warm the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range net.BatchRange(qs, 4) {
			sinkRows += len(r)
		}
	}
}

// --- Ablations (design decisions from DESIGN.md §5) ---

// Ablation 1: generic DP Levenshtein vs byte-specialised DP vs Myers'
// bit-parallel implementation.
func BenchmarkAblationLevenshteinGeneric(b *testing.B) {
	d := dist.Levenshtein[byte]()
	x := []byte("ACDEFGHIKLMNPQRSTVWY")
	y := []byte("YWVTSRQPNMLKIHGFEDCA")
	for i := 0; i < b.N; i++ {
		sinkRows += int(d(x, y))
	}
}

func BenchmarkAblationLevenshteinBytesDP(b *testing.B) {
	x := []byte("ACDEFGHIKLMNPQRSTVWY")
	y := []byte("YWVTSRQPNMLKIHGFEDCA")
	for i := 0; i < b.N; i++ {
		sinkRows += int(dist.LevenshteinBytes(x, y))
	}
}

func BenchmarkAblationLevenshteinMyers(b *testing.B) {
	x := []byte("ACDEFGHIKLMNPQRSTVWY")
	y := []byte("YWVTSRQPNMLKIHGFEDCA")
	for i := 0; i < b.N; i++ {
		sinkRows += int(dist.LevenshteinFast(x, y))
	}
}

// Ablation 1b: past the 64-byte word boundary the block-based (multi-word)
// Myers path must stay bit-parallel — compare against the byte DP on the
// same 120-byte inputs.
func longAblationInputs() (x, y []byte) {
	x = make([]byte, 120)
	y = make([]byte, 120)
	aa := "ACDEFGHIKLMNPQRSTVWY"
	for i := range x {
		x[i] = aa[i%len(aa)]
		y[i] = aa[(i*7+3)%len(aa)]
	}
	return x, y
}

func BenchmarkAblationLevenshteinBytesDPLong(b *testing.B) {
	x, y := longAblationInputs()
	for i := 0; i < b.N; i++ {
		sinkRows += int(dist.LevenshteinBytes(x, y))
	}
}

func BenchmarkAblationLevenshteinMyersBlockLong(b *testing.B) {
	x, y := longAblationInputs()
	for i := 0; i < b.N; i++ {
		sinkRows += int(dist.LevenshteinFast(x, y))
	}
}

// Ablation 1c: the banded bounded block path on the same 120-byte inputs
// with a tight radius — the Ukkonen band advances ~2 word blocks per
// character instead of all of them and abandons on the score slack.
var sinkDist float64

func BenchmarkAblationMyersBandedBoundedLong(b *testing.B) {
	x, y := longAblationInputs()
	bounded := dist.LevenshteinFastMeasure().Bounded
	for i := 0; i < b.N; i++ {
		sinkDist += bounded(x, y, 8)
	}
}

// Ablation 2: stored-edge bounds in range queries on vs off. The custom
// metric reports distance computations per query alongside wall time.
func benchEdgeBounds(b *testing.B, on bool) {
	wins := proteinWindows(5000)
	counter := metric.NewCounter(metric.DistFunc[seq.Window[byte]](windowLev))
	net := refnet.New(counter.Distance, refnet.WithEdgeBounds(on))
	for _, w := range wins {
		net.Insert(w)
	}
	q := seq.Window[byte]{SeqID: -1, Data: wins[17].Data}
	counter.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows += len(net.Range(q, 4))
	}
	b.ReportMetric(float64(counter.Calls())/float64(b.N), "dist/op")
}

func BenchmarkAblationEdgeBoundsOn(b *testing.B)  { benchEdgeBounds(b, true) }
func BenchmarkAblationEdgeBoundsOff(b *testing.B) { benchEdgeBounds(b, false) }

// Ablation 3: batched range queries vs sequential ones.
func BenchmarkAblationBatchRange(b *testing.B) {
	wins := proteinWindows(3000)
	net := builtNet(wins)
	qs := make([]seq.Window[byte], 32)
	for i := range qs {
		qs[i] = seq.Window[byte]{SeqID: -1, Data: wins[i*37].Data}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range net.BatchRange(qs, 4) {
			sinkRows += len(r)
		}
	}
}

func BenchmarkAblationSequentialRange(b *testing.B) {
	wins := proteinWindows(3000)
	net := builtNet(wins)
	qs := make([]seq.Window[byte], 32)
	for i := range qs {
		qs[i] = seq.Window[byte]{SeqID: -1, Data: wins[i*37].Data}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			sinkRows += len(net.Range(q, 4))
		}
	}
}

// --- Store lifecycle: snapshot/restore and live mutation (internal/store,
// docs/PERSISTENCE.md). RestoreVsRebuild is the headline pair: restoring a
// refnet snapshot decodes structure and computes zero distances, where a
// rebuild pays the full O(n · depth) insertion distance bill. ---

// benchStore builds a refnet-backed store over n PROTEINS windows.
func benchStore(b *testing.B, n int) *subseq.Store[byte] {
	b.Helper()
	ds := data.Proteins(n, 20, 1)
	st, err := subseq.NewStore(dist.LevenshteinFastMeasure(), subseq.Config{
		Params: subseq.Params{Lambda: 40, Lambda0: 1},
	}, ds.Sequences)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// benchSnapshot is one serialised store, shared by the decode-side benches.
func benchSnapshot(b *testing.B, n int) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := benchStore(b, n).Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkSnapshotSave(b *testing.B) {
	st := benchStore(b, 5000)
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	blob := benchSnapshot(b, 5000)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := subseq.OpenStore(bytes.NewReader(blob), dist.LevenshteinFastMeasure(), nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkRows += st.Matcher().NumWindows()
	}
}

// BenchmarkRestoreVsRebuild puts the two restart paths side by side over
// the same 5000-window database; dist/op counts the index-construction
// distance evaluations each path pays (restore: zero).
func BenchmarkRestoreVsRebuild(b *testing.B) {
	ds := data.Proteins(5000, 20, 1)
	cfg := subseq.Config{Params: subseq.Params{Lambda: 40, Lambda0: 1}}
	blob := benchSnapshot(b, 5000)
	b.Run("Restore", func(b *testing.B) {
		var calls int64
		for i := 0; i < b.N; i++ {
			st, err := subseq.OpenStore(bytes.NewReader(blob), dist.LevenshteinFastMeasure(), nil)
			if err != nil {
				b.Fatal(err)
			}
			calls += st.Matcher().BuildDistanceCalls()
		}
		b.ReportMetric(float64(calls)/float64(b.N), "dist/op")
	})
	b.Run("Rebuild", func(b *testing.B) {
		var calls int64
		for i := 0; i < b.N; i++ {
			st, err := subseq.NewStore(dist.LevenshteinFastMeasure(), cfg, ds.Sequences)
			if err != nil {
				b.Fatal(err)
			}
			calls += st.Matcher().BuildDistanceCalls()
		}
		b.ReportMetric(float64(calls)/float64(b.N), "dist/op")
	})
}

// BenchmarkStoreAppend measures live ingest while a query worker keeps
// the read side busy: every append drains in-flight query claims (the
// store's write lock), so this prices mutation under serving load.
func BenchmarkStoreAppend(b *testing.B) {
	st := benchStore(b, 2000)
	pool := st.NewQueryPool(2)
	defer pool.Close()
	q := data.Proteins(8, 20, 99).Sequences[0][:30]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sinkRows += len(pool.FindAll([]subseq.Sequence[byte]{q}, 2))
			}
		}
	}()
	x := data.Proteins(8, 20, 7).Sequences[0][:40] // two windows per append
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkGatewayHotQuery prices the gateway result cache on its
// design workload: one hot findall query hammered through a two-shard
// fleet of real serve handlers. With the cache off every request scatters to the shards and
// recomputes the query; with it on, every request after the first is a
// canonical-key cache hit served from gateway memory. The ratio of the
// two sub-benchmarks is the hit-path latency reduction (the acceptance
// floor is 5×).
func BenchmarkGatewayHotQuery(b *testing.B) {
	ds := data.Proteins(160, 20, 1)
	numSeqs := len(ds.Sequences)
	plan, err := shard.Partition(numSeqs, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := subseq.Config{Params: subseq.Params{Lambda: 40, Lambda0: 1}}
	newShard := func(lo, hi int) *httptest.Server {
		st, err := subseq.NewStore(dist.LevenshteinFastMeasure(), cfg, ds.Sequences[lo:hi])
		if err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(st, registry.ServerSpec{SessionSpec: registry.SessionSpec{
			Dataset: "proteins", Measure: "levenshtein-fast", ShardLo: lo, ShardHi: hi,
		}}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		return ts
	}
	urls := make([]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		urls[i] = newShard(r.Lo, r.Hi).URL
	}
	body := []byte(fmt.Sprintf(`{"query":%q,"eps":4}`, string(ds.Sequences[0][:60])))
	run := func(b *testing.B, opts ...shard.GatewayOption) {
		gw, err := shard.NewGateway(plan, urls, opts...)
		if err != nil {
			b.Fatal(err)
		}
		gts := httptest.NewServer(gw.Handler())
		defer gts.Close()
		client := gts.Client()
		post := func() {
			resp, err := client.Post(gts.URL+"/query/findall", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n == 0 {
				b.Fatalf("findall answered %d with %d bytes", resp.StatusCode, n)
			}
		}
		post() // warm: the cached run measures pure hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	}
	b.Run("Uncached", func(b *testing.B) { run(b) })
	b.Run("Cached", func(b *testing.B) { run(b, shard.WithCache(64<<20, 0)) })
}
