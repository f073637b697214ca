package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	subseq "repro"
	"repro/registry"
)

// The fleet workload: two `subseqctl serve` shards behind one `subseqctl
// gateway`, driven over HTTP by an open-loop Poisson load generator.
const (
	fleetDataSeed    = 1 // seeds the data and the key pool
	fleetWindows     = 400
	fleetWindowLen   = 20
	fleetEps         = 2.0
	fleetQueryLen    = 60
	fleetKeys        = 160 // distinct findall queries the Zipf draws range over
	fleetLongestKeys = 8   // distinct longest queries
	fleetZipfS       = 1.1
	fleetLongestFrac = 0.05 // share of operations that are longest queries
	fleetWriteFrac   = 0.01 // share of operations that are admin writes
	fleetRate        = 50.0 // offered operations per second (see README.md for its calibration)
	fleetConns       = 2    // connections the load generator may hold
	fleetCacheFrac   = 0.5  // cache budget as a share of the key pool's response bytes
	fleetProbes      = 16   // cold queries timed layer by layer in the traced run
	fleetProbeWrites = 8    // append+retire pairs timed per path in the traced run
	fleetDrainLimit  = 30 * time.Second
	// loadAlienWindows is the length, in windows, of the sequences the load
	// phase appends: short, so a write disturbs the reads around it through
	// the store drain and the cache flush rather than through a long index
	// insertion.
	loadAlienWindows = 3
)

type opKind int

const (
	opFindAll opKind = iota
	opLongest
	opAppend
	opRetire
)

var opNames = [...]string{"findall", "longest", "append", "retire"}

// fleetOp is one scheduled operation of the load phase.
type fleetOp struct {
	kind opKind
	key  int           // pool index of a read
	pair int           // append+retire pair of a write
	due  time.Duration // offset from the start of the load phase
}

func (op fleetOp) isRead() bool { return op.kind == opFindAll || op.kind == opLongest }

// fleetSchedule draws the load phase from the run's seed: Poisson
// arrivals at fleetRate, Zipf-skewed findall keys and a few longest queries.
// Every writeEvery-th operation, from the middle of the first block on, is
// an admin write; writes alternate between an append and the retire of
// that append, and a final retire closes an open pair.
func fleetSchedule(seed uint64, seconds float64, maxOps int) []fleetOp {
	const writeEvery = int(1 / fleetWriteFrac)
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetKeys-1)
	var ops []fleetOp
	open, pairs := false, 0
	t := 0.0
	for {
		t += rng.ExpFloat64() / fleetRate
		if t >= seconds || (maxOps > 0 && len(ops) >= maxOps) {
			break
		}
		op := fleetOp{due: time.Duration(t * float64(time.Second))}
		u := rng.Float64()
		switch {
		case len(ops)%writeEvery == writeEvery/2 && open:
			op.kind, op.pair, open = opRetire, pairs-1, false
		case len(ops)%writeEvery == writeEvery/2:
			op.kind, op.pair, open = opAppend, pairs, true
			pairs++
		case u < fleetLongestFrac:
			op.kind, op.key = opLongest, rng.IntN(fleetLongestKeys)
		default:
			op.kind, op.key = opFindAll, int(zipf.Uint64())
		}
		ops = append(ops, op)
	}
	if open {
		ops = append(ops, fleetOp{kind: opRetire, pair: pairs - 1, due: ops[len(ops)-1].due})
	}
	return ops
}

// fleetPool is the fixed key pool with its single-node reference answers.
type fleetPool struct {
	ds        registry.Dataset[byte]
	findall   []subseq.Sequence[byte]
	longest   []subseq.Sequence[byte]
	wantAll   [][]wireMatch
	wantBest  []*wireMatch
	respBytes int64                   // the pool's answers, encoded as the gateway sends them
	probes    []subseq.Sequence[byte] // cold queries outside the pool (traced run)
}

func buildFleetPool() (*fleetPool, *subseq.Matcher[byte], error) {
	spec := registry.SessionSpec{Dataset: "proteins", Windows: fleetWindows, WindowLen: fleetWindowLen, Seed: fleetDataSeed}
	mt, ds, err := registry.NewMatcher[byte](spec)
	if err != nil {
		return nil, nil, err
	}
	mutate, err := registry.QueryMutator[byte]("proteins")
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(fleetDataSeed, 0x9001))
	p := &fleetPool{ds: ds}
	next := func() subseq.Sequence[byte] {
		return registry.RandomQuery(ds, fleetQueryLen, 0.1, mutate, rng.Uint64())
	}
	for range fleetKeys {
		q := next()
		p.findall = append(p.findall, q)
		want := toWire(mt.FindAll(q, fleetEps))
		p.wantAll = append(p.wantAll, want)
		b, _ := json.MarshalIndent(findAllResponse{Count: len(want), Matches: want}, "", "  ")
		p.respBytes += int64(len(b))
	}
	for range fleetLongestKeys {
		q := next()
		p.longest = append(p.longest, q)
		var want *wireMatch
		if m, ok := mt.Longest(q, fleetEps); ok {
			want = &toWire([]subseq.Match{m})[0]
		}
		p.wantBest = append(p.wantBest, want)
		b, _ := json.MarshalIndent(bestResponse{Found: want != nil, Match: want}, "", "  ")
		p.respBytes += int64(len(b))
	}
	for range fleetProbes {
		p.probes = append(p.probes, next())
	}
	return p, mt, nil
}

// fleet is one running set of processes.
type fleet struct {
	shards []*child
	gw     *child
	cut    int // first sequence of shard 1
	nseq   int
}

func startFleet(cfg runConfig, kids *children, pool *fleetPool, budget int64) (*fleet, error) {
	f := &fleet{nseq: len(pool.ds.Sequences)}
	f.cut = f.nseq / 2
	for i, r := range [][2]int{{0, f.cut}, {f.cut, f.nseq}} {
		sess := fmt.Sprintf("name=p%d,dataset=proteins,windows=%d,windowlen=%d,seed=%d,shard_lo=%d,shard_hi=%d,workers=1",
			i, fleetWindows, fleetWindowLen, fleetDataSeed, r[0], r[1])
		ch, err := kids.start(cfg.bin, "serve", "-addr", "127.0.0.1:0", "-session", sess)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, ch)
	}
	gw, err := kids.start(cfg.bin, "gateway", "-addr", "127.0.0.1:0",
		"-shard", f.shards[0].base, "-shard", f.shards[1].base, "-cache-size", fmt.Sprint(budget))
	if err != nil {
		return nil, err
	}
	f.gw = gw
	return f, nil
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, ch := range append([]*child{f.gw}, f.shards...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.stop()
		}()
	}
	wg.Wait()
}

// waitHealthy polls every process's /healthz until each answers 200.
func (f *fleet) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, ch := range append([]*child{f.gw}, f.shards...) {
		for {
			status, _, err := get(c, ch.base+"/healthz")
			if err == nil && status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/healthz not OK within 60s (status %d, err %v)", ch.base, status, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// checkRead compares a gateway answer with the single-node reference.
func (p *fleetPool) checkRead(op fleetOp, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s key %d: status %d: %.200s", opNames[op.kind], op.key, status, body)
	}
	if op.kind == opFindAll {
		var r findAllResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("findall key %d: %w", op.key, err)
		}
		if len(r.Degradation) > 0 && string(r.Degradation) != "null" {
			return fmt.Errorf("findall key %d: degraded reply %s", op.key, r.Degradation)
		}
		if r.Count != len(r.Matches) || !slices.Equal(r.Matches, p.wantAll[op.key]) {
			return fmt.Errorf("findall key %d: %d matches, single node has %d", op.key, len(r.Matches), len(p.wantAll[op.key]))
		}
		return nil
	}
	var r bestResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("longest key %d: %w", op.key, err)
	}
	if len(r.Degradation) > 0 && string(r.Degradation) != "null" {
		return fmt.Errorf("longest key %d: degraded reply %s", op.key, r.Degradation)
	}
	want := p.wantBest[op.key]
	if r.Found != (want != nil) || (want != nil && (r.Match == nil || *r.Match != *want)) {
		return fmt.Errorf("longest key %d: answer %v, single node %v", op.key, r.Match, want)
	}
	return nil
}

// alien is an append request for a never-matching sequence of the given
// number of windows; 0 selects the database's mean sequence length.
func (p *fleetPool) alien(rng *rand.Rand, wins int) []byte {
	if wins == 0 {
		wins = max(1, len(p.ds.Windows)/len(p.ds.Sequences))
	}
	b, _ := json.Marshal(map[string]string{"sequence": string(alienLetters(rng, wins*fleetWindowLen))}) // a string map always marshals
	return b
}

func (p *fleetPool) readBody(op fleetOp) []byte {
	if op.kind == opFindAll {
		return queryBody(p.findall[op.key], fleetEps)
	}
	return queryBody(p.longest[op.key], fleetEps)
}

// opResult is what happened to one scheduled operation.
type opResult struct {
	sent   bool
	late   time.Duration // dispatch time minus due time
	lat    time.Duration // completion minus due time (reads) or send time (writes)
	status int
	body   []byte
	err    error
	seqID  int // an acknowledged append's sequence
	traced bool
}

func runFleet(cfg runConfig, tr *tracer, kids *children) (*outcome, error) {
	out := newOutcome()
	pool, single, err := buildFleetPool()
	if err != nil {
		return nil, fmt.Errorf("building the key pool: %w", err)
	}
	budget := int64(fleetCacheFrac * float64(pool.respBytes))
	fmt.Fprintf(os.Stderr, "perfbench: key pool answers %d bytes; gateway cache budget %d bytes\n", pool.respBytes, budget)
	client := httpClient()
	defer client.CloseIdleConnections()

	var f *fleet
	var setups []float64
	for rep := range cfg.setups() {
		if f != nil {
			f.stop()
			client.CloseIdleConnections()
		}
		root := tr.begin("setup", -1, -1)
		t0 := time.Now()
		if f, err = startFleet(cfg, kids, pool, budget); err != nil {
			return nil, err
		}
		if err := f.waitHealthy(client); err != nil {
			return nil, err
		}
		// Warm-up: every pool key once through the gateway, checked.
		for key := range pool.findall {
			op := fleetOp{kind: opFindAll, key: key}
			status, body, err := post(client, f.gw.base+"/query/findall", pool.readBody(op))
			if err == nil {
				err = pool.checkRead(op, status, body)
			}
			if err != nil {
				out.fail("warm-up %d: %v", rep, err)
			}
		}
		for key := range pool.longest {
			op := fleetOp{kind: opLongest, key: key}
			status, body, err := post(client, f.gw.base+"/query/longest", pool.readBody(op))
			if err == nil {
				err = pool.checkRead(op, status, body)
			}
			if err != nil {
				out.fail("warm-up %d: %v", rep, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(root)
	}
	out.metrics["setup_s"] = median(setups)
	var rss int64
	for _, ch := range append([]*child{f.gw}, f.shards...) {
		b, err := ch.rssBytes()
		if err != nil {
			return nil, err
		}
		rss += b
	}
	out.metrics["mem_mb"] = float64(rss) / 1e6

	before, err := f.snapshotStats(client)
	if err != nil {
		return nil, err
	}
	ops := fleetSchedule(cfg.seed, cfg.seconds, cfg.maxOps)
	runtime.GC() // start the timed phase without the set-up's garbage
	res, start, end := f.load(cfg, tr, client, pool, ops)
	after, err := f.snapshotStats(client)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		for i, op := range ops {
			if op.isRead() && res[i].sent {
				res[i].body = corruptBody(op, res[i].body)
				break
			}
		}
	}

	// Check every operation; bodies repeat (cache hits), so each distinct
	// body is decoded once per key.
	checked := map[string]error{}
	var readLat, writeLat, late, tracedLat, plainLat []float64
	var okReads, acked int
	for i, op := range ops {
		r := res[i]
		out.attempted++
		late = append(late, ms(r.late))
		switch {
		case !r.sent:
			out.fail("%s op %d was never sent", opNames[op.kind], i)
			continue
		case r.err != nil:
			out.fail("%s op %d: %v", opNames[op.kind], i, r.err)
			continue
		}
		if !op.isRead() {
			if r.status != http.StatusOK {
				out.fail("%s op %d: status %d: %.200s", opNames[op.kind], i, r.status, r.body)
				continue
			}
			acked++
			writeLat = append(writeLat, ms(r.lat))
			continue
		}
		ck := fmt.Sprintf("%d/%d/%d/%s", op.kind, op.key, r.status, r.body)
		cerr, ok := checked[ck]
		if !ok {
			cerr = pool.checkRead(op, r.status, r.body)
			checked[ck] = cerr
		}
		if cerr != nil {
			out.fail("op %d: %v", i, cerr)
			continue
		}
		okReads++
		readLat = append(readLat, ms(r.lat))
		if r.traced {
			tracedLat = append(tracedLat, ms(r.lat))
		} else {
			plainLat = append(plainLat, ms(r.lat))
		}
	}
	f.checkWrites(out, before, after, ops, res, acked)

	out.metrics["query_p50_ms"] = median(readLat)
	out.metrics["query_p95_ms"] = percentile(readLat, 95)
	if n := beyond(readLat, percentile(readLat, 95)); n < 10 && cfg.maxOps == 0 && !tr.on {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p95; lengthen --seconds\n", n)
	}
	out.metrics["throughput_qps"] = float64(okReads) / end.Sub(start).Seconds()
	shardCalls := float64(after.shardCalls() - before.shardCalls())
	out.metrics["dist_calls_per_query"] = ratio(shardCalls, float64(okReads))
	fmt.Fprintf(os.Stderr, "perfbench: %d operations over %.1fs (%d reads OK, %d writes acknowledged)\n",
		len(ops), end.Sub(start).Seconds(), okReads, acked)

	// The load phase's dozen writes time a mixture (a write waits for the
	// queries in flight on its shard), too few for a steady median; the
	// write path's own latency is timed in a write phase on the idle fleet.
	runtime.GC()
	gwWrites, err := f.writePairs(out, tr, client, pool, f.gw.base, "gateway", writePairs, cfg.writePhase())
	if err != nil {
		return nil, err
	}
	out.metrics["write_p50_ms"] = median(gwWrites.pairs)
	out.metrics["ok_rate"] = 1 - float64(out.failed)/float64(out.attempted)

	if tr.on {
		out.metrics["gateway.write_in_load_ms"] = median(writeLat)
		out.metrics["loadgen.late_p99_ms"] = percentile(late, 99)
		out.metrics["trace.overhead_pct"] = 100 * (ratio(median(tracedLat), median(plainLat)) - 1)
		layerStats(out, before, after)
		// The load phase's answers are checked; drop them, so that the
		// probe's in-process queries do not pay for collecting them.
		res, checked = nil, nil
		runtime.GC()
		if err := f.probe(out, tr, client, pool, single); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// load runs the open loop: a dispatcher releases each operation at its due
// time into a queue that fleetConns workers drain. Latency runs from the
// due time, so time spent queued behind a slow request counts.
func (f *fleet) load(cfg runConfig, tr *tracer, c *http.Client, pool *fleetPool, ops []fleetOp) ([]opResult, time.Time, time.Time) {
	res := make([]opResult, len(ops))
	appended := make([]chan struct{}, len(ops)) // by pair: closed once the append is done
	seqOf := make([]int, len(ops))
	for i := range appended {
		appended[i] = make(chan struct{})
	}
	queue := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	giveUp := start.Add(time.Duration(cfg.seconds*float64(time.Second)) + fleetDrainLimit)
	var wg sync.WaitGroup
	var endMu sync.Mutex
	end := start
	for range fleetConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				op := ops[i]
				r := &res[i]
				if time.Now().After(giveUp) {
					if op.kind == opAppend {
						seqOf[op.pair] = -1
						close(appended[op.pair])
					}
					continue // counted as never sent
				}
				r.traced = tr.on && i%2 == 1
				root := -1
				if r.traced {
					root = tr.begin("loadgen.op", -1, int64(i))
				}
				var url string
				var body []byte
				switch op.kind {
				case opFindAll, opLongest:
					url, body = f.gw.base+"/query/"+opNames[op.kind], pool.readBody(op)
				case opAppend:
					url = f.gw.base + "/admin/append"
					body = pool.alien(rand.New(rand.NewPCG(uint64(op.pair), 7)), loadAlienWindows)
				case opRetire:
					<-appended[op.pair]
					if seqOf[op.pair] < 0 {
						tr.end(root)
						continue // its append failed; counted as never sent
					}
					url = f.gw.base + "/admin/retire"
					body = fmt.Appendf(nil, `{"seq_id":%d}`, seqOf[op.pair])
				}
				id := tr.begin("gateway."+opNames[op.kind], root, int64(i))
				sent := time.Now()
				r.status, r.body, r.err = post(c, url, body)
				tr.end(id)
				done := time.Now()
				r.sent = true
				// Reads are timed from their due time; writes from the
				// moment they go on the wire, so that a write's figure is
				// the write path's own cost, not the wait for one of the
				// load generator's connections.
				r.lat = done.Sub(start.Add(op.due))
				if !op.isRead() {
					r.lat = done.Sub(sent)
				}
				tr.end(root)
				if op.kind == opAppend {
					seqOf[op.pair] = -1
					var ar adminResponse
					if r.err == nil && r.status == http.StatusOK && json.Unmarshal(r.body, &ar) == nil && ar.SeqID != nil && ar.Acks > 0 {
						seqOf[op.pair] = *ar.SeqID
					}
					close(appended[op.pair])
				}
				endMu.Lock()
				if done.After(end) {
					end = done
				}
				endMu.Unlock()
			}
		}()
	}
	for i, op := range ops {
		due := start.Add(op.due)
		time.Sleep(time.Until(due))
		res[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, start, end
}

// corruptBody returns a well-formed answer that differs from body.
func corruptBody(op fleetOp, body []byte) []byte {
	var v any
	if op.kind == opFindAll {
		var r findAllResponse
		json.Unmarshal(body, &r) // a body that does not decode fails the check anyway
		r.Matches = append(r.Matches, wireMatch{SeqID: -1})
		r.Count = len(r.Matches)
		v = r
	} else {
		var r bestResponse
		json.Unmarshal(body, &r)
		r.Found, r.Match = true, &wireMatch{SeqID: -1}
		v = r
	}
	b, _ := json.Marshal(v) // plain structs always marshal
	return b
}

// fleetStats is one reading of every process's /stats.
type fleetStats struct {
	gw     gatewayStats
	shards []shardStats
}

func (f *fleet) snapshotStats(c *http.Client) (fleetStats, error) {
	var s fleetStats
	if err := getJSON(c, f.gw.base+"/stats", &s.gw); err != nil {
		return s, err
	}
	for _, ch := range f.shards {
		var ss shardStats
		if err := getJSON(c, ch.base+"/stats", &ss); err != nil {
			return s, err
		}
		s.shards = append(s.shards, ss)
	}
	return s, nil
}

func (s fleetStats) shardCalls() int64 {
	var n int64
	for _, ss := range s.shards {
		n += ss.DistanceCalls.Filter + ss.DistanceCalls.Verify
	}
	return n
}

// checkWrites confirms through /stats that the load phase's writes landed
// (checkStore), that the gateway counted each, and that no reply was
// degraded.
func (f *fleet) checkWrites(out *outcome, before, after fleetStats, ops []fleetOp, res []opResult, acked int) {
	appends := 0
	for i, op := range ops {
		if op.kind == opAppend && res[i].sent && res[i].status == http.StatusOK {
			appends++
		}
	}
	checkStore(out, before, after, appends, "load phase")
	if got := after.gw.Gateway.Writes - before.gw.Gateway.Writes; got != int64(acked) {
		out.fail("gateway counted %d writes, %d were acknowledged", got, acked)
	}
	if after.gw.Gateway.Degraded != before.gw.Gateway.Degraded {
		out.fail("gateway reports %d degraded replies", after.gw.Gateway.Degraded-before.gw.Gateway.Degraded)
	}
}

// layerStats derives the stream, gateway-cache and shard metrics from the
// /stats deltas of the load phase.
func layerStats(out *outcome, before, after fleetStats) {
	waits := map[float64]int64{}
	var calls, queries, shed, completed int64
	for i := range after.shards {
		a, b := after.shards[i], before.shards[i]
		for _, bk := range a.Stream.QueueWait.Buckets {
			waits[bk.LE] += bk.Count
		}
		for _, bk := range b.Stream.QueueWait.Buckets {
			waits[bk.LE] -= bk.Count
		}
		calls += a.Batch.Calls - b.Batch.Calls
		queries += a.Batch.Queries - b.Batch.Queries
		shed += (a.Stream.Shed + a.Stream.Rejected + a.Stream.Expired) - (b.Stream.Shed + b.Stream.Rejected + b.Stream.Expired)
		completed += a.Stream.Completed - b.Stream.Completed
	}
	out.metrics["stream.queue_wait_p50_ms"] = bucketQuantile(waits, 0.50)
	out.metrics["stream.queue_wait_p99_ms"] = bucketQuantile(waits, 0.99)
	out.metrics["stream.coalesce_factor"] = ratio(float64(queries), float64(calls))
	out.metrics["stream.shed"] = float64(shed)
	out.metrics["shard.dist_calls_per_query"] = ratio(float64(after.shardCalls()-before.shardCalls()), float64(completed))
	if a, b := after.gw.Cache, before.gw.Cache; a != nil && b != nil {
		hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
		out.metrics["gateway.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		out.metrics["gateway.evictions"] = float64(a.Evictions - b.Evictions)
		out.metrics["gateway.invalidations"] = float64(a.Invalidations - b.Invalidations)
	}
	out.metrics["gateway.flight_shared"] = float64(after.gw.Gateway.SingleFlight.Hits - before.gw.Gateway.SingleFlight.Hits)
}

// bucketQuantile interpolates the q-quantile of a histogram given as
// bucket upper bound (ms) → count, within the bucket holding that rank.
// The overflow bucket (bound 0 on the wire) reads as the largest finite
// bound.
func bucketQuantile(h map[float64]int64, q float64) float64 {
	type bucket struct {
		le float64
		n  int64
	}
	var bs []bucket
	var total int64
	for le, n := range h {
		if n <= 0 {
			continue
		}
		if le == 0 {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, n})
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * float64(total)
	var seen int64
	lo := 0.0
	for _, b := range bs {
		if float64(seen+b.n) >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-float64(seen))/float64(b.n)
		}
		seen += b.n
		lo = b.le
	}
	return lo
}

// probe is the traced run's layer split, after the load phase: cold
// queries timed in-process on each shard's slice, straight to each shard
// over HTTP, and through the gateway cold and then cached; HTTP floors of
// the gateway; and admin writes through the gateway and straight to the
// tail shard.
func (f *fleet) probe(out *outcome, tr *tracer, c *http.Client, pool *fleetPool, single *subseq.Matcher[byte]) error {
	// In-process matchers over the shards' slices, built as the shards
	// build theirs, each behind a one-worker streaming pool: the engine a
	// shard answers through.
	var libs []*subseq.Matcher[byte]
	var pools []*subseq.QueryPool[byte]
	defer func() {
		for _, qp := range pools {
			qp.Close()
		}
	}()
	ctx := context.Background()
	var buildS, buildCalls []float64
	var indexBytes countingWriter
	windows := 0
	m, err := registry.Measure[byte]("levenshtein-fast")
	if err != nil {
		return err
	}
	cfg := subseq.Config{Params: subseq.Params{Lambda: 2 * fleetWindowLen, Lambda0: 1}, Index: subseq.IndexRefNet}
	for i, r := range [][2]int{{0, f.cut}, {f.cut, f.nseq}} {
		id := tr.begin("refnet.build", -1, int64(-1-i))
		mt, err := subseq.NewMatcher(m, cfg, pool.ds.Sequences[r[0]:r[1]])
		buildS = append(buildS, tr.end(id).Seconds())
		if err != nil {
			return err
		}
		buildCalls = append(buildCalls, float64(mt.BuildDistanceCalls()))
		if err := mt.SaveIndex(&indexBytes); err != nil {
			return fmt.Errorf("saving shard %d's index: %w", i, err)
		}
		windows += mt.NumWindows()
		// Warm the lazily prepared kernels, as the load phase warmed the
		// shards'.
		for _, q := range pool.findall {
			mt.FindAll(q, fleetEps)
		}
		libs = append(libs, mt)
		pools = append(pools, subseq.NewQueryPool(mt, 1))
	}
	out.metrics["refnet.build_s"] = median(buildS)
	out.metrics["refnet.build_dist_calls"] = median(buildCalls)
	out.metrics["refnet.index_bytes_per_window"] = float64(indexBytes) / float64(windows)

	var split coreSplit
	var httpMs, overhead, respBytes, hop, hit, healthz, rtt []float64
	for p, q := range pool.probes {
		req := int64(1_000_000 + p)
		root := tr.begin("probe", -1, req)
		body := queryBody(q, fleetEps)
		slowest := 0.0
		for s, mt := range libs {
			fid := tr.begin("core.filter", root, req)
			f0 := mt.FilterDistanceCalls()
			h := len(mt.FilterHits(q, fleetEps))
			fd := tr.end(fid)
			fc := mt.FilterDistanceCalls() - f0
			v0 := mt.VerifyDistanceCalls()
			qid := tr.begin("core.findall", root, req)
			ms0 := mt.FindAll(q, fleetEps)
			qd := tr.end(qid)
			split.add(fd, qd, fc, mt.VerifyDistanceCalls()-v0, h, len(ms0),
				len(subseq.Segments(q, fleetWindowLen-1, fleetWindowLen+1))*mt.NumWindows())
			pid := tr.begin("core.pool.findall", root, req)
			if _, err := pools[s].Submit(ctx, q, fleetEps).Await(ctx); err != nil {
				out.fail("probe %d on shard %d's slice in-process: %v", p, s, err)
			}
			pd := tr.end(pid)

			sid := tr.begin(fmt.Sprintf("serve.findall.p%d", s), root, req)
			status, b, err := post(c, f.shards[s].base+"/query/findall", body)
			sd := tr.end(sid)
			if err != nil || status != http.StatusOK {
				out.fail("probe %d on shard %d: status %d, err %v", p, s, status, err)
			}
			httpMs = append(httpMs, ms(sd))
			overhead = append(overhead, ms(sd-pd))
			respBytes = append(respBytes, float64(len(b)))
			slowest = max(slowest, ms(sd))
		}
		gid := tr.begin("gateway.cold", root, req)
		status, b, err := post(c, f.gw.base+"/query/findall", body)
		gd := tr.end(gid)
		want := toWire(single.FindAll(q, fleetEps))
		var r findAllResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(b, &r) != nil || !slices.Equal(r.Matches, want) {
			out.fail("probe %d through the gateway: status %d, err %v, %d matches, single node has %d",
				p, status, err, len(r.Matches), len(want))
		}
		hop = append(hop, ms(gd)-slowest)
		hid := tr.begin("gateway.hit", root, req)
		status, b2, err := post(c, f.gw.base+"/query/findall", body)
		hit = append(hit, ms(tr.end(hid)))
		if err != nil || status != http.StatusOK || string(b2) != string(b) {
			out.fail("probe %d: cached answer differs from the cold one (status %d, err %v)", p, status, err)
		}
		zid := tr.begin("gateway.healthz", root, req)
		if status, _, err := get(c, f.gw.base+"/healthz"); err != nil || status != http.StatusOK {
			out.fail("gateway /healthz: status %d, err %v", status, err)
		}
		healthz = append(healthz, ms(tr.end(zid)))
		nid := tr.begin("gateway.rtt", root, req)
		if status, _, err := get(c, f.gw.base+"/no-such-path"); err != nil || status != http.StatusNotFound {
			out.fail("gateway unknown path: status %d, err %v", status, err)
		}
		rtt = append(rtt, ms(tr.end(nid)))
		tr.end(root)
	}
	split.report(out)
	out.metrics["serve.http_ms"] = median(httpMs)
	out.metrics["serve.overhead_ms"] = median(overhead)
	out.metrics["serve.resp_bytes"] = median(respBytes)
	out.metrics["gateway.hop_ms"] = median(hop)
	out.metrics["gateway.hit_ms"] = median(hit)
	out.metrics["gateway.healthz_ms"] = median(healthz)
	out.metrics["gateway.rtt_ms"] = median(rtt)

	var windowsAll []subseq.Window[byte]
	for _, s := range pool.ds.Sequences {
		windowsAll = append(windowsAll, subseq.Partition(0, s, fleetWindowLen)...)
	}
	fn, bounded, feed := distSample(m, pool.findall, windowsAll, fleetWindowLen, 1, fleetEps)
	out.metrics["dist.fn_ns"] = fn
	out.metrics["dist.bounded_ns"] = bounded
	out.metrics["dist.kernel_feed_ns"] = feed

	// Writes through the gateway and straight to the tail shard, pair by
	// pair in turn, so that both see the same store. (The gateway's plan
	// grows past the sequences appended straight to the shard when its own
	// next append lands.)
	var gwWrites, direct writeTimes
	for range fleetProbeWrites {
		for _, w := range []struct {
			base, layer string
			lat         *writeTimes
		}{{f.gw.base, "gateway", &gwWrites}, {f.shards[len(f.shards)-1].base, "store", &direct}} {
			lat, err := f.writePairs(out, tr, c, pool, w.base, w.layer, 1, 0)
			if err != nil {
				return err
			}
			w.lat.merge(lat)
		}
	}
	out.metrics["store.append_ms"] = median(direct.appends)
	out.metrics["store.retire_ms"] = median(direct.retires)
	out.metrics["gateway.write_fanout_ms"] = median(gwWrites.pairs) - median(direct.pairs)
	return nil
}

// writePairs times append+retire pairs of never-matching sequences sent
// to base, at least minPairs of them and for at least minTime, and checks
// through /stats that every append landed on the tail shard and every
// retire removed its sequence.
func (f *fleet) writePairs(out *outcome, tr *tracer, c *http.Client, pool *fleetPool, base, layer string,
	minPairs int, minTime time.Duration) (writeTimes, error) {
	var lat writeTimes
	before, err := f.snapshotStats(c)
	if err != nil {
		return lat, err
	}
	timed := func(kind opKind, body []byte) (int, []byte, time.Duration, error) {
		id := tr.begin(layer+"."+opNames[kind], -1, -1)
		defer tr.end(id)
		t0 := time.Now()
		status, b, err := post(c, base+"/admin/"+opNames[kind], body)
		out.attempted++
		return status, b, time.Since(t0), err
	}
	rng := rand.New(rand.NewPCG(fleetDataSeed, 0x3e7))
	appended := 0
	start := time.Now()
	for n := 0; n < minPairs || time.Since(start) < minTime; n++ {
		body := pool.alien(rng, 0)
		status, b, ta, err := timed(opAppend, body)
		var ar adminResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(b, &ar) != nil || ar.SeqID == nil {
			lat.add(ta, 0, false)
			out.fail("%s append: status %d, err %v: %.200s", layer, status, err, b)
			continue
		}
		appended++
		status, b, tret, err := timed(opRetire, fmt.Appendf(nil, `{"seq_id":%d}`, *ar.SeqID))
		lat.add(ta, tret, true)
		if err != nil || status != http.StatusOK {
			out.fail("%s retire %d: status %d, err %v: %.200s", layer, *ar.SeqID, status, err, b)
		}
	}
	after, err := f.snapshotStats(c)
	if err != nil {
		return lat, err
	}
	checkStore(out, before, after, appended, layer+" write phase")
	return lat, nil
}

// checkStore confirms through /stats that the tail shard allocated one
// sequence per acknowledged append between before and after, and that
// every shard is back to its live-sequence count: every retire removed its
// sequence.
func checkStore(out *outcome, before, after fleetStats, appends int, what string) {
	tail := len(after.shards) - 1
	if got := after.shards[tail].Store.Sequences - before.shards[tail].Store.Sequences; got != appends {
		out.fail("%s: tail shard allocated %d sequences, %d appends were acknowledged", what, got, appends)
	}
	for i := range after.shards {
		if b, a := before.shards[i].Store.Live, after.shards[i].Store.Live; a != b {
			out.fail("%s: shard %d holds %d live sequences, %d before: a retire did not land", what, i, a, b)
		}
	}
}
