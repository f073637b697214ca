package chaos

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
	"repro/internal/shard"
)

// Cache storm: a replicated gateway with the result cache enabled takes
// a hot-key query storm (few distinct queries, many concurrent clients
// — the cache's best case and the single-flight's worst) while a
// replica dies and admin writes mutate the database through the
// gateway's own fan-out. The invariant under all of that churn is the
// cache's correctness contract: no response may ever be stale past an
// acknowledged write. Each reader brackets its request with two
// write-generation counters — acked writes before the request MUST be
// visible, writes merely started before the response MAY be — so every
// single answer is checked against the exact set of database states it
// is allowed to reflect. A cached answer surviving an epoch bump, a
// single-flight leader publishing a pre-write answer to post-write
// waiters, or a flush racing the epoch would all surface as an answer
// matching no admissible generation.
//
// The storm ends with the books balanced: no leaked single-flight
// futures, cache and flight counters consistent with each other and
// with the query counter, the epoch equal to the write count, and the
// killed replica's breaker closed again.

func TestChaosCacheStorm(t *testing.T) {
	rng := NewRand(t, 17)
	base := BaseSeed(t)
	windows := 160
	if testing.Short() {
		windows = 100
	}
	ds := data.Proteins(windows, 20, base)
	numSeqs := len(ds.Sequences)
	if numSeqs < 2 {
		t.Fatalf("dataset generates %d sequences; the scenario needs at least 2", numSeqs)
	}

	// The mutable single-node reference: every admin write the gateway
	// fans out is applied here too (by the writer goroutine, between its
	// own FindAll calls — never concurrently with them), and the answer
	// after each write is frozen into wants[qi][generation].
	ref, err := core.NewMatcher(dist.LevenshteinFastMeasure(), core.Config{
		Params: core.Params{Lambda: 40, Lambda0: 1},
	}, ds.Sequences)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 4
	queries := make([]seq.Sequence[byte], 3)
	for i := range queries {
		queries[i] = data.RandomQuery(ds, 60, 0.1, data.MutateAA, base+uint64(1700+i))
	}
	snapshot := func(q seq.Sequence[byte]) []shard.Match {
		ms := ref.FindAll(q, eps)
		out := make([]shard.Match, len(ms))
		for i, m := range ms {
			out[i] = shard.Match{SeqID: m.SeqID, QStart: m.QStart, QEnd: m.QEnd,
				XStart: m.XStart, XEnd: m.XEnd, Dist: m.Dist}
		}
		return out
	}

	// The write schedule: append each hot query's own sequence (so its
	// answer provably changes — an exact match at distance 0 appears),
	// then retire it again (the answer provably reverts). Every write
	// targets the tail range, whose replicas all stay alive; the replica
	// we kill serves a range no write touches, so replicas never diverge.
	const totalWrites = 6
	wants := make([][][]shard.Match, len(queries))
	for qi := range wants {
		wants[qi] = make([][]shard.Match, totalWrites+1)
		wants[qi][0] = snapshot(queries[qi])
	}

	plan, err := shard.RandomPlan(numSeqs, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plan: %d sequences over %d ranges %v, 2 replicas each", plan.Seqs, len(plan.Ranges), plan.Ranges)
	const replicasPerRange = 2
	procs := make([][]*replicaProcess, len(plan.Ranges))
	groups := make([][]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		for j := 0; j < replicasPerRange; j++ {
			p, err := startReplica(shardHandler(t, ds.Sequences[r.Lo:r.Hi], r.Lo))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.kill)
			procs[i] = append(procs[i], p)
			groups[i] = append(groups[i], "http://"+p.addr)
		}
	}
	gw, err := shard.NewReplicatedGateway(plan, groups,
		// Sized so no hot answer can trip the per-segment byte budget —
		// an oversized (uncacheable) answer would zero the hit counter.
		shard.WithCache(64<<20, 0),
		shard.WithProbeInterval(25*time.Millisecond),
		shard.WithBreaker(3, 150*time.Millisecond),
		shard.WithHedgeAfter(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	stopProbing := gw.StartProbing()
	defer stopProbing()
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	// Write-generation counters. started counts writes handed to the
	// gateway; acked counts writes it acknowledged (and therefore
	// invalidated the cache for). wants[qi][g] is published before
	// started reaches g, so a reader loading the counters around its
	// request may safely index every generation in [acked, started].
	var started, acked atomic.Int64

	var (
		stop     atomic.Bool
		served   atomic.Int64
		errsMu   sync.Mutex
		firstErr error
	)
	report := func(err error) {
		errsMu.Lock()
		if firstErr == nil {
			firstErr = err
			stop.Store(true)
		}
		errsMu.Unlock()
	}
	matchesEqual := func(got, want []shard.Match) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// The storm: pairs of goroutines per hot query, so the single-flight
	// and the cache both stay under contention on every key. Each answer
	// must be bit-identical to the reference at SOME admissible write
	// generation — anything else is a stale or corrupted answer.
	var wg sync.WaitGroup
	for gi := 0; gi < 2*len(queries); gi++ {
		qi := gi % len(queries)
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			body := `{"query":` + string(mustJSON(t, string(queries[qi]))) + `,"eps":4}`
			for !stop.Load() {
				lo := acked.Load()
				resp, err := client.Post(gts.URL+"/query/findall", "application/json", strings.NewReader(body))
				if err != nil {
					report(fmt.Errorf("query %d: %w", qi, err))
					return
				}
				var out shard.MatchesResponse
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				hi := started.Load()
				switch {
				case resp.StatusCode != http.StatusOK:
					report(fmt.Errorf("query %d: HTTP %d", qi, resp.StatusCode))
					return
				case derr != nil:
					report(fmt.Errorf("query %d: decode: %w", qi, derr))
					return
				case out.Degradation != nil:
					report(fmt.Errorf("query %d: replica loss leaked as degradation: %+v", qi, out.Degradation))
					return
				}
				admissible := false
				for g := lo; g <= hi; g++ {
					if matchesEqual(out.Matches, wants[qi][g]) {
						admissible = true
						break
					}
				}
				if !admissible {
					report(fmt.Errorf("query %d: stale answer: %d matches, admissible generations [%d,%d]",
						qi, len(out.Matches), lo, hi))
					return
				}
				served.Add(1)
			}
		}(qi)
	}

	breakerState := func(ri, pi int) string {
		resp, err := client.Get(gts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h shard.HealthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Ranges[ri].Replicas[pi].Breaker.State
	}
	waitForState := func(ri, pi int, state string, deadline time.Duration) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if stop.Load() {
				return // traffic already failed; surface that error instead
			}
			if breakerState(ri, pi) == state {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("replica %d/%d breaker never reached %q", ri, pi, state)
	}

	// Warm the cache with the full fleet, then kill a seed-chosen replica
	// of the range the writes will NOT touch, and wait for the breaker to
	// notice — the writes below run against a degraded-but-masked fleet.
	time.Sleep(150 * time.Millisecond)
	pi := rng.IntN(replicasPerRange)
	t.Logf("killing replica %d of range 0 %s", pi, plan.Ranges[0])
	procs[0][pi].kill()
	waitForState(0, pi, "open", 10*time.Second)

	// The writes, fanned through the gateway while the storm runs. Each
	// publishes the post-write reference answer BEFORE the gateway sees
	// the write, then bumps started/acked around it.
	adminPost := func(path, body string) shard.AdminFanoutResponse {
		t.Helper()
		resp, err := client.Post(gts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ar shard.AdminFanoutResponse
		if resp.StatusCode != http.StatusOK {
			var er shard.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, er.Error)
		}
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}
	appended := -1
	for g := 0; g < totalWrites; g++ {
		if stop.Load() {
			break // a reader already failed; fall through to its error
		}
		qi := (g / 2) % len(queries)
		var ar shard.AdminFanoutResponse
		if g%2 == 0 {
			// Append the hot query's own sequence: its answer gains an
			// exact match, so serving the pre-write answer is detectable.
			refID, _, err := ref.AppendSequence(queries[qi])
			if err != nil {
				t.Fatal(err)
			}
			appended = refID
			for q := range queries {
				wants[q][g+1] = snapshot(queries[q])
			}
			started.Add(1)
			ar = adminPost("/admin/append", `{"sequence":`+string(mustJSON(t, string(queries[qi])))+`}`)
			if ar.SeqID == nil || *ar.SeqID != refID {
				t.Fatalf("write %d: fleet allocated seq %v, reference %d", g, ar.SeqID, refID)
			}
		} else {
			// Retire it again: the answer reverts, which is equally
			// detectable — a cached post-append answer is now stale.
			if _, err := ref.RetireSequence(appended); err != nil {
				t.Fatal(err)
			}
			for q := range queries {
				wants[q][g+1] = snapshot(queries[q])
			}
			started.Add(1)
			ar = adminPost("/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, appended))
		}
		if ar.Acks != replicasPerRange || !ar.Quorum || ar.Diverged {
			t.Fatalf("write %d fan-out: %+v", g, ar)
		}
		if ar.Epoch != uint64(g+1) {
			t.Fatalf("write %d: epoch %d, want %d", g, ar.Epoch, g+1)
		}
		acked.Add(1)
		time.Sleep(30 * time.Millisecond)
	}

	// Resurrect the killed replica; the prober must re-admit it while the
	// storm still runs against the fully mutated database.
	if err := procs[0][pi].restart(); err != nil {
		t.Fatal(err)
	}
	waitForState(0, pi, "closed", 10*time.Second)
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	errsMu.Lock()
	if firstErr != nil {
		errsMu.Unlock()
		t.Fatal(firstErr)
	}
	errsMu.Unlock()
	if served.Load() == 0 {
		t.Fatal("storm served no traffic")
	}

	// Settled fleet: every query answers exactly the final generation —
	// acked == started == totalWrites, so nothing else is admissible.
	for qi, q := range queries {
		body := `{"query":` + string(mustJSON(t, string(q))) + `,"eps":4}`
		resp, err := client.Post(gts.URL+"/query/findall", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out shard.MatchesResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !matchesEqual(out.Matches, wants[qi][totalWrites]) {
			t.Fatalf("settled query %d: %d matches, want %d (final generation)",
				qi, len(out.Matches), len(wants[qi][totalWrites]))
		}
	}

	// The books must balance. No leaked single-flight futures; the epoch
	// is exactly the write count; every request either hit the cache or
	// went through the single-flight group, with no third path.
	if n := gw.PendingFlights(); n != 0 {
		t.Fatalf("%d single-flight futures leaked", n)
	}
	if e := gw.Epoch(); e != totalWrites {
		t.Fatalf("epoch %d after %d writes", e, totalWrites)
	}
	resp, err := client.Get(gts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats shard.GatewayStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache == nil {
		t.Fatal("/stats reports no cache block with the cache enabled")
	}
	cs := *stats.Cache
	if cs.Hits == 0 {
		t.Fatal("hot-key storm never hit the cache")
	}
	if cs.Invalidations == 0 {
		t.Fatalf("%d writes invalidated nothing", totalWrites)
	}
	if got := cs.Hits + cs.Misses; got != stats.Gateway.Queries {
		t.Fatalf("counter books: cache hits+misses %d, queries %d", got, stats.Gateway.Queries)
	}
	sf := stats.Gateway.SingleFlight
	if got := sf.Hits + sf.Misses; got != cs.Misses {
		t.Fatalf("counter books: flight hits+misses %d, cache misses %d", got, cs.Misses)
	}
	if stats.Gateway.Writes != totalWrites {
		t.Fatalf("writes counter %d after %d writes", stats.Gateway.Writes, totalWrites)
	}
	t.Logf("%d answers served, %d cache hits, %d invalidated entries, %d flight joins",
		served.Load(), cs.Hits, cs.Invalidations, sf.Hits)
}
