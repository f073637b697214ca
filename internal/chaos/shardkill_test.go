package chaos

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/registry"
)

// Shard kill: a scatter-gather gateway loses one whole shard process
// mid-traffic. The fleet must keep serving — HTTP 200, healthz up — with
// every answer complete over the surviving ranges and the blind spot
// named in a typed degradation block; and before and after the kill,
// answers over live ranges stay bit-identical to a single node. Which
// shard dies and how the fleet is partitioned comes from the suite seed
// (CHAOS_SEED), like every other schedule in this package.

// shardHandler is one shard process for a slice of the database: the
// real serve handler over a live store holding sequences
// [base, base+len(seqs)) of the logical index, re-basing sequence IDs to
// that global range. It returns the handler alone, so scenarios that
// kill and resurrect a replica on a fixed address (the replica-kill
// scenario) can rebind it to fresh listeners.
func shardHandler(t *testing.T, seqs []seq.Sequence[byte], base int) http.Handler {
	t.Helper()
	st, err := store.New(dist.LevenshteinFastMeasure(), core.Config{
		Params: core.Params{Lambda: 40, Lambda0: 1},
	}, seqs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st, registry.ServerSpec{SessionSpec: registry.SessionSpec{
		Dataset: "proteins", Measure: "levenshtein-fast", ShardLo: base, ShardHi: base + len(seqs),
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Handler()
}

func TestChaosShardKill(t *testing.T) {
	rng := NewRand(t, 7)
	base := BaseSeed(t)
	windows := 240
	if testing.Short() {
		windows = 120
	}
	ds := data.Proteins(windows, 20, base)
	numSeqs := len(ds.Sequences)
	if numSeqs < 2 {
		t.Fatalf("dataset generates %d sequences; the scenario needs at least 2", numSeqs)
	}

	// Single-node ground truth over the whole database.
	ref, err := core.NewMatcher(dist.LevenshteinFastMeasure(), core.Config{
		Params: core.Params{Lambda: 40, Lambda0: 1},
	}, ds.Sequences)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]seq.Sequence[byte], 6)
	for i := range qs {
		qs[i] = data.RandomQuery(ds, 60, 0.1, data.MutateAA, base+uint64(500+i))
	}

	// A seed-drawn partition, one shard process per range.
	n := 2 + rng.IntN(min(3, numSeqs-1))
	plan, err := shard.RandomPlan(numSeqs, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plan: %d sequences over %d shards %v", plan.Seqs, len(plan.Ranges), plan.Ranges)
	servers := make([]*httptest.Server, len(plan.Ranges))
	urls := make([]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		servers[i] = httptest.NewServer(shardHandler(t, ds.Sequences[r.Lo:r.Hi], r.Lo))
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	gw, err := shard.NewGateway(plan, urls)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()

	ask := func(q seq.Sequence[byte]) shard.MatchesResponse {
		t.Helper()
		body := `{"query":` + string(mustJSON(t, string(q))) + `,"eps":4}`
		resp, err := http.Post(gts.URL+"/query/findall", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway answered %d, want 200", resp.StatusCode)
		}
		var out shard.MatchesResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	checkMatches := func(qi int, got []shard.Match, want []core.Match) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("query %d: %d matches from fleet, single node %d", qi, len(got), len(want))
		}
		for j, m := range want {
			w := shard.Match{SeqID: m.SeqID, QStart: m.QStart, QEnd: m.QEnd, XStart: m.XStart, XEnd: m.XEnd, Dist: m.Dist}
			if got[j] != w {
				t.Fatalf("query %d match %d: %+v from fleet, single node %+v", qi, j, got[j], w)
			}
		}
	}

	// Healthy fleet: bit-identical to the single node, no degradation.
	for qi, q := range qs {
		out := ask(q)
		if out.Degradation != nil {
			t.Fatalf("healthy fleet reported degradation: %+v", out.Degradation)
		}
		checkMatches(qi, out.Matches, ref.FindAll(q, 4))
	}

	// Kill a seed-chosen shard process outright.
	victim := rng.IntN(len(servers))
	t.Logf("killing shard %d %s", victim, plan.Ranges[victim])
	servers[victim].Close()

	// The fleet keeps serving: every response is a 200 whose degradation
	// block names exactly the dead shard, and whose matches are the
	// single node's answer with the dead range excised.
	for qi, q := range qs {
		out := ask(q)
		if out.Degradation == nil || !out.Degradation.Degraded {
			t.Fatalf("query %d after kill: no degradation reported", qi)
		}
		if len(out.Degradation.Failures) != 1 {
			t.Fatalf("query %d after kill: %d failures, want 1: %+v", qi, len(out.Degradation.Failures), out.Degradation.Failures)
		}
		if f := out.Degradation.Failures[0]; f.Shard != victim || f.Range != plan.Ranges[victim] {
			t.Fatalf("query %d after kill: failure names shard %d %v, want %d %v", qi, f.Shard, f.Range, victim, plan.Ranges[victim])
		}
		var want []core.Match
		for _, m := range ref.FindAll(q, 4) {
			if m.SeqID < plan.Ranges[victim].Lo || m.SeqID >= plan.Ranges[victim].Hi {
				want = append(want, m)
			}
		}
		checkMatches(qi, out.Matches, want)
	}

	// The gateway itself stays healthy while any shard survives.
	resp, err := http.Get(gts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz %d after losing one shard, want 200", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
