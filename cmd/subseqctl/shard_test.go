package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/registry"
)

// --- Cross-shard equivalence: the PR's central claim. A scatter-gather
// fleet over any partition of the database must answer every query type
// bit-identically to a single node over the same windows, on all four
// backends, for randomized shard counts and split points. ---

// startShardFleet builds an in-process fleet: one serving stack per plan
// range (the session spec's shard_lo/shard_hi select the slice), each
// behind an httptest.Server, and a gateway scattered over them. Returns
// the gateway's test server.
func startShardFleet(t *testing.T, base registry.SessionSpec, plan shard.Plan) *httptest.Server {
	t.Helper()
	urls := make([]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		spec := base
		spec.ShardLo, spec.ShardHi = r.Lo, r.Hi
		ts, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
		urls[i] = ts.URL
	}
	gw, err := shard.NewGateway(plan, urls)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	return gts
}

func toShardMatch(m core.Match) shard.Match {
	return shard.Match{SeqID: m.SeqID, QStart: m.QStart, QEnd: m.QEnd, XStart: m.XStart, XEnd: m.XEnd, Dist: m.Dist}
}

func toShardMatches(ms []core.Match) []shard.Match {
	out := make([]shard.Match, len(ms))
	for i, m := range ms {
		out[i] = toShardMatch(m)
	}
	return out
}

func toShardHits(hs []core.Hit[byte]) []shard.Hit {
	out := make([]shard.Hit, len(hs))
	for i, h := range hs {
		out[i] = shard.Hit{
			SeqID: h.Window.SeqID, WindowStart: h.Window.Start, WindowEnd: h.Window.End(),
			SegStart: h.Segment.Start, SegEnd: h.Segment.End(),
		}
	}
	return out
}

// equivWindows sizes the equivalence datasets: 100 windows generate five
// protein sequences, enough for 2–4 shard partitions with varied splits.
const equivWindows = 100

func TestCrossShardEquivalence(t *testing.T) {
	spec := newSpec("proteins", "levenshtein-fast", "")
	spec.Windows = equivWindows
	ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	numSeqs := len(ds.Sequences)
	if numSeqs < 3 {
		t.Fatalf("dataset generates only %d sequences; the sweep needs at least 3", numSeqs)
	}
	// Query set: verbatim subsequences of different database sequences (so
	// matches exist, including exact dist-0 ties) plus a mutated stranger.
	queries := []string{
		string(ds.Sequences[0][:16]),
		string(ds.Sequences[numSeqs-1][:16]),
		strings.Repeat("WYAC", 5),
	}
	radii := []float64{2, 5}

	for _, backend := range []string{"refnet", "covertree", "mv", "linear"} {
		spec := newSpec("proteins", "levenshtein-fast", backend)
		spec.Windows = equivWindows
		mt, _, err := registry.NewMatcher[byte](spec)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", backend, trial), func(t *testing.T) {
				// Deterministic "random" topology, logged so any failure
				// names the exact partition that produced it.
				rng := rand.New(rand.NewPCG(11, uint64(trial)))
				n := 2 + rng.IntN(min(3, numSeqs-1))
				plan, err := shard.RandomPlan(numSeqs, n, rng)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("plan: %d sequences over %d shards %v", plan.Seqs, len(plan.Ranges), plan.Ranges)
				gts := startShardFleet(t, spec, plan)

				for qi, q := range queries {
					for _, eps := range radii {
						body := fmt.Sprintf(`{"query":%q,"eps":%g}`, q, eps)

						var fa shard.MatchesResponse
						if code := postJSON(t, gts, "/query/findall", body, &fa); code != http.StatusOK {
							t.Fatalf("findall status %d", code)
						}
						if fa.Degradation != nil {
							t.Fatalf("healthy fleet reported degradation: %+v", fa.Degradation)
						}
						want := toShardMatches(mt.FindAll([]byte(q), eps))
						if !reflect.DeepEqual(fa.Matches, want) {
							t.Fatalf("findall(q%d, eps=%g): gateway %v, single node %v", qi, eps, fa.Matches, want)
						}

						var fl shard.HitsResponse
						if code := postJSON(t, gts, "/query/filter", body, &fl); code != http.StatusOK {
							t.Fatalf("filter status %d", code)
						}
						wantHits := toShardHits(mt.FilterHits([]byte(q), eps))
						shard.SortHits(wantHits)
						if !reflect.DeepEqual(fl.Hits, wantHits) {
							t.Fatalf("filter(q%d, eps=%g): gateway %v, single node %v", qi, eps, fl.Hits, wantHits)
						}

						var lg shard.BestResponse
						if code := postJSON(t, gts, "/query/longest", body, &lg); code != http.StatusOK {
							t.Fatalf("longest status %d", code)
						}
						wm, wok := mt.Longest([]byte(q), eps)
						if lg.Found != wok {
							t.Fatalf("longest(q%d, eps=%g): gateway found=%v, single node %v", qi, eps, lg.Found, wok)
						}
						if wok && *lg.Match != toShardMatch(wm) {
							t.Fatalf("longest(q%d, eps=%g): gateway %+v, single node %+v", qi, eps, *lg.Match, wm)
						}

						var nr shard.BestResponse
						nbody := fmt.Sprintf(`{"query":%q,"eps_max":%g}`, q, eps)
						if code := postJSON(t, gts, "/query/nearest", nbody, &nr); code != http.StatusOK {
							t.Fatalf("nearest status %d", code)
						}
						nm, nok := mt.Nearest([]byte(q), core.NearestOptions{EpsMax: eps, EpsInc: eps / 16})
						if nr.Found != nok {
							t.Fatalf("nearest(q%d, eps_max=%g): gateway found=%v, single node %v", qi, eps, nr.Found, nok)
						}
						if nok && *nr.Match != toShardMatch(nm) {
							t.Fatalf("nearest(q%d, eps_max=%g): gateway %+v, single node %+v", qi, eps, *nr.Match, nm)
						}
					}
				}

				// The batch endpoint merges per-query-index: one request
				// carrying every query must answer exactly like the
				// per-query endpoints did.
				qjson := make([]string, len(queries))
				for i, q := range queries {
					qjson[i] = fmt.Sprintf("%q", q)
				}
				batch := fmt.Sprintf(`{"kind":"findall","queries":[%s],"eps":5}`, strings.Join(qjson, ","))
				var br shard.BatchResponse
				if code := postJSON(t, gts, "/query/batch", batch, &br); code != http.StatusOK {
					t.Fatalf("batch status %d", code)
				}
				if br.Count != len(queries) || len(br.Matches) != len(queries) {
					t.Fatalf("batch answered %d/%d queries", br.Count, len(queries))
				}
				for i, q := range queries {
					want := toShardMatches(mt.FindAll([]byte(q), 5))
					if !reflect.DeepEqual(br.Matches[i], want) {
						t.Fatalf("batch query %d: gateway %v, single node %v", i, br.Matches[i], want)
					}
				}
			})
		}
	}
}

// A fleet with a dead shard keeps serving: answers carry a degradation
// block naming the blind spot, and the surviving shards' results are
// still exact over their ranges.
func TestGatewayDegradedShard(t *testing.T) {
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	spec.Windows = equivWindows
	ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	numSeqs := len(ds.Sequences)
	plan, err := shard.Partition(numSeqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 is live; shard 1 is a closed server (connection refused).
	live := spec
	live.ShardLo, live.ShardHi = plan.Ranges[0].Lo, plan.Ranges[0].Hi
	ts, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: live, Workers: 2, QueueDepth: 16}, "")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	gw, err := shard.NewGateway(plan, []string{ts.URL, dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()

	q := string(ds.Sequences[0][:16])
	var fa shard.MatchesResponse
	if code := postJSON(t, gts, "/query/findall", fmt.Sprintf(`{"query":%q,"eps":2}`, q), &fa); code != http.StatusOK {
		t.Fatalf("degraded findall status %d, want 200", code)
	}
	if fa.Degradation == nil || !fa.Degradation.Degraded || len(fa.Degradation.Failures) != 1 {
		t.Fatalf("degradation block missing or wrong: %+v", fa.Degradation)
	}
	if f := fa.Degradation.Failures[0]; f.Shard != 1 || f.Range != plan.Ranges[1] {
		t.Fatalf("failure names shard %d range %v, want shard 1 range %v", f.Shard, f.Range, plan.Ranges[1])
	}
	// The surviving shard's answer is exact over its own range: a single
	// node restricted to that slice must agree bit for bit.
	mt, _, err := registry.NewMatcher[byte](live)
	if err != nil {
		t.Fatal(err)
	}
	want := toShardMatches(mt.FindAll([]byte(q), 2))
	if !reflect.DeepEqual(fa.Matches, want) {
		t.Fatalf("degraded answer %v, surviving slice answers %v", fa.Matches, want)
	}
}

// --- Batch endpoint: many queries per request must route through the
// matcher's batched entry points (one FilterHitsBatch call per request),
// not one call per query — the tally counters on /stats prove it. ---

func TestServeBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")
	ds, err := registry.GenerateDataset[byte]("proteins", 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		string(ds.Sequences[0][:16]),
		string(ds.Sequences[1][:16]),
		string(ds.Sequences[0][20:34]),
	}
	qjson := make([]string, len(queries))
	for i, q := range queries {
		qjson[i] = fmt.Sprintf("%q", q)
	}
	qlist := strings.Join(qjson, ",")

	var fa shard.BatchResponse
	if code := postJSON(t, ts, "/query/batch", `{"kind":"findall","queries":[`+qlist+`],"eps":3}`, &fa); code != http.StatusOK {
		t.Fatalf("findall batch status %d", code)
	}
	var lg shard.BatchResponse
	if code := postJSON(t, ts, "/query/batch", `{"kind":"longest","queries":[`+qlist+`],"eps":3}`, &lg); code != http.StatusOK {
		t.Fatalf("longest batch status %d", code)
	}
	var fl shard.BatchResponse
	if code := postJSON(t, ts, "/query/batch", `{"kind":"filter","queries":[`+qlist+`],"eps":3}`, &fl); code != http.StatusOK {
		t.Fatalf("filter batch status %d", code)
	}

	// Three batch requests of three queries each, and nothing else, have
	// touched this server: exactly 3 batched calls carrying 9 queries —
	// ≥ 2 queries per traversal, which is the endpoint's whole point.
	var st serve.StatsResponse
	getJSON(t, ts, "/stats", &st)
	if st.Batch.Calls != 3 || st.Batch.Queries != 9 {
		t.Fatalf("batch tallies calls=%d queries=%d, want 3 and 9", st.Batch.Calls, st.Batch.Queries)
	}

	// Batch answers are bit-identical to the per-query endpoints.
	for i, q := range queries {
		body := fmt.Sprintf(`{"query":%q,"eps":3}`, q)
		var one shard.MatchesResponse
		postJSON(t, ts, "/query/findall", body, &one)
		if !reflect.DeepEqual(fa.Matches[i], one.Matches) {
			t.Fatalf("batch findall query %d: %v, endpoint %v", i, fa.Matches[i], one.Matches)
		}
		var best shard.BestResponse
		postJSON(t, ts, "/query/longest", body, &best)
		if lg.Best[i].Found != best.Found {
			t.Fatalf("batch longest query %d: found=%v, endpoint %v", i, lg.Best[i].Found, best.Found)
		}
		if best.Found && *lg.Best[i].Match != (shard.Match{SeqID: best.Match.SeqID, QStart: best.Match.QStart, QEnd: best.Match.QEnd, XStart: best.Match.XStart, XEnd: best.Match.XEnd, Dist: best.Match.Dist}) {
			t.Fatalf("batch longest query %d: %+v, endpoint %+v", i, *lg.Best[i].Match, *best.Match)
		}
		var hits shard.HitsResponse
		postJSON(t, ts, "/query/filter", body, &hits)
		if len(fl.Hits[i]) != len(hits.Hits) {
			t.Fatalf("batch filter query %d: %d hits, endpoint %d", i, len(fl.Hits[i]), len(hits.Hits))
		}
	}
}

func TestServeBatchValidation(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")
	cases := []string{
		`{"kind":"nearest","queries":["ACDEFG"],"eps":1}`, // no batched nearest
		`{"kind":"findall","queries":[],"eps":1}`,         // empty batch
		`{"kind":"findall","queries":["AC"]}`,             // missing eps
		`{"kind":"findall","queries":["AC"],"eps":-1}`,    // negative eps
		`{"kind":"findall","queries":[[1,2]],"eps":1}`,    // wrong element encoding
		`not json`,
	}
	for _, body := range cases {
		var er shard.ErrorResponse
		if code := postJSON(t, ts, "/query/batch", body, &er); code != http.StatusBadRequest {
			t.Errorf("batch %s: status %d, want 400", body, code)
		} else if er.Error == "" {
			t.Errorf("batch %s: empty error body", body)
		}
	}
	// A bad query names its index.
	var er shard.ErrorResponse
	postJSON(t, ts, "/query/batch", `{"kind":"findall","queries":["ACDEFG",[1]],"eps":1}`, &er)
	if !strings.Contains(er.Error, "query 1") {
		t.Errorf("bad query error %q does not name the query index", er.Error)
	}
}

// --- Multi-session routing: several named sessions in one process. ---

func TestServeMultiSession(t *testing.T) {
	buildServer := func(name, dataset, measure string) mountedSession {
		t.Helper()
		spec := newSpec(dataset, measure, "refnet")
		s, err := newSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := s.newServer(registry.ServerSpec{SessionSpec: spec, Name: name, Workers: 2, QueueDepth: 16}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(qs.Close)
		return mountedSession{name: name, qs: qs}
	}
	alpha := buildServer("alpha", "proteins", "levenshtein-fast")
	beta := buildServer("beta", "songs", "dfd")
	ts := httptest.NewServer(multiSessionMux([]mountedSession{alpha, beta}))
	defer ts.Close()

	// GET /sessions lists both, in mount order, with their configs.
	var listing []sessionListing
	if code := getJSON(t, ts, "/sessions", &listing); code != http.StatusOK {
		t.Fatalf("/sessions status %d", code)
	}
	if len(listing) != 2 || listing[0].Name != "alpha" || listing[1].Name != "beta" {
		t.Fatalf("listing = %+v", listing)
	}
	if listing[0].Path != "/s/alpha/" || listing[1].Config.Dataset.Name != "songs" {
		t.Fatalf("listing paths/configs wrong: %+v", listing)
	}

	// Each session answers under its own mount, with its own element type.
	var fa shard.MatchesResponse
	if code := postJSON(t, ts, "/s/alpha/query/findall", `{"query":"ACDEFGHIKLMNPQRS","eps":6}`, &fa); code != http.StatusOK {
		t.Fatalf("alpha findall status %d", code)
	}
	var fl shard.HitsResponse
	if code := postJSON(t, ts, "/s/beta/query/filter", `{"query":[1,2,3,4,5,6,7,8,9,10,11,0,1,2],"eps":4}`, &fl); code != http.StatusOK {
		t.Fatalf("beta filter status %d", code)
	}
	// A byte-typed query against the float64 session is that session's
	// 400, proving per-session decoding.
	var er shard.ErrorResponse
	if code := postJSON(t, ts, "/s/beta/query/findall", `{"query":"ACDEFG","eps":1}`, &er); code != http.StatusBadRequest {
		t.Fatalf("mistyped beta query status %d, want 400", code)
	}

	// Legacy root routes are the first session's: the same byte query that
	// worked under /s/alpha/ works at the root.
	var rootFA shard.MatchesResponse
	if code := postJSON(t, ts, "/query/findall", `{"query":"ACDEFGHIKLMNPQRS","eps":6}`, &rootFA); code != http.StatusOK {
		t.Fatalf("root findall status %d", code)
	}
	if rootFA.Count != fa.Count {
		t.Fatalf("root answers %d matches, /s/alpha/ answered %d", rootFA.Count, fa.Count)
	}

	// Per-session stats surface each session's own config.
	var st serve.StatsResponse
	if code := getJSON(t, ts, "/s/beta/stats", &st); code != http.StatusOK {
		t.Fatalf("beta stats status %d", code)
	}
	if st.Config.Dataset.Name != "songs" || st.Config.Name != "beta" {
		t.Fatalf("beta stats config = %+v", st.Config)
	}

	// Unknown sessions are 404s.
	resp, err := http.Post(ts.URL+"/s/nope/query/findall", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d, want 404", resp.StatusCode)
	}
}

// --- Session flag / config parsing. ---

func TestParseSessionFlag(t *testing.T) {
	spec, err := parseSessionFlag("name=p1,dataset=proteins,windows=300,windowlen=8,seed=7,shard_lo=3,shard_hi=9,workers=2,queue=32,shed=reject,request_timeout=2s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "p1" || spec.Dataset != "proteins" || spec.Windows != 300 ||
		spec.WindowLen != 8 || spec.Seed != 7 || spec.ShardLo != 3 || spec.ShardHi != 9 ||
		spec.Workers != 2 || spec.QueueDepth != 32 || spec.Shed != "reject" ||
		spec.RequestTimeout != 2*time.Second {
		t.Fatalf("parsed spec %+v", spec)
	}
	for _, bad := range []string{
		"name=x",                                // missing dataset
		"dataset=proteins,windows=a",            // bad int
		"dataset=proteins,frobnicate=1",         // unknown key
		"dataset=proteins,shard_lo",             // not key=value
		"dataset=proteins,seed=-1",              // bad uint
		"dataset=proteins,request_timeout=fast", // bad duration
	} {
		if _, err := parseSessionFlag(bad); err == nil {
			t.Errorf("parseSessionFlag(%q) accepted", bad)
		}
	}
	// Windows defaults so a minimal -session flag is usable.
	spec, err = parseSessionFlag("dataset=songs")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Windows != 2000 {
		t.Fatalf("windows default = %d, want 2000", spec.Windows)
	}
}

func TestServeSpecsSources(t *testing.T) {
	legacy := registry.ServerSpec{SessionSpec: newSpec("proteins", "", "refnet")}
	// Neither -config nor -session: the legacy single session.
	specs, err := serveSpecs("", nil, legacy)
	if err != nil || len(specs) != 1 || specs[0].Dataset != "proteins" {
		t.Fatalf("legacy fallback = %+v (%v)", specs, err)
	}
	// Both given: refused.
	if _, err := serveSpecs("x.json", stringList{"dataset=songs"}, legacy); err == nil {
		t.Fatal("-config and -session together accepted")
	}
	// A config file round-trips, and unknown fields are rejected.
	dir := t.TempDir()
	good := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(good, []byte(`[
		{"name":"p0","dataset":"proteins","windows":100,"window_len":8,"shard_lo":0,"shard_hi":4},
		{"name":"p1","dataset":"proteins","windows":100,"window_len":8,"shard_lo":4,"shard_hi":8}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err = serveSpecs(good, nil, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].ShardLo != 4 || specs[0].Name != "p0" {
		t.Fatalf("config specs = %+v", specs)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"dataset":"proteins","shards":3}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serveSpecs(bad, nil, legacy); err == nil {
		t.Fatal("unknown config field accepted")
	}
	if _, err := serveSpecs(filepath.Join(dir, "missing.json"), nil, legacy); err == nil {
		t.Fatal("missing config file accepted")
	}
}

// --- Gateway CLI plumbing: the -ranges flag and /stats discovery. ---

func TestPlanFromFlag(t *testing.T) {
	plan, err := planFromFlag("0-3,3-6")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seqs != 6 || len(plan.Ranges) != 2 || plan.Ranges[1] != (shard.Range{Lo: 3, Hi: 6}) {
		t.Fatalf("plan = %+v", plan)
	}
	for _, bad := range []string{"", "0-3,4-6", "3", "a-b", "0-3,3-2"} {
		if _, err := planFromFlag(bad); err == nil {
			t.Errorf("planFromFlag(%q) accepted", bad)
		}
	}
}

func TestDiscoverPlan(t *testing.T) {
	statsServer := func(lo, hi, seqs int) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"config":{"shard_lo":%d,"shard_hi":%d},"store":{"sequences":%d}}`, lo, hi, seqs)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	httpGet := func(ctx context.Context, url string) (*http.Response, error) { return http.Get(url) }

	// A sharded fleet describes its own plan.
	a, b := statsServer(0, 4, 4), statsServer(4, 9, 5)
	plan, err := discoverPlan([][]string{{a.URL}, {b.URL}}, httpGet)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seqs != 9 || plan.Ranges[1] != (shard.Range{Lo: 4, Hi: 9}) {
		t.Fatalf("discovered plan %+v", plan)
	}
	// An unsharded fleet stacks by sequence count.
	c, d := statsServer(0, 0, 3), statsServer(0, 0, 2)
	plan, err = discoverPlan([][]string{{c.URL}, {d.URL}}, httpGet)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seqs != 5 || plan.Ranges[1] != (shard.Range{Lo: 3, Hi: 5}) {
		t.Fatalf("stacked plan %+v", plan)
	}
	// A mixed fleet is ambiguous.
	if _, err := discoverPlan([][]string{{a.URL}, {c.URL}}, httpGet); err == nil {
		t.Fatal("mixed fleet accepted")
	}
	// A gapped sharded fleet is rejected by plan validation.
	e := statsServer(5, 9, 4)
	if _, err := discoverPlan([][]string{{a.URL}, {e.URL}}, httpGet); err == nil {
		t.Fatal("gapped fleet accepted")
	}

	// A replica set speaks through whichever member answers: with one
	// replica dead, discovery still succeeds off the live one.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	plan, err = discoverPlan([][]string{{dead.URL, a.URL}, {b.URL}}, httpGet)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seqs != 9 {
		t.Fatalf("replicated discovery plan %+v", plan)
	}
	// Every replica dead fails discovery for the range.
	if _, err := discoverPlan([][]string{{dead.URL}, {b.URL}}, httpGet); err == nil {
		t.Fatal("all-dead replica set accepted")
	}
	// Replicas that answer must agree on their slice.
	if _, err := discoverPlan([][]string{{a.URL, b.URL}}, httpGet); err == nil {
		t.Fatal("disagreeing replicas accepted")
	}
}

func TestReplicaGroups(t *testing.T) {
	groups, err := replicaGroups([]string{"a", "b", "c", "d"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a", "b"}, {"c", "d"}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	// One comma-separated entry per range is the explicit spelling.
	groups, err = replicaGroups([]string{"a, b", "c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want = [][]string{{"a", "b"}, {"c"}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("explicit groups = %v, want %v", groups, want)
	}
	if _, err := replicaGroups([]string{"a", "b", "c"}, 2); err == nil {
		t.Fatal("accepted URL count not divisible by -replicas")
	}
	if _, err := replicaGroups([]string{"a,b"}, 2); err == nil {
		t.Fatal("accepted comma entries combined with -replicas > 1")
	}
	if _, err := replicaGroups([]string{"a,,b"}, 1); err == nil {
		t.Fatal("accepted empty replica URL")
	}
	if _, err := replicaGroups([]string{"a"}, 0); err == nil {
		t.Fatal("accepted -replicas 0")
	}
}

// TestShardSmokeBinary is the sharding end-to-end smoke CI runs via
// `make shard-smoke`: two real shard serve processes, a real gateway
// discovering the plan from their /stats, per-kind and batch queries
// through the gateway (findall checked bit-identical against the
// library), then one shard killed outright — the warm query must keep
// answering undegraded from the result cache, a cold query must keep
// answering 200 with the dead shard named in the degradation block, and
// the gateway must still shut down cleanly on SIGTERM.
func TestShardSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildSubseqctl(t)
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	spec.Windows = equivWindows
	ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	numSeqs := len(ds.Sequences)
	cut := numSeqs / 2
	session := func(name string, lo, hi int) string {
		return fmt.Sprintf("name=%s,dataset=proteins,windows=%d,windowlen=%d,seed=%d,shard_lo=%d,shard_hi=%d,workers=2",
			name, spec.Windows, spec.WindowLen, spec.Seed, lo, hi)
	}
	cmdA, baseA := startServeBinary(t, bin, "-addr", "127.0.0.1:0", "-session", session("p0", 0, cut))
	defer cmdA.Process.Kill()
	cmdB, baseB := startServeBinary(t, bin, "-addr", "127.0.0.1:0", "-session", session("p1", cut, numSeqs))
	defer cmdB.Process.Kill()
	gwCmd, gwBase := startBinary(t, bin, "gateway",
		"-addr", "127.0.0.1:0", "-attempts", "2",
		"-shard", baseA, "-shard", baseB)
	defer gwCmd.Process.Kill()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := client.Post(gwBase+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
		return resp.StatusCode
	}

	q0, q1 := string(ds.Sequences[0][:16]), string(ds.Sequences[numSeqs-1][:16])
	body := fmt.Sprintf(`{"query":%q,"eps":3}`, q0)

	// Per-kind queries through the gateway; findall against the library.
	mt, _, err := registry.NewMatcher[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	var fa shard.MatchesResponse
	if code := post("/query/findall", body, &fa); code != http.StatusOK {
		t.Fatalf("findall status %d", code)
	}
	if fa.Degradation != nil {
		t.Fatalf("healthy fleet degraded: %+v", fa.Degradation)
	}
	if want := toShardMatches(mt.FindAll([]byte(q0), 3)); !reflect.DeepEqual(fa.Matches, want) {
		t.Fatalf("findall through fleet %v, single node %v", fa.Matches, want)
	}
	var lg shard.BestResponse
	if code := post("/query/longest", body, &lg); code != http.StatusOK || !lg.Found {
		t.Fatalf("longest status %d found %v", code, lg.Found)
	}
	var nr shard.BestResponse
	if code := post("/query/nearest", fmt.Sprintf(`{"query":%q,"eps_max":3}`, q0), &nr); code != http.StatusOK || !nr.Found {
		t.Fatalf("nearest status %d found %v", code, nr.Found)
	}
	var fl shard.HitsResponse
	if code := post("/query/filter", body, &fl); code != http.StatusOK || fl.Count == 0 {
		t.Fatalf("filter status %d count %d", code, fl.Count)
	}
	// A batch of two queries through the gateway.
	var br shard.BatchResponse
	batch := fmt.Sprintf(`{"kind":"findall","queries":[%q,%q],"eps":3}`, q0, q1)
	if code := post("/query/batch", batch, &br); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Count != 2 || len(br.Matches) != 2 {
		t.Fatalf("batch answered %d queries, want 2", br.Count)
	}

	// Kill shard p1 outright. The warm query was cached while the fleet
	// was healthy, so it keeps answering 200 with no degradation — the
	// result cache masks the dead shard for hot keys.
	cmdB.Process.Kill()
	cmdB.Wait()
	var warm shard.MatchesResponse
	if code := post("/query/findall", body, &warm); code != http.StatusOK {
		t.Fatalf("cached findall with a dead shard: status %d, want 200", code)
	}
	if warm.Degradation != nil {
		t.Fatalf("cached findall degraded after kill: %+v", warm.Degradation)
	}
	if !reflect.DeepEqual(warm.Matches, fa.Matches) {
		t.Fatalf("cached findall after kill %v, want the pre-kill answer %v", warm.Matches, fa.Matches)
	}
	// A cold query must recompute, keep serving 200, and name the dead
	// shard in the degradation block.
	var deg shard.MatchesResponse
	coldBody := fmt.Sprintf(`{"query":%q,"eps":2}`, q0)
	if code := post("/query/findall", coldBody, &deg); code != http.StatusOK {
		t.Fatalf("findall with a dead shard: status %d, want 200", code)
	}
	if deg.Degradation == nil || !deg.Degradation.Degraded || len(deg.Degradation.Failures) != 1 {
		t.Fatalf("degradation after kill: %+v", deg.Degradation)
	}
	if f := deg.Degradation.Failures[0]; f.Shard != 1 || f.Range.Lo != cut {
		t.Fatalf("failure names shard %d range %v, want shard 1 starting at %d", f.Shard, f.Range, cut)
	}
	resp, err := client.Get(gwBase + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz %d with one shard alive, want 200", resp.StatusCode)
	}

	stopServeBinary(t, gwCmd)
	stopServeBinary(t, cmdA)
}
