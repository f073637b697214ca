package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gateway is the scatter-gather front end: one HTTP handler speaking the
// single-node serving protocol upstream, fanning every query out to the
// shard fleet downstream and merging the answers deterministically
// (merge.go). It never decodes query payloads — the request body is
// forwarded to every range verbatim — so one gateway binary fronts byte,
// float64 and point2 sessions alike.
//
// Each sequence range maps to a replica set (NewReplicatedGateway), and
// the fan-out is replica-aware: a query needs one answer per *range*,
// obtained from whichever replica answers first. Routing prefers
// replicas whose circuit breaker is closed (health.go), fails over to
// the next replica on error, and — when hedging is enabled — launches a
// second read against another replica once the first has been in flight
// longer than the hedge threshold; the first answer wins and the loser
// is cancelled through its request context. A range degrades only when
// every replica fails, so a single replica loss is masked completely:
// the merged answer stays bit-identical to a single node with no
// Degradation block.
//
// Failure semantics per range: a replica that answers 4xx has judged the
// request itself malformed; since every replica shares the session spec,
// that verdict stands for the range (and the first such verdict for the
// fleet) and is returned to the client verbatim. A replica that cannot
// answer (transport error, 5xx, or still shedding 429/503 after the
// retry budget) triggers failover; when every replica of a range is
// exhausted the range is recorded as a ShardFailure with each replica's
// error itemised, and the merged response carries a Degradation block.
// Only when no range answers does the gateway fail the request (502).

// PostFunc issues a POST with a JSON body, returning the response. The
// bounded-retry client in cmd/subseqctl satisfies this; tests inject
// httptest-backed functions.
type PostFunc func(ctx context.Context, url string, body []byte) (*http.Response, error)

// GetFunc issues a GET (stats, healthz probes).
type GetFunc func(ctx context.Context, url string) (*http.Response, error)

// maxGatewayBody caps an incoming request body, mirroring the serve
// process's own cap so the gateway never buffers what a shard would
// refuse anyway.
const maxGatewayBody = 8 << 20

// Gateway fans queries out over a Plan's ranges, each served by a
// replica set. Construct with NewGateway (one replica per range) or
// NewReplicatedGateway; serve Handler(); optionally StartProbing().
type Gateway struct {
	// planp holds the current plan behind an atomic pointer: admin
	// appends grow the tail range (admin.go), and handlers read the plan
	// lock-free. Mutations are serialised by adminMu.
	planp    atomic.Pointer[Plan]
	adminMu  sync.Mutex
	replicas [][]string    // per range, cleaned base URLs
	health   []*replicaSet // per range, breakers + round-robin cursor
	post     PostFunc
	get      GetFunc
	mux      *http.ServeMux
	start    time.Time

	hedgeAfter       time.Duration
	probeInterval    time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	flight flightGroup
	// cache holds merged 200-OK answers under canonical keys (cache.go);
	// nil when caching is off. epoch is the shard-plan epoch every cache
	// key embeds: admin.go bumps it on each acknowledged write, making
	// every pre-write entry unreachable.
	cache *Cache
	epoch atomic.Uint64

	queries      atomic.Int64
	batches      atomic.Int64
	degraded     atomic.Int64
	shardErrors  atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	flightHits   atomic.Int64
	flightMisses atomic.Int64
	writes       atomic.Int64
}

// GatewayOption customises NewGateway.
type GatewayOption func(*Gateway)

// WithPost injects the POST transport (e.g. the bounded-retry client).
func WithPost(p PostFunc) GatewayOption { return func(g *Gateway) { g.post = p } }

// WithGet injects the GET transport.
func WithGet(get GetFunc) GatewayOption { return func(g *Gateway) { g.get = get } }

// WithHedgeAfter enables hedged reads: when a range's first attempt has
// been in flight for d without answering, a second attempt is launched
// against the next-preferred replica and the first answer wins (the
// loser is cancelled). d <= 0 disables hedging (the default): failover
// then happens only on error, never on latency.
func WithHedgeAfter(d time.Duration) GatewayOption { return func(g *Gateway) { g.hedgeAfter = d } }

// WithProbeInterval paces the background health prober StartProbing
// launches. d <= 0 disables background probing; breakers are then fed
// by query traffic and /healthz requests alone.
func WithProbeInterval(d time.Duration) GatewayOption {
	return func(g *Gateway) { g.probeInterval = d }
}

// WithCache enables the gateway result cache: successful, undegraded
// merged answers are kept under their canonical key (CacheKey) within a
// total byte budget, evicted LRU within that budget and by TTL (ttl <= 0
// keeps entries until eviction or write-path invalidation). maxBytes <= 0
// disables the cache; single-flight collapse works either way.
func WithCache(maxBytes int64, ttl time.Duration) GatewayOption {
	return func(g *Gateway) {
		if maxBytes > 0 {
			g.cache = NewCache(maxBytes, ttl)
		}
	}
}

// WithBreaker tunes the per-replica circuit breakers: threshold
// consecutive failures open a breaker, which deflects traffic for
// cooldown before offering the replica a half-open trial.
func WithBreaker(threshold int, cooldown time.Duration) GatewayOption {
	return func(g *Gateway) {
		g.breakerThreshold = threshold
		g.breakerCooldown = cooldown
	}
}

// NewGateway builds an unreplicated gateway over plan whose i-th range
// is served solely by urls[i] — a replica set of one.
func NewGateway(plan Plan, urls []string, opts ...GatewayOption) (*Gateway, error) {
	replicas := make([][]string, len(urls))
	for i, u := range urls {
		replicas[i] = []string{u}
	}
	return NewReplicatedGateway(plan, replicas, opts...)
}

// NewReplicatedGateway builds a gateway over plan whose i-th range is
// served by the replica set replicas[i] (base URLs, scheme://host:port,
// no trailing slash needed). The outer list must match the plan's
// ranges one to one; every range needs at least one replica.
func NewReplicatedGateway(plan Plan, replicas [][]string, opts ...GatewayOption) (*Gateway, error) {
	if len(replicas) != len(plan.Ranges) {
		return nil, fmt.Errorf("shard: plan has %d ranges but %d replica sets were given", len(plan.Ranges), len(replicas))
	}
	if len(replicas) == 0 {
		return nil, errors.New("shard: gateway needs at least one shard range")
	}
	clean := make([][]string, len(replicas))
	for i, set := range replicas {
		if len(set) == 0 {
			return nil, fmt.Errorf("shard: range %d has no replicas", i)
		}
		clean[i] = make([]string, len(set))
		for j, u := range set {
			if u == "" {
				return nil, fmt.Errorf("shard: range %d replica %d has an empty URL", i, j)
			}
			clean[i][j] = strings.TrimRight(u, "/")
		}
	}
	g := &Gateway{
		replicas:      clean,
		start:         time.Now(),
		probeInterval: defaultProbeInterval,
	}
	g.planp.Store(&plan)
	for _, o := range opts {
		o(g)
	}
	g.health = make([]*replicaSet, len(clean))
	for i, set := range clean {
		g.health[i] = newReplicaSet(set, g.breakerThreshold, g.breakerCooldown)
	}
	if g.post == nil {
		g.post = func(ctx context.Context, url string, body []byte) (*http.Response, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return http.DefaultClient.Do(req)
		}
	}
	if g.get == nil {
		g.get = func(ctx context.Context, url string) (*http.Response, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/findall", g.handleFindAll)
	mux.HandleFunc("POST /query/longest", func(w http.ResponseWriter, r *http.Request) { g.handleBest(w, r, "longest", BestLongest) })
	mux.HandleFunc("POST /query/nearest", func(w http.ResponseWriter, r *http.Request) { g.handleBest(w, r, "nearest", BestNearest) })
	mux.HandleFunc("POST /query/filter", g.handleFilter)
	mux.HandleFunc("POST /query/batch", g.handleBatch)
	mux.HandleFunc("POST /admin/append", g.handleAdminAppend)
	mux.HandleFunc("POST /admin/retire", g.handleAdminRetire)
	mux.HandleFunc("POST /admin/snapshot", g.handleAdminSnapshot)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Plan returns the partition the gateway scatters over. It can grow:
// every acknowledged append through the gateway extends the tail range.
func (g *Gateway) Plan() Plan { return *g.planp.Load() }

// rangeOf returns range i of the current plan.
func (g *Gateway) rangeOf(i int) Range { return g.planp.Load().Ranges[i] }

// Epoch returns the shard-plan epoch; every acknowledged admin write
// through the gateway bumps it (and with it every cache key).
func (g *Gateway) Epoch() uint64 { return g.epoch.Load() }

// PendingFlights reports in-flight single-flight fan-outs — the leak
// probe tests assert drains to zero once traffic quiesces.
func (g *Gateway) PendingFlights() int { return g.flight.pending() }

// CacheStats snapshots the result cache counters; ok is false when the
// gateway runs without a cache.
func (g *Gateway) CacheStats() (cs CacheCounters, ok bool) {
	if g.cache == nil {
		return CacheCounters{}, false
	}
	return g.cache.Stats(), true
}

// Replicas returns the per-range replica endpoints.
func (g *Gateway) Replicas() [][]string { return g.replicas }

// --- scatter: one answer per range, from whichever replica delivers ---

// shardReply is one replica's raw answer: body + status on HTTP
// delivery, err on transport failure.
type shardReply struct {
	status int
	body   []byte
	err    error
}

// rangeReply is one range's resolved answer. On success status/body
// carry the winning replica's reply; when every replica failed, err is
// set and replicaErrs itemises the attempts.
type rangeReply struct {
	status      int
	body        []byte
	err         error
	replicaErrs []ReplicaError
}

// failoverStatus reports whether an HTTP status means "this replica
// cannot answer, try another" rather than "this request is bad". 429
// and 503 are included: the bounded-retry client has already backed off
// and retried before the gateway sees them, so a replica still shedding
// is treated as unavailable and its peers get the request.
func failoverStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// tryReplica POSTs body to one replica and feeds its breaker: any
// decoded answer (including 4xx — the replica is alive and judging) is
// a success, transport errors and failover statuses are failures. A
// failure caused by our own context cancellation (a hedge lost its
// race, the client went away) is not charged to the breaker.
func (g *Gateway) tryReplica(ctx context.Context, ri, idx int, path string, body []byte) shardReply {
	set := g.health[ri]
	b := set.breakers[idx]
	resp, err := g.post(ctx, set.addrs[idx]+path, body)
	if err != nil {
		if ctx.Err() == nil {
			b.failure(err.Error())
		}
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	buf, rerr := io.ReadAll(io.LimitReader(resp.Body, maxGatewayBody))
	if rerr != nil {
		if ctx.Err() == nil {
			b.failure(rerr.Error())
		}
		return shardReply{err: fmt.Errorf("reading shard response: %w", rerr)}
	}
	if failoverStatus(resp.StatusCode) {
		b.failure(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, shardErrorText(buf)))
	} else {
		b.success()
	}
	return shardReply{status: resp.StatusCode, body: buf}
}

// launchKind distinguishes why an attempt was started, for accounting.
type launchKind int

const (
	launchPrimary launchKind = iota
	launchFailover
	launchHedge
)

// askRange resolves one range: attempts are launched against replicas
// in breaker-preferred order — the first immediately, the next on
// failure (failover) or on the hedge timer (latency), each attempt
// cancellable — and the first usable answer wins. The attempt budget is
// the replica set itself: every replica is tried at most once, and the
// range fails only when all of them have.
func (g *Gateway) askRange(ctx context.Context, ri int, path string, body []byte) rangeReply {
	set := g.health[ri]
	order := set.order(time.Now())
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attemptResult struct {
		idx  int
		kind launchKind
		rep  shardReply
	}
	results := make(chan attemptResult, len(order))
	next := 0
	launch := func(kind launchKind) {
		idx := order[next]
		next++
		go func() {
			results <- attemptResult{idx: idx, kind: kind, rep: g.tryReplica(actx, ri, idx, path, body)}
		}()
	}
	launch(launchPrimary)
	outstanding := 1

	var hedge <-chan time.Time
	if g.hedgeAfter > 0 && next < len(order) {
		timer := time.NewTimer(g.hedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}

	var repErrs []ReplicaError
	for {
		select {
		case res := <-results:
			outstanding--
			if res.rep.err == nil && !failoverStatus(res.rep.status) {
				if res.kind == launchHedge {
					g.hedgeWins.Add(1)
				}
				return rangeReply{status: res.rep.status, body: res.rep.body}
			}
			re := ReplicaError{Replica: res.idx, Addr: set.addrs[res.idx]}
			if res.rep.err != nil {
				re.Error = res.rep.err.Error()
			} else {
				re.Status = res.rep.status
				re.Error = shardErrorText(res.rep.body)
			}
			repErrs = append(repErrs, re)
			switch {
			case next < len(order):
				g.failovers.Add(1)
				launch(launchFailover)
				outstanding++
			case outstanding == 0:
				return rangeReply{
					err:         fmt.Errorf("all %d replicas failed", len(order)),
					replicaErrs: repErrs,
				}
			}
		case <-hedge:
			hedge = nil
			if next < len(order) {
				g.hedges.Add(1)
				launch(launchHedge)
				outstanding++
			}
		case <-ctx.Done():
			return rangeReply{err: ctx.Err(), replicaErrs: repErrs}
		}
	}
}

// scatter resolves every range concurrently and collects the replies in
// range order.
func (g *Gateway) scatter(ctx context.Context, path string, body []byte) []rangeReply {
	replies := make([]rangeReply, len(g.replicas))
	var wg sync.WaitGroup
	for i := range g.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = g.askRange(ctx, i, path, body)
		}(i)
	}
	wg.Wait()
	return replies
}

// shardErrorText extracts the serve process's error message from an
// error-envelope body, falling back to the raw body.
func shardErrorText(body []byte) string {
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return er.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// rangeAddrs renders a range's replica endpoints for failure reports.
func (g *Gateway) rangeAddrs(i int) string { return strings.Join(g.replicas[i], ",") }

// classify splits range replies into per-range successes (decoded into
// fresh values of T), the first client-error reply to pass through
// verbatim (nil if none), and the range failures. ok[i] is nil for a
// failed range.
func classify[T any](g *Gateway, replies []rangeReply) (ok []*T, passThrough *shardReply, deg *Degradation) {
	ok = make([]*T, len(replies))
	var failures []ShardFailure
	for i, rep := range replies {
		switch {
		case rep.err != nil:
			failures = append(failures, ShardFailure{
				Shard: i, Range: g.rangeOf(i), Addr: g.rangeAddrs(i),
				Error: rep.err.Error(), Replicas: rep.replicaErrs,
			})
		case rep.status >= 400 && rep.status < 500:
			// The request itself is bad; every shard shares the session
			// spec, so the first verdict speaks for the fleet.
			if passThrough == nil {
				passThrough = &shardReply{status: rep.status, body: rep.body}
			}
		case rep.status != http.StatusOK:
			failures = append(failures, ShardFailure{
				Shard: i, Range: g.rangeOf(i), Addr: g.rangeAddrs(i),
				Status: rep.status, Error: shardErrorText(rep.body),
			})
		default:
			var v T
			if err := json.Unmarshal(rep.body, &v); err != nil {
				failures = append(failures, ShardFailure{
					Shard: i, Range: g.rangeOf(i), Addr: g.rangeAddrs(i),
					Status: rep.status, Error: fmt.Sprintf("undecodable response: %v", err),
				})
				continue
			}
			ok[i] = &v
		}
	}
	if len(failures) > 0 {
		deg = &Degradation{Degraded: true, Failures: failures}
	}
	return ok, passThrough, deg
}

// --- response plumbing ---

// allFailed materialises the response for a query no range could
// answer: the gateway has nothing to merge, so the request fails with
// every failure named.
func allFailedResult(deg *Degradation) flightResult {
	msgs := make([]string, len(deg.Failures))
	for i, f := range deg.Failures {
		msgs[i] = f.String()
	}
	return flightResult{
		status: http.StatusBadGateway,
		body:   encodeJSON(ErrorResponse{Error: "all shards failed: " + strings.Join(msgs, "; ")}),
	}
}

// readBody buffers the request body for fan-out.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxGatewayBody))
}

// collapse answers one query through the cache and the single-flight
// group, in that order. The key is the canonical CacheKey — endpoint,
// current plan epoch, canonical body — so formatting variants of one
// question share both the cache line and the flight, and a write-path
// epoch bump reroutes every later request past all pre-write state. A
// cache hit returns stored bytes without touching the fleet. A miss
// joins (or leads) the flight for its key; the leader alone runs the
// fan-out — detached from its request context, so a leader that
// disconnects cannot fail its followers or poison the cache — and
// populates the cache exactly once, only with a successful, undegraded
// answer. Bodies that are not one JSON value cannot be canonicalised:
// they still collapse by raw bytes but never cache.
func (g *Gateway) collapse(ctx context.Context, path string, body []byte, compute func(ctx context.Context) flightResult) flightResult {
	key, kerr := CacheKey(path, g.epoch.Load(), body)
	cacheable := kerr == nil && g.cache != nil
	if kerr != nil {
		key = path + "\x00" + string(body)
	}
	if cacheable {
		if b, ok := g.cache.Get(key); ok {
			return flightResult{status: http.StatusOK, body: b}
		}
	}
	res, shared := g.flight.do(key, func() flightResult {
		g.flightMisses.Add(1)
		r := compute(context.WithoutCancel(ctx))
		if cacheable && r.status == http.StatusOK && !r.degraded {
			g.cache.Put(key, r.body)
		}
		return r
	})
	if shared {
		g.flightHits.Add(1)
	}
	return res
}

// gatherResult runs the scatter/classify/accounting choreography for
// one query kind and hands the per-range successes to merge; merge is
// only called when at least one range answered.
func gatherResult[T any](g *Gateway, ctx context.Context, path string, body []byte, merge func(ok []*T, deg *Degradation) flightResult) flightResult {
	replies := g.scatter(ctx, path, body)
	ok, passThrough, deg := classify[T](g, replies)
	if deg != nil {
		g.shardErrors.Add(int64(len(deg.Failures)))
	}
	if passThrough != nil {
		return flightResult{status: passThrough.status, body: passThrough.body}
	}
	answered := 0
	for _, v := range ok {
		if v != nil {
			answered++
		}
	}
	if answered == 0 {
		if deg == nil {
			// Unreachable by construction (no pass-through, no success, no
			// failure would mean zero ranges), but fail loudly if it happens.
			return flightResult{status: http.StatusBadGateway, body: encodeJSON(ErrorResponse{Error: "no shard produced a response"})}
		}
		return allFailedResult(deg)
	}
	if deg != nil {
		g.degraded.Add(1)
	}
	res := merge(ok, deg)
	res.degraded = deg != nil
	return res
}

// --- query handlers ---

func (g *Gateway) handleFindAll(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.queries.Add(1)
	res := g.collapse(r.Context(), "/query/findall", body, func(ctx context.Context) flightResult {
		return gatherResult(g, ctx, "/query/findall", body, func(ok []*MatchesResponse, deg *Degradation) flightResult {
			lists := make([][]Match, 0, len(ok))
			for _, resp := range ok {
				if resp != nil {
					lists = append(lists, resp.Matches)
				}
			}
			merged := MergeMatches(lists)
			return flightResult{status: http.StatusOK, body: encodeJSON(MatchesResponse{Count: len(merged), Matches: merged, Degradation: deg})}
		})
	})
	writeRaw(w, res.status, res.body)
}

func (g *Gateway) handleFilter(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.queries.Add(1)
	res := g.collapse(r.Context(), "/query/filter", body, func(ctx context.Context) flightResult {
		return gatherResult(g, ctx, "/query/filter", body, func(ok []*HitsResponse, deg *Degradation) flightResult {
			lists := make([][]Hit, 0, len(ok))
			for _, resp := range ok {
				if resp != nil {
					lists = append(lists, resp.Hits)
				}
			}
			merged := MergeHits(lists)
			return flightResult{status: http.StatusOK, body: encodeJSON(HitsResponse{Count: len(merged), Hits: merged, Degradation: deg})}
		})
	})
	writeRaw(w, res.status, res.body)
}

func (g *Gateway) handleBest(w http.ResponseWriter, r *http.Request, kind string, best func([]*Match) *Match) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.queries.Add(1)
	path := "/query/" + kind
	res := g.collapse(r.Context(), path, body, func(ctx context.Context) flightResult {
		return gatherResult(g, ctx, path, body, func(ok []*BestResponse, deg *Degradation) flightResult {
			cands := make([]*Match, 0, len(ok))
			for _, resp := range ok {
				if resp != nil && resp.Found {
					cands = append(cands, resp.Match)
				}
			}
			b := best(cands)
			return flightResult{status: http.StatusOK, body: encodeJSON(BestResponse{Found: b != nil, Match: b, Degradation: deg})}
		})
	})
	writeRaw(w, res.status, res.body)
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Peek at the envelope to learn the kind and query count; the body is
	// still forwarded verbatim so shards do their own full validation.
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid batch request: %w", err))
		return
	}
	if !ValidBatchKind(req.Kind) {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("batch kind must be findall, longest or filter, got %q", req.Kind))
		return
	}
	if len(req.Queries) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New(`"queries" must be non-empty`))
		return
	}
	n := len(req.Queries)
	g.batches.Add(1)
	g.queries.Add(int64(n))
	res := g.collapse(r.Context(), "/query/batch", body, func(ctx context.Context) flightResult {
		return g.batchResult(ctx, body, req.Kind, n)
	})
	writeRaw(w, res.status, res.body)
}

func (g *Gateway) batchResult(ctx context.Context, body []byte, kind string, n int) flightResult {
	replies := g.scatter(ctx, "/query/batch", body)
	ok, passThrough, deg := classify[BatchResponse](g, replies)
	if deg != nil {
		g.shardErrors.Add(int64(len(deg.Failures)))
	}
	if passThrough != nil {
		return flightResult{status: passThrough.status, body: passThrough.body}
	}
	// A shard whose answer doesn't line up query-for-query is a protocol
	// violation; demote it to a failure rather than misattributing results.
	var answered []*BatchResponse
	for i, resp := range ok {
		if resp == nil {
			continue
		}
		bad := resp.Kind != kind || resp.Count != n ||
			(kind == "findall" && len(resp.Matches) != n) ||
			(kind == "longest" && len(resp.Best) != n) ||
			(kind == "filter" && len(resp.Hits) != n)
		if bad {
			if deg == nil {
				deg = &Degradation{Degraded: true}
			}
			deg.Failures = append(deg.Failures, ShardFailure{
				Shard: i, Range: g.rangeOf(i), Addr: g.rangeAddrs(i), Status: http.StatusOK,
				Error: fmt.Sprintf("batch answer mismatch: kind %q count %d (want %q × %d)", resp.Kind, resp.Count, kind, n),
			})
			g.shardErrors.Add(1)
			continue
		}
		answered = append(answered, resp)
	}
	if len(answered) == 0 {
		return allFailedResult(deg)
	}
	if deg != nil {
		g.degraded.Add(1)
	}
	out := BatchResponse{Kind: kind, Count: n, Degradation: deg}
	switch kind {
	case "findall":
		out.Matches = make([][]Match, n)
		for q := 0; q < n; q++ {
			lists := make([][]Match, len(answered))
			for s, resp := range answered {
				lists[s] = resp.Matches[q]
			}
			out.Matches[q] = MergeMatches(lists)
		}
	case "filter":
		out.Hits = make([][]Hit, n)
		for q := 0; q < n; q++ {
			lists := make([][]Hit, len(answered))
			for s, resp := range answered {
				lists[s] = resp.Hits[q]
			}
			out.Hits[q] = MergeHits(lists)
		}
	case "longest":
		out.Best = make([]BestResult, n)
		for q := 0; q < n; q++ {
			cands := make([]*Match, 0, len(answered))
			for _, resp := range answered {
				if resp.Best[q].Found {
					cands = append(cands, resp.Best[q].Match)
				}
			}
			b := BestLongest(cands)
			out.Best[q] = BestResult{Found: b != nil, Match: b}
		}
	}
	return flightResult{status: http.StatusOK, body: encodeJSON(out), degraded: deg != nil}
}

// --- stats & health ---

// ShardStats is one range's slice of the merged /stats: its raw stats
// document when some replica was reachable (Replica names which), the
// error otherwise.
type ShardStats struct {
	Shard   int             `json:"shard"`
	Range   Range           `json:"range"`
	Addr    string          `json:"addr"`
	Replica int             `json:"replica,omitempty"`
	OK      bool            `json:"ok"`
	Stats   json.RawMessage `json:"stats,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// StatsTotals sums the additive counters across reachable ranges
// (counting each range once, through whichever replica answered).
type StatsTotals struct {
	NumWindows    int `json:"num_windows"`
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
}

// SingleFlightCounters reports the gateway-side collapse of identical
// in-flight queries: hits joined an existing fan-out, misses led one.
type SingleFlightCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// GatewayCounters is the gateway's own request accounting. Writes counts
// acknowledged admin mutations fanned out through the gateway.
type GatewayCounters struct {
	Queries      int64                `json:"queries"`
	Batches      int64                `json:"batches"`
	Writes       int64                `json:"writes"`
	Degraded     int64                `json:"degraded"`
	ShardErrors  int64                `json:"shard_errors"`
	Hedges       int64                `json:"hedges"`
	HedgeWins    int64                `json:"hedge_wins"`
	Failovers    int64                `json:"failovers"`
	SingleFlight SingleFlightCounters `json:"single_flight"`
}

// GatewayStatsResponse is GET /stats on the gateway: the plan and its
// epoch, each range's own stats verbatim, cross-range totals, the
// per-replica breaker roster, the gateway's counters and — when caching
// is on — the result-cache counters.
type GatewayStatsResponse struct {
	Plan          Plan            `json:"plan"`
	Epoch         uint64          `json:"epoch"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Shards        []ShardStats    `json:"shards"`
	Replication   []RangeHealth   `json:"replication"`
	Totals        StatsTotals     `json:"totals"`
	Gateway       GatewayCounters `json:"gateway"`
	Cache         *CacheCounters  `json:"cache,omitempty"`
	Degradation   *Degradation    `json:"degradation,omitempty"`
}

// statsSubset is the additive slice of a shard's stats document.
type statsSubset struct {
	NumWindows    int `json:"num_windows"`
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
}

// fetchRangeStats fetches one range's /stats through its replicas in
// breaker-preferred order, returning on the first success.
func (g *Gateway) fetchRangeStats(ctx context.Context, ri int) ShardStats {
	set := g.health[ri]
	ss := ShardStats{Shard: ri, Range: g.rangeOf(ri), Addr: g.rangeAddrs(ri)}
	var errs []string
	for _, idx := range set.order(time.Now()) {
		res, err := g.get(ctx, set.addrs[idx]+"/stats")
		if err != nil {
			errs = append(errs, fmt.Sprintf("replica %d (%s): %v", idx, set.addrs[idx], err))
			continue
		}
		b, rerr := io.ReadAll(io.LimitReader(res.Body, maxGatewayBody))
		res.Body.Close()
		switch {
		case rerr != nil:
			errs = append(errs, fmt.Sprintf("replica %d (%s): %v", idx, set.addrs[idx], rerr))
		case res.StatusCode != http.StatusOK:
			errs = append(errs, fmt.Sprintf("replica %d (%s): HTTP %d: %s", idx, set.addrs[idx], res.StatusCode, shardErrorText(b)))
		default:
			ss.OK = true
			ss.Replica = idx
			ss.Addr = set.addrs[idx]
			ss.Stats = json.RawMessage(b)
			return ss
		}
	}
	ss.Error = strings.Join(errs, "; ")
	return ss
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := GatewayStatsResponse{
		Plan:          g.Plan(),
		Epoch:         g.epoch.Load(),
		UptimeSeconds: time.Since(g.start).Seconds(),
		Shards:        make([]ShardStats, len(g.replicas)),
		Replication:   make([]RangeHealth, len(g.replicas)),
		Gateway: GatewayCounters{
			Queries:     g.queries.Load(),
			Batches:     g.batches.Load(),
			Writes:      g.writes.Load(),
			Degraded:    g.degraded.Load(),
			ShardErrors: g.shardErrors.Load(),
			Hedges:      g.hedges.Load(),
			HedgeWins:   g.hedgeWins.Load(),
			Failovers:   g.failovers.Load(),
			SingleFlight: SingleFlightCounters{
				Hits:   g.flightHits.Load(),
				Misses: g.flightMisses.Load(),
			},
		},
	}
	if g.cache != nil {
		cs := g.cache.Stats()
		resp.Cache = &cs
	}
	var wg sync.WaitGroup
	for i := range g.replicas {
		resp.Replication[i] = g.health[i].health(i, g.rangeOf(i), now, nil)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Shards[i] = g.fetchRangeStats(r.Context(), i)
		}(i)
	}
	wg.Wait()
	var failures []ShardFailure
	for _, ss := range resp.Shards {
		if !ss.OK {
			failures = append(failures, ShardFailure{Shard: ss.Shard, Range: ss.Range, Addr: ss.Addr, Error: ss.Error})
			continue
		}
		var sub statsSubset
		if json.Unmarshal(ss.Stats, &sub) == nil {
			resp.Totals.NumWindows += sub.NumWindows
			resp.Totals.DistanceCalls.Build += sub.DistanceCalls.Build
			resp.Totals.DistanceCalls.Filter += sub.DistanceCalls.Filter
			resp.Totals.DistanceCalls.Verify += sub.DistanceCalls.Verify
		}
	}
	if len(failures) > 0 {
		resp.Degradation = &Degradation{Degraded: true, Failures: failures}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz live-probes every replica of every range (feeding the
// breakers as a side effect) and reports the full roster: per-replica
// probe verdicts and breaker state, per-range up counts, and the two
// fleet-level verdicts — ok (something can still answer; governs the
// HTTP status) and full_coverage (nothing is degraded).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probeOK := g.probeAll(r.Context())
	now := time.Now()
	resp := HealthzResponse{Shards: len(g.replicas), Ranges: make([]RangeHealth, len(g.replicas))}
	for i := range g.replicas {
		rh := g.health[i].health(i, g.rangeOf(i), now, probeOK[i])
		resp.Ranges[i] = rh
		if rh.Up > 0 {
			resp.ShardsUp++
		}
	}
	resp.OK = resp.ShardsUp > 0
	resp.FullCoverage = resp.ShardsUp == resp.Shards
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}
