// Package serve is the HTTP serving stack behind `subseqctl serve`: one
// live store (internal/store) answered over the wire. Every single-query
// request is streamed through a QueryPool's Submit API, so concurrent
// requests coalesce into shared index traversals and a slow client cannot
// queue unbounded work (the pool's in-flight budget is the backpressure).
// POST /query/batch bypasses the pool and feeds the matcher's batched
// entry points directly. The admin surface mutates the store while queries
// run: POST /admin/append, /admin/retire and /admin/snapshot, with
// in-flight query claims draining before each mutation.
//
// Responses use the wire types of internal/shard, so a gateway speaks
// the same protocol as a single node. docs/SERVING.md covers the query
// API; docs/PERSISTENCE.md covers the lifecycle and snapshot format.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/registry"
)

// Server owns the long-lived serving state: the live store, the streaming
// pool resolving it through the store's view guard, and the resolved
// configuration it echoes on /stats.
type Server[E any] struct {
	cfg      registry.ServerConfig
	st       *store.Store[E]
	pool     *core.QueryPool[E]
	mux      *http.ServeMux
	start    time.Time
	restored bool
	// seqBase re-bases wire-level sequence IDs when this process serves
	// one shard of a logical index (spec.ShardLo): the store numbers its
	// local slice from 0, the wire reports global IDs, so a gateway can
	// merge shard answers without remapping (see internal/shard).
	seqBase int
	// reqTimeout bounds each query request end to end (0: none); sched is
	// the background snapshot loop (nil unless SnapshotInterval is set).
	reqTimeout time.Duration
	sched      *store.Scheduler
	// sweepStop ends the TTL sweeper goroutine at close.
	sweepStop chan struct{}
	closeOnce sync.Once
}

// ttlSweepInterval is how often the serving store retires TTL-expired
// sequences.
const ttlSweepInterval = 30 * time.Second

// New serves st under spec: the streaming pool's workers, queue depth
// and shed policy, the request timeout, the shard's sequence-ID base and
// the background snapshot schedule all come from the spec. restored is
// echoed on /stats (the store came from a snapshot rather than an index
// build). Close releases the pool and the background goroutines.
func New[E any](st *store.Store[E], spec registry.ServerSpec, restored bool) (*Server[E], error) {
	cfg, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	shed, err := core.ParseShedPolicy(cfg.Shed)
	if err != nil {
		return nil, err
	}
	srv := &Server[E]{
		cfg: cfg, st: st,
		start:      time.Now(),
		restored:   restored,
		seqBase:    spec.ShardLo,
		reqTimeout: spec.RequestTimeout,
		sweepStop:  make(chan struct{}),
	}
	if spec.SnapshotInterval > 0 {
		srv.sched, err = st.ScheduleSnapshots(spec.SnapshotPath, spec.SnapshotInterval,
			store.WithSnapshotOnError(func(err error) {
				fmt.Fprintf(os.Stderr, "subseqctl: background snapshot: %v\n", err)
			}))
		if err != nil {
			return nil, err
		}
	}
	srv.pool = st.NewQueryPool(cfg.Workers, core.WithQueueDepth(cfg.QueueDepth), core.WithShedPolicy(shed))
	go func() {
		t := time.NewTicker(ttlSweepInterval)
		defer t.Stop()
		for {
			select {
			case <-srv.sweepStop:
				return
			case <-t.C:
				srv.st.Sweep()
			}
		}
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/findall", srv.handleFindAll)
	mux.HandleFunc("POST /query/longest", srv.handleLongest)
	mux.HandleFunc("POST /query/nearest", srv.handleNearest)
	mux.HandleFunc("POST /query/filter", srv.handleFilter)
	mux.HandleFunc("POST /query/batch", srv.handleBatch)
	mux.HandleFunc("POST /admin/append", srv.handleAppend)
	mux.HandleFunc("POST /admin/retire", srv.handleRetire)
	mux.HandleFunc("POST /admin/snapshot", srv.handleSnapshot)
	mux.HandleFunc("GET /stats", srv.handleStats)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	srv.mux = mux
	return srv, nil
}

// Handler is the server's route table.
func (srv *Server[E]) Handler() http.Handler { return srv.mux }

// Config is the resolved configuration /stats echoes.
func (srv *Server[E]) Config() registry.ServerConfig { return srv.cfg }

// SetAddr records the address the listener actually bound (it differs
// from the requested one under -addr :0), so /stats echoes a usable
// address. Call before serving requests.
func (srv *Server[E]) SetAddr(addr string) { srv.cfg.Addr = addr }

// NumWindows is the live index size.
func (srv *Server[E]) NumWindows() int { return srv.st.Matcher().NumWindows() }

// Restored reports whether the store came from a snapshot.
func (srv *Server[E]) Restored() bool { return srv.restored }

// Snapshot writes the store to path atomically (temp file + rename).
func (srv *Server[E]) Snapshot(path string) error { return srv.st.SnapshotFile(path) }

// Close stops the background snapshot and TTL loops and drains the
// streaming pool. It is idempotent.
func (srv *Server[E]) Close() {
	srv.closeOnce.Do(func() {
		close(srv.sweepStop)
		if srv.sched != nil {
			srv.sched.Stop()
		}
		srv.pool.Close()
	})
}

// --- Wire formats (documented in docs/SERVING.md) ---

// queryRequest is the body of every /query/* POST. Query's encoding
// depends on the dataset's element type: a JSON string for byte datasets,
// an array of numbers for float64, an array of [x, y] pairs for point2.
type queryRequest struct {
	Query json.RawMessage `json:"query"`
	// Eps is the query radius (findall, longest, filter).
	Eps *float64 `json:"eps"`
	// EpsMax/EpsInc tune nearest (Type III); eps_inc defaults to
	// eps_max/16.
	EpsMax *float64 `json:"eps_max"`
	EpsInc *float64 `json:"eps_inc"`
}

// wireMatches converts store-local matches to the wire, re-basing
// sequence IDs into the global numbering when this process is a shard.
func (srv *Server[E]) wireMatches(ms []core.Match) []shard.Match {
	out := make([]shard.Match, len(ms))
	for i, m := range ms {
		out[i] = shard.Match{
			SeqID: m.SeqID + srv.seqBase, QStart: m.QStart, QEnd: m.QEnd,
			XStart: m.XStart, XEnd: m.XEnd, Dist: m.Dist,
		}
	}
	return out
}

// wireHits converts store-local filter hits to the wire, re-based like
// wireMatches.
func (srv *Server[E]) wireHits(hs []core.Hit[E]) []shard.Hit {
	out := make([]shard.Hit, len(hs))
	for i, h := range hs {
		out[i] = shard.Hit{
			SeqID: h.Window.SeqID + srv.seqBase, WindowStart: h.Window.Start, WindowEnd: h.Window.End(),
			SegStart: h.Segment.Start, SegEnd: h.Segment.End(),
		}
	}
	return out
}

// best is a Type II/III answer on the wire.
func (srv *Server[E]) best(res core.QueryResult) shard.BestResponse {
	if !res.Found {
		return shard.BestResponse{}
	}
	return shard.BestResponse{Found: true, Match: &srv.wireMatches([]core.Match{res.Match})[0]}
}

// StatsResponse answers GET /stats.
type StatsResponse struct {
	Config        registry.ServerConfig `json:"config"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	NumWindows    int                   `json:"num_windows"`
	// DistanceCalls surfaces the matcher's striped distance-call tallies:
	// the paper's hardware-independent cost accounting, live.
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
	Stream core.StreamStats `json:"stream"`
	// Batch tallies the batched-engine entry points: how many
	// FilterHitsBatch calls ran (every batch kind funnels through it) and
	// how many queries they carried. Queries/Calls is the amortisation
	// ratio the batch endpoint exists to raise.
	Batch struct {
		Calls   int64 `json:"calls"`
		Queries int64 `json:"queries"`
	} `json:"batch"`
	// Snapshots is the background snapshot scheduler's health; absent
	// unless SnapshotInterval is set.
	Snapshots *store.SchedulerStats `json:"snapshots,omitempty"`
	// Store is the live-store census: allocated sequence IDs, live
	// (non-retired) sequences, pending TTLs, and whether this process
	// restored from a snapshot instead of indexing.
	Store struct {
		Sequences int  `json:"sequences"`
		Live      int  `json:"live"`
		TTLs      int  `json:"ttls"`
		Restored  bool `json:"restored"`
	} `json:"store"`
}

// maxRequestBytes caps a request body. The streaming engine's queue depth
// bounds in-flight queries; this bounds what any single request may
// allocate before it even becomes one.
const maxRequestBytes = 8 << 20

// decodeQuery parses the request body and its element-typed query payload.
func (srv *Server[E]) decodeQuery(w http.ResponseWriter, r *http.Request) (queryRequest, seq.Sequence[E], error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return queryRequest{}, nil, fmt.Errorf("reading request body: %w", err)
	}
	return parseQueryRequest[E](body)
}

// parseQueryRequest is decodeQuery without the HTTP plumbing: the whole
// untrusted-input surface of a /query/* request in one pure function, so
// it can be fuzzed directly (FuzzParseQueryRequest). It must never panic;
// any malformed body must come back as an error.
func parseQueryRequest[E any](body []byte) (queryRequest, seq.Sequence[E], error) {
	var req queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("invalid request body: %w", err)
	}
	if len(req.Query) == 0 {
		return req, nil, errors.New(`missing "query"`)
	}
	q, err := decodeSeq[E](req.Query)
	if err != nil {
		return req, nil, err
	}
	return req, q, nil
}

// decodeBody decodes a JSON request body into v, rejecting unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// decodeSeq decodes a query sequence from its element-typed JSON encoding:
// a string for byte, an array of numbers for float64, an array of [x, y]
// pairs for point2 — matching how the dataset families are described in
// `subseqctl list`.
func decodeSeq[E any](raw json.RawMessage) (seq.Sequence[E], error) {
	// json.Unmarshal treats null as a no-op for every target type here, so
	// without this guard a null query would decode into a nil sequence
	// with no error (found by FuzzParseQueryRequest).
	if string(raw) == "null" {
		return nil, errors.New(`"query" must not be null`)
	}
	switch any((*E)(nil)).(type) {
	case *byte:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON string for byte datasets: %w`, err)
		}
		return any(seq.Sequence[byte](s)).(seq.Sequence[E]), nil
	case *float64:
		var v []float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON array of numbers for float64 datasets: %w`, err)
		}
		return any(seq.Sequence[float64](v)).(seq.Sequence[E]), nil
	case *seq.Point2:
		var v [][2]float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON array of [x, y] pairs for point2 datasets: %w`, err)
		}
		pts := make(seq.Sequence[seq.Point2], len(v))
		for i, p := range v {
			pts[i] = seq.Point2{X: p[0], Y: p[1]}
		}
		return any(pts).(seq.Sequence[E]), nil
	default:
		return nil, fmt.Errorf("unsupported element type %T", *new(E))
	}
}

// needEps validates the radius shared by findall, longest, filter and
// batch.
func needEps(eps *float64) (float64, error) {
	if eps == nil {
		return 0, errors.New(`missing "eps"`)
	}
	if *eps < 0 {
		return 0, errors.New(`"eps" must be >= 0`)
	}
	return *eps, nil
}

// submitErrStatus maps a streaming-submission error to an HTTP status,
// the contract documented in docs/SERVING.md ("Operating under load"):
// shed queries are 429 Too Many Requests, deadline-expired queries 504
// Gateway Timeout, client-abandoned contexts 499 (the de-facto "client
// closed request"), a closed pool 503 Service Unavailable, and a crashed
// worker 500.
func submitErrStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, core.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeSubmitErr maps err through submitErrStatus; retryable statuses
// (429, 503) carry a Retry-After so well-behaved clients back off instead
// of hammering a saturated queue.
func writeSubmitErr(w http.ResponseWriter, err error) {
	status := submitErrStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	shard.WriteError(w, status, err)
}

// submitOpts assembles the per-request admission metadata: the request
// context (bounded by the request timeout when set), a matching
// submission deadline so expired queries are dropped before a worker
// prices them, and the tenant attribution from the X-Tenant header (for
// the fair-share shed policy). The cancel func must be deferred by the
// caller.
func (srv *Server[E]) submitOpts(r *http.Request) (context.Context, context.CancelFunc, []core.SubmitOption) {
	ctx := r.Context()
	cancel := func() {}
	var opts []core.SubmitOption
	if srv.reqTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, srv.reqTimeout)
		opts = append(opts, core.WithSubmitTimeout(srv.reqTimeout))
	}
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		opts = append(opts, core.WithTenant(tenant))
	}
	return ctx, cancel, opts
}

// decodeEpsQuery is decodeQuery plus the radius findall, longest and
// filter require; on failure it has already answered 400.
func (srv *Server[E]) decodeEpsQuery(w http.ResponseWriter, r *http.Request) (seq.Sequence[E], float64, bool) {
	req, q, err := srv.decodeQuery(w, r)
	if err == nil {
		var eps float64
		if eps, err = needEps(req.Eps); err == nil {
			return q, eps, true
		}
	}
	shard.WriteError(w, http.StatusBadRequest, err)
	return nil, 0, false
}

// respond awaits a submitted query and writes its wire form, or the
// submission error's status.
func respond[T, R any](ctx context.Context, w http.ResponseWriter, f *core.Future[T], wire func(T) R) {
	v, err := f.Await(ctx)
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	shard.WriteJSON(w, http.StatusOK, wire(v))
}

func (srv *Server[E]) handleFindAll(w http.ResponseWriter, r *http.Request) {
	q, eps, ok := srv.decodeEpsQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel, sopts := srv.submitOpts(r)
	defer cancel()
	respond(ctx, w, srv.pool.Submit(ctx, q, eps, sopts...), func(ms []core.Match) shard.MatchesResponse {
		return shard.MatchesResponse{Count: len(ms), Matches: srv.wireMatches(ms)}
	})
}

func (srv *Server[E]) handleLongest(w http.ResponseWriter, r *http.Request) {
	q, eps, ok := srv.decodeEpsQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel, sopts := srv.submitOpts(r)
	defer cancel()
	respond(ctx, w, srv.pool.SubmitLongest(ctx, q, eps, sopts...), srv.best)
}

func (srv *Server[E]) handleNearest(w http.ResponseWriter, r *http.Request) {
	req, q, err := srv.decodeQuery(w, r)
	if err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.EpsMax == nil || *req.EpsMax <= 0 {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`nearest requires "eps_max" > 0`))
		return
	}
	opts := core.NearestOptions{EpsMax: *req.EpsMax, EpsInc: *req.EpsMax / 16}
	if req.EpsInc != nil {
		opts.EpsInc = *req.EpsInc
	}
	if opts.EpsInc <= 0 {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`"eps_inc" must be > 0`))
		return
	}
	ctx, cancel, sopts := srv.submitOpts(r)
	defer cancel()
	respond(ctx, w, srv.pool.SubmitNearest(ctx, q, opts, sopts...), srv.best)
}

func (srv *Server[E]) handleFilter(w http.ResponseWriter, r *http.Request) {
	q, eps, ok := srv.decodeEpsQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel, sopts := srv.submitOpts(r)
	defer cancel()
	respond(ctx, w, srv.pool.SubmitFilter(ctx, q, eps, sopts...), func(hs []core.Hit[E]) shard.HitsResponse {
		return shard.HitsResponse{Count: len(hs), Hits: srv.wireHits(hs)}
	})
}

// handleBatch answers POST /query/batch: many queries of one kind in one
// request, fed to the matcher's batched entry points so they share index
// traversals (Section 7's many-queries-one-traversal path). Batches
// deliberately bypass the streaming pool — the pool's coalescing would
// re-chunk the batch, and the request already is the batch — and instead
// pin the store's current matcher through its view guard for the call.
func (srv *Server[E]) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req shard.BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if !shard.ValidBatchKind(req.Kind) {
		shard.WriteError(w, http.StatusBadRequest, fmt.Errorf(`"kind" must be findall, longest or filter, got %q`, req.Kind))
		return
	}
	if len(req.Queries) == 0 {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`"queries" must not be empty`))
		return
	}
	eps, err := needEps(req.Eps)
	if err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	qs := make([]seq.Sequence[E], len(req.Queries))
	for i, raw := range req.Queries {
		q, err := decodeSeq[E](raw)
		if err != nil {
			shard.WriteError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		qs[i] = q
	}
	mt, release := srv.st.View()
	defer release()
	resp := shard.BatchResponse{Kind: req.Kind, Count: len(qs)}
	switch req.Kind {
	case "findall":
		per := mt.FindAllBatch(qs, eps)
		resp.Matches = make([][]shard.Match, len(per))
		for i, ms := range per {
			resp.Matches[i] = srv.wireMatches(ms)
		}
	case "longest":
		ms, found := mt.LongestBatch(qs, eps)
		resp.Best = make([]shard.BestResult, len(ms))
		for i := range ms {
			b := srv.best(core.QueryResult{Match: ms[i], Found: found[i]})
			resp.Best[i] = shard.BestResult{Found: b.Found, Match: b.Match}
		}
	case "filter":
		per := mt.FilterHitsBatch(qs, eps)
		resp.Hits = make([][]shard.Hit, len(per))
		for i, hs := range per {
			resp.Hits[i] = srv.wireHits(hs)
		}
	}
	shard.WriteJSON(w, http.StatusOK, resp)
}

func (srv *Server[E]) handleStats(w http.ResponseWriter, r *http.Request) {
	// The atomic matcher peek: stats must not queue behind a mutation
	// holding the store's write lock.
	mt := srv.st.Matcher()
	resp := StatsResponse{
		Config:        srv.cfg,
		UptimeSeconds: time.Since(srv.start).Seconds(),
		NumWindows:    mt.NumWindows(),
		Stream:        srv.pool.StreamStats(),
	}
	resp.DistanceCalls.Build = mt.BuildDistanceCalls()
	resp.DistanceCalls.Filter = mt.FilterDistanceCalls()
	resp.DistanceCalls.Verify = mt.VerifyDistanceCalls()
	resp.Batch.Calls = mt.BatchCalls()
	resp.Batch.Queries = mt.BatchQueries()
	if srv.sched != nil {
		ss := srv.sched.Stats()
		resp.Snapshots = &ss
	}
	ids, live := srv.st.Len()
	resp.Store.Sequences = ids
	resp.Store.Live = live
	resp.Store.TTLs = len(srv.st.Expiries())
	resp.Store.Restored = srv.restored
	shard.WriteJSON(w, http.StatusOK, resp)
}

func (srv *Server[E]) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shard.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "num_windows": srv.st.Matcher().NumWindows()})
}

// --- Admin surface (POST /admin/*): mutate the live store while queries
// run. Each mutation takes the store's write lock, so it waits only for
// query claims already in flight; docs/PERSISTENCE.md documents the
// consistency model. ---

// appendRequest is the body of POST /admin/append. Sequence uses the
// same element-typed encoding as queries.
type appendRequest struct {
	Sequence json.RawMessage `json:"sequence"`
	// TTLSeconds schedules the sequence for retirement after this many
	// seconds (0 or absent: no TTL).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// AppendResponse answers POST /admin/append.
type AppendResponse struct {
	SeqID         int `json:"seq_id"`
	WindowsAdded  int `json:"windows_added"`
	NumWindows    int `json:"num_windows"`
	LiveSequences int `json:"live_sequences"`
}

func (srv *Server[E]) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if err := decodeBody(w, r, &req); err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Sequence) == 0 {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`missing "sequence"`))
		return
	}
	if req.TTLSeconds < 0 {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`"ttl_seconds" must be >= 0`))
		return
	}
	x, err := decodeSeq[E](req.Sequence)
	if err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var opts []store.AppendOption
	if req.TTLSeconds > 0 {
		opts = append(opts, store.WithTTL(time.Duration(req.TTLSeconds*float64(time.Second))))
	}
	res, err := srv.st.Append(x, opts...)
	if err != nil {
		shard.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	_, live := srv.st.Len()
	shard.WriteJSON(w, http.StatusOK, AppendResponse{
		SeqID: res.SeqID + srv.seqBase, WindowsAdded: res.Windows,
		NumWindows: srv.st.Matcher().NumWindows(), LiveSequences: live,
	})
}

type retireRequest struct {
	SeqID *int `json:"seq_id"`
}

// RetireResponse answers POST /admin/retire.
type RetireResponse struct {
	SeqID          int `json:"seq_id"`
	WindowsRemoved int `json:"windows_removed"`
	NumWindows     int `json:"num_windows"`
}

func (srv *Server[E]) handleRetire(w http.ResponseWriter, r *http.Request) {
	var req retireRequest
	if err := decodeBody(w, r, &req); err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.SeqID == nil {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`missing "seq_id"`))
		return
	}
	// The wire speaks global sequence IDs; the store numbers this shard's
	// slice from 0.
	local := *req.SeqID - srv.seqBase
	if local < 0 {
		shard.WriteError(w, http.StatusBadRequest, fmt.Errorf(
			"sequence %d is not owned by this shard (its range starts at %d)", *req.SeqID, srv.seqBase))
		return
	}
	removed, err := srv.st.Retire(local)
	switch {
	case errors.Is(err, core.ErrRetireUnsupported):
		// The backend cannot do it at all — a capability conflict, not a
		// bad request.
		shard.WriteError(w, http.StatusConflict, err)
		return
	case err != nil:
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	shard.WriteJSON(w, http.StatusOK, RetireResponse{
		SeqID: *req.SeqID, WindowsRemoved: removed,
		NumWindows: srv.st.Matcher().NumWindows(),
	})
}

// snapshotRequest is the body of POST /admin/snapshot: the server-side
// path to write (the daemon may not share a filesystem with the client,
// so the snapshot lands next to the daemon, atomically).
type snapshotRequest struct {
	Path string `json:"path"`
}

// SnapshotResponse answers POST /admin/snapshot.
type SnapshotResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

func (srv *Server[E]) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if err := decodeBody(w, r, &req); err != nil {
		shard.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Path == "" {
		shard.WriteError(w, http.StatusBadRequest, errors.New(`missing "path"`))
		return
	}
	if err := srv.st.SnapshotFile(req.Path); err != nil {
		shard.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	info, err := os.Stat(req.Path)
	if err != nil {
		shard.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	shard.WriteJSON(w, http.StatusOK, SnapshotResponse{Path: req.Path, Bytes: info.Size()})
}
