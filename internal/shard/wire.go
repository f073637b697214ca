package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The serving tier's wire schema, defined once: internal/serve answers
// with these types, the scatter-gather gateway decodes, merges and
// re-encodes them, and docs/SERVING.md documents them. Because the
// gateway speaks the same protocol downstream (to shards) and upstream
// (to clients), a client cannot tell a gateway from a single node except
// by the optional "degradation" block. The query payload itself stays a
// json.RawMessage throughout: the gateway is element-agnostic and never
// decodes sequences, it only fans bodies out and merges the typed result
// envelopes. WriteJSON is the one response writer both sides share.

// Match is one verified subsequence match (core.Match on the wire).
type Match struct {
	SeqID  int     `json:"seq_id"`
	QStart int     `json:"q_start"`
	QEnd   int     `json:"q_end"`
	XStart int     `json:"x_start"`
	XEnd   int     `json:"x_end"`
	Dist   float64 `json:"dist"`
}

// QLen is the matched query-side length, the quantity Type-II (longest)
// queries maximise.
func (m Match) QLen() int { return m.QEnd - m.QStart }

// Hit is one filtered segment↔window pair.
type Hit struct {
	SeqID       int `json:"seq_id"`
	WindowStart int `json:"window_start"`
	WindowEnd   int `json:"window_end"`
	SegStart    int `json:"segment_start"`
	SegEnd      int `json:"segment_end"`
}

// MatchesResponse answers findall. Degradation is present only when a
// gateway answered with one or more shards unavailable.
type MatchesResponse struct {
	Count       int          `json:"count"`
	Matches     []Match      `json:"matches"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// BestResponse answers longest and nearest.
type BestResponse struct {
	Found       bool         `json:"found"`
	Match       *Match       `json:"match,omitempty"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// HitsResponse answers filter.
type HitsResponse struct {
	Count       int          `json:"count"`
	Hits        []Hit        `json:"hits"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// ErrorResponse is the error envelope every endpoint uses.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- Writing responses ---

// encodeJSON materialises a response body in the wire format: indented
// two spaces, HTML-escaped, with a trailing newline. perfbench sizes the
// gateway cache budget from these bytes, so the format is pinned
// (TestServeWireGolden in cmd/subseqctl).
func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return []byte(`{"error":"encoding response"}` + "\n")
	}
	return append(b, '\n')
}

// WriteJSON answers with v encoded in the wire format.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeRaw(w, status, encodeJSON(v))
}

// writeRaw answers with an already-encoded body; status 0 marks a query
// flight that died without producing a result (leader panic).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status == 0 {
		status = http.StatusInternalServerError
		body = encodeJSON(ErrorResponse{Error: "query flight aborted"})
	}
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError answers with err in the error envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// BatchRequest is the body of POST /query/batch: many queries of one
// kind, answered by a single FilterHitsBatch/FindAllBatch/LongestBatch
// traversal on each serving process. Queries stay raw — the serve
// process decodes them element-typed; the gateway forwards them opaque.
type BatchRequest struct {
	// Kind selects the query type: "findall", "longest" or "filter"
	// (nearest probes radii adaptively and has no batched form).
	Kind    string            `json:"kind"`
	Queries []json.RawMessage `json:"queries"`
	// Eps is the shared radius (all kinds).
	Eps *float64 `json:"eps"`
}

// BatchResponse answers a batch: Results[i] answers Queries[i]. Exactly
// one of Matches/Best/Hits is populated, per Kind.
type BatchResponse struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
	// Matches answers findall batches: Matches[i] is query i's matches.
	Matches [][]Match `json:"matches,omitempty"`
	// Best answers longest batches: Best[i] is query i's best match.
	Best []BestResult `json:"best,omitempty"`
	// Hits answers filter batches: Hits[i] is query i's hits.
	Hits        [][]Hit      `json:"hits,omitempty"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// BestResult is one query's longest-match answer inside a batch.
type BestResult struct {
	Found bool   `json:"found"`
	Match *Match `json:"match,omitempty"`
}

// ValidBatchKind reports whether kind names a batched query type.
func ValidBatchKind(kind string) bool {
	switch kind {
	case "findall", "longest", "filter":
		return true
	}
	return false
}

// --- Admin write fan-out (admin.go) ---

// AdminReplicaResult is one replica's outcome in a gateway write
// fan-out. Response carries the replica's own answer verbatim (the
// single-node serve.AppendResponse/RetireResponse/SnapshotResponse); Path is
// set for snapshots (the per-replica target the gateway substituted).
type AdminReplicaResult struct {
	Shard    int             `json:"shard"`
	Replica  int             `json:"replica"`
	Addr     string          `json:"addr"`
	OK       bool            `json:"ok"`
	Status   int             `json:"status,omitempty"`
	Error    string          `json:"error,omitempty"`
	Path     string          `json:"path,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// AdminFanoutResponse answers POST /admin/{append,retire,snapshot} on
// the gateway: the owning range (append/retire), the global sequence ID
// the write concerned, quorum accounting over the fan-out, the plan
// epoch after the write and how many cached answers the write
// invalidated. Diverged flags acked replicas disagreeing on the
// allocated ID — split brain an operator must heal.
type AdminFanoutResponse struct {
	Op          string               `json:"op"`
	Shard       *int                 `json:"shard,omitempty"`
	Range       *Range               `json:"range,omitempty"`
	SeqID       *int                 `json:"seq_id,omitempty"`
	Acks        int                  `json:"acks"`
	Replicas    int                  `json:"replicas"`
	Quorum      bool                 `json:"quorum"`
	Diverged    bool                 `json:"diverged,omitempty"`
	Epoch       uint64               `json:"epoch"`
	Invalidated int                  `json:"invalidated,omitempty"`
	Results     []AdminReplicaResult `json:"results"`
}

// --- Result cache (cache.go) ---

// CacheCounters reports the gateway result cache on /stats: traffic
// (hits/misses), pressure (evictions against the byte budget, current
// residency), write-path invalidations, and the configured limits.
type CacheCounters struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	MaxBytes      int64   `json:"max_bytes"`
	TTLSeconds    float64 `json:"ttl_seconds"`
}

// --- Degradation: typed partial failure ---

// ShardFailure records one shard range that could not answer a query.
// Status is the HTTP status the shard returned, or 0 when the failure
// was at the transport (connection refused, timeout). With replicated
// ranges a failure means *every* replica of the range failed; Replicas
// then itemises each replica's own error, and Addr lists the whole set.
type ShardFailure struct {
	Shard    int            `json:"shard"`
	Range    Range          `json:"range"`
	Addr     string         `json:"addr"`
	Status   int            `json:"status,omitempty"`
	Error    string         `json:"error"`
	Replicas []ReplicaError `json:"replicas,omitempty"`
}

// ReplicaError is one replica's contribution to a range failure.
type ReplicaError struct {
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	Status  int    `json:"status,omitempty"`
	Error   string `json:"error"`
}

func (f ShardFailure) String() string {
	if f.Status != 0 {
		return fmt.Sprintf("shard %d %s (%s): HTTP %d: %s", f.Shard, f.Range, f.Addr, f.Status, f.Error)
	}
	return fmt.Sprintf("shard %d %s (%s): %s", f.Shard, f.Range, f.Addr, f.Error)
}

// --- Health reporting: breaker state on the wire ---

// BreakerStatus is one replica breaker's snapshot as /healthz and
// /stats report it: the state name ("closed", "open", "half-open"), the
// current consecutive-failure streak, and the last error observed.
type BreakerStatus struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastError           string `json:"last_error,omitempty"`
}

// ReplicaHealth is one replica's health line. OK is the live probe
// verdict on /healthz and the breaker-closed verdict on /stats (which
// does not probe).
type ReplicaHealth struct {
	Replica int           `json:"replica"`
	Addr    string        `json:"addr"`
	OK      bool          `json:"ok"`
	Breaker BreakerStatus `json:"breaker"`
}

// RangeHealth is one shard range's replica roster: the range is up
// while any replica is.
type RangeHealth struct {
	Shard    int             `json:"shard"`
	Range    Range           `json:"range"`
	Up       int             `json:"up"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// HealthzResponse answers GET /healthz on the gateway. OK (and HTTP
// 200) holds while at least one range can answer at all; FullCoverage
// additionally requires every range up — an operator watching a sick
// fleet sees full_coverage drop (and the per-replica breaker detail
// name the culprit) while ok still holds.
type HealthzResponse struct {
	OK           bool          `json:"ok"`
	ShardsUp     int           `json:"shards_up"`
	Shards       int           `json:"shards"`
	FullCoverage bool          `json:"full_coverage"`
	Ranges       []RangeHealth `json:"ranges"`
}

// Degradation marks a merged response assembled without every shard:
// the answer is complete over the surviving shards' sequence ranges and
// silent about the failed ones. Clients that need totality must treat a
// degraded response as an error; clients that prefer availability get
// the best answer the surviving fleet can give, with the blind spots
// named.
type Degradation struct {
	Degraded bool           `json:"degraded"`
	Failures []ShardFailure `json:"failures"`
}
