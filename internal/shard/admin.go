package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Replica write fan-out: the admin surface behind the gateway. Reads
// scatter to *one* replica per range (whichever answers first); writes
// are the dual — /admin/append and /admin/retire go to EVERY replica of
// the owning range, /admin/snapshot to every replica of every range —
// because replicas are independent indexes that only stay
// interchangeable if each applies each mutation itself.
//
// Ownership: an append always lands on the tail range (shards number
// appended sequences after their existing slice, so the new sequence
// takes the next global IDs); a retire lands on the range whose [lo,hi)
// contains seq_id, exactly the ownership check the shards enforce
// themselves. An acknowledged append also grows the plan's tail range,
// so the new sequence is immediately retirable through the gateway.
//
// Accounting is per replica and quorum-scored: acks counts 2xx verdicts,
// quorum holds when a strict majority acked. The gateway is availability
// -biased like the read path — one ack makes the write observable, so
// one ack makes the overall response 200 with every miss itemised (an
// operator must heal a partially-acked range, e.g. by restarting the
// missed replica from a snapshot); zero acks is a failure: the first
// 4xx verdict (bad request, unsupported retire, unowned id) is passed
// through verbatim, anything else is a 502 naming each replica's error.
//
// Every acknowledged mutation bumps the shard-plan epoch and flushes the
// result cache before the client sees the response. Cache keys embed the
// epoch (CacheKey), so a request that starts after the write's response
// can never match — let alone be served — an answer computed before it.

// adminFanoutTimeout bounds one write fan-out. The fan-out runs on a
// context detached from the client's: once the gateway starts telling
// replicas to mutate, a client disconnect must not leave the range half
// written.
const adminFanoutTimeout = 30 * time.Second

func (g *Gateway) handleAdminAppend(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	plan := g.Plan()
	ri := len(plan.Ranges) - 1
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	results := g.fanoutRange(ctx, ri, "/admin/append", func(int) []byte { return body })
	acks := countAcks(results)
	if acks == 0 {
		writeAdminFailure(w, "append", results)
		return
	}
	// Every ack must report the same allocated global ID; replicas of one
	// range hold identical slices, so disagreement means split brain.
	seqID, diverged := -1, false
	for _, res := range results {
		if !res.OK {
			continue
		}
		var ar struct {
			SeqID *int `json:"seq_id"`
		}
		if json.Unmarshal(res.Response, &ar) != nil || ar.SeqID == nil {
			continue
		}
		switch {
		case seqID == -1:
			seqID = *ar.SeqID
		case *ar.SeqID != seqID:
			diverged = true
		}
	}
	rng := plan.Ranges[ri]
	resp := AdminFanoutResponse{Op: "append", Shard: &ri, Acks: acks,
		Replicas: len(results), Quorum: 2*acks > len(results), Diverged: diverged,
		Results: results}
	if seqID >= 0 {
		rng = g.growPlan(seqID)
		resp.SeqID = &seqID
	}
	resp.Range = &rng
	resp.Epoch, resp.Invalidated = g.bumpEpoch()
	g.writes.Add(1)
	WriteJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleAdminRetire(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Peek at seq_id to route; the body is still forwarded verbatim so
	// the shards run their own full validation.
	var req struct {
		SeqID *int `json:"seq_id"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid retire request: %w", err))
		return
	}
	if req.SeqID == nil {
		WriteError(w, http.StatusBadRequest, errors.New(`"seq_id" is required`))
		return
	}
	plan := g.Plan()
	ri := -1
	for i, rg := range plan.Ranges {
		if *req.SeqID >= rg.Lo && *req.SeqID < rg.Hi {
			ri = i
			break
		}
	}
	if ri < 0 {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("seq_id %d is outside every shard range (plan has %d sequences)", *req.SeqID, plan.Seqs))
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	results := g.fanoutRange(ctx, ri, "/admin/retire", func(int) []byte { return body })
	acks := countAcks(results)
	if acks == 0 {
		writeAdminFailure(w, "retire", results)
		return
	}
	rng := plan.Ranges[ri]
	resp := AdminFanoutResponse{Op: "retire", Shard: &ri, Range: &rng, SeqID: req.SeqID,
		Acks: acks, Replicas: len(results), Quorum: 2*acks > len(results), Results: results}
	resp.Epoch, resp.Invalidated = g.bumpEpoch()
	g.writes.Add(1)
	WriteJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid snapshot request: %w", err))
		return
	}
	if strings.TrimSpace(req.Path) == "" {
		WriteError(w, http.StatusBadRequest, errors.New(`"path" is required`))
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	// Every replica of every range snapshots its own slice; the path is
	// suffixed per replica so the files never collide (each is restorable
	// with -restore on a process taking over that replica's slot).
	var all []AdminReplicaResult
	for ri := range g.health {
		suffix := func(j int) string { return fmt.Sprintf("%s.s%dr%d", req.Path, ri, j) }
		results := g.fanoutRange(ctx, ri, "/admin/snapshot", func(j int) []byte {
			b, _ := json.Marshal(struct {
				Path string `json:"path"`
			}{suffix(j)})
			return b
		})
		for j := range results {
			results[j].Path = suffix(j)
		}
		all = append(all, results...)
	}
	acks := countAcks(all)
	if acks == 0 {
		writeAdminFailure(w, "snapshot", all)
		return
	}
	// Snapshots mutate nothing: the epoch is reported, not bumped.
	WriteJSON(w, http.StatusOK, AdminFanoutResponse{Op: "snapshot", Acks: acks,
		Replicas: len(all), Quorum: 2*acks > len(all), Epoch: g.epoch.Load(), Results: all})
}

// fanoutRange posts a body to every replica of range ri concurrently —
// no failover, no hedging, no breaker-preferred ordering: a write is for
// each replica individually, not for whichever answers first. Breakers
// are still fed through tryReplica, so a dead replica discovered by a
// write is deflected from subsequent reads.
func (g *Gateway) fanoutRange(ctx context.Context, ri int, path string, body func(replica int) []byte) []AdminReplicaResult {
	set := g.health[ri]
	out := make([]AdminReplicaResult, len(set.addrs))
	var wg sync.WaitGroup
	for j := range set.addrs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rep := g.tryReplica(ctx, ri, j, path, body(j))
			ar := AdminReplicaResult{Shard: ri, Replica: j, Addr: set.addrs[j]}
			if rep.err != nil {
				ar.Error = rep.err.Error()
			} else {
				ar.Status = rep.status
				ar.OK = rep.status >= 200 && rep.status < 300
				ar.Response = json.RawMessage(rep.body)
				if !ar.OK {
					ar.Error = shardErrorText(rep.body)
				}
			}
			out[j] = ar
		}(j)
	}
	wg.Wait()
	return out
}

// countAcks counts the 2xx verdicts in a fan-out.
func countAcks(results []AdminReplicaResult) int {
	n := 0
	for _, r := range results {
		if r.OK {
			n++
		}
	}
	return n
}

// writeAdminFailure renders a zero-ack fan-out: the first client-error
// verdict passes through verbatim (every replica shares the session
// spec, so one 4xx speaks for the range — a malformed body, an
// unsupported retire, an unowned seq_id); otherwise the write found no
// living replica and fails 502 with each attempt itemised.
func writeAdminFailure(w http.ResponseWriter, op string, results []AdminReplicaResult) {
	for _, res := range results {
		if res.Status >= 400 && res.Status < 500 && len(res.Response) > 0 {
			writeRaw(w, res.Status, res.Response)
			return
		}
	}
	msgs := make([]string, len(results))
	for i, res := range results {
		if res.Status != 0 {
			msgs[i] = fmt.Sprintf("replica %d (%s): HTTP %d: %s", res.Replica, res.Addr, res.Status, res.Error)
		} else {
			msgs[i] = fmt.Sprintf("replica %d (%s): %s", res.Replica, res.Addr, res.Error)
		}
	}
	WriteError(w, http.StatusBadGateway,
		fmt.Errorf("%s: no replica acknowledged the write: %s", op, strings.Join(msgs, "; ")))
}

// growPlan extends the plan's tail range to cover an appended sequence's
// global ID, returning the (possibly grown) tail range. Serialised by
// adminMu; readers see the old or new plan atomically either way.
func (g *Gateway) growPlan(seqID int) Range {
	g.adminMu.Lock()
	defer g.adminMu.Unlock()
	p := *g.planp.Load()
	last := len(p.Ranges) - 1
	if seqID >= p.Ranges[last].Hi {
		rs := append([]Range(nil), p.Ranges...)
		rs[last].Hi = seqID + 1
		p.Ranges = rs
		p.Seqs = seqID + 1
		g.planp.Store(&p)
	}
	return g.planp.Load().Ranges[last]
}

// bumpEpoch advances the shard-plan epoch and flushes the result cache:
// the write path's invalidation. Ordering matters — the epoch moves
// first, so a concurrent flight that still computes under the old epoch
// can only populate an old-epoch key no future request will ever read.
func (g *Gateway) bumpEpoch() (epoch uint64, invalidated int) {
	epoch = g.epoch.Add(1)
	if g.cache != nil {
		invalidated = g.cache.Flush()
	}
	return epoch, invalidated
}
