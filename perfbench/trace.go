package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer's public function: its name, its
// interval relative to the tracer's epoch, the span that caused it (-1 for
// a root) and the request it belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and hands out id -1, so untraced runs pay one branch per
// call site.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration (0 when tracing is off).
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, curA, curB time.Duration
		for j, iv := range ivs {
			switch {
			case j == 0:
				curA, curB = iv[0], iv[1]
			case iv[0] <= curB:
				curB = max(curB, iv[1])
			default:
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByReq maps request id to the self time of its span with the given
// name.
func selfByReq(spans []span, name string) map[int64]time.Duration {
	self := selfTimes(spans)
	out := make(map[int64]time.Duration)
	for i, s := range spans {
		if s.Name == name && s.End >= 0 {
			out[s.Req] = self[i]
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/<stem>.jsonl.
func writeSpans(dir, stem string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, stem+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
