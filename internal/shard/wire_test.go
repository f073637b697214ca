package shard

import (
	"encoding/json"
	"net/http"
	"testing"
)

// countingWriter is an http.ResponseWriter that discards the body and
// counts its bytes.
type countingWriter struct {
	h http.Header
	n int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkWriteJSON prices the wire format's indentation: a findall
// answer of 100 matches written indented (the format every endpoint
// uses) against the same value written compact. body-B is the response
// size.
func BenchmarkWriteJSON(b *testing.B) {
	resp := MatchesResponse{Count: 100, Matches: make([]Match, 100)}
	for i := range resp.Matches {
		resp.Matches[i] = Match{
			SeqID: i % 40, QStart: i % 7, QEnd: 40 + i%7,
			XStart: 20 * i, XEnd: 20*i + 41, Dist: float64(i % 3),
		}
	}
	compact := func(v any) []byte {
		out, _ := json.Marshal(v)
		return append(out, '\n')
	}
	for _, c := range []struct {
		name   string
		encode func(any) []byte
	}{{"Indented", encodeJSON}, {"Compact", compact}} {
		b.Run(c.name, func(b *testing.B) {
			w := &countingWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.n = 0
				writeRaw(w, http.StatusOK, c.encode(resp))
			}
			b.ReportMetric(float64(w.n), "body-B")
		})
	}
}
