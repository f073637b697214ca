package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/registry"
)

// wireQuery is a verbatim 12-element subsequence of a newSpec-generated
// dataset in its element-typed JSON encoding, so every query kind finds
// something to answer with.
func wireQuery[E any](t *testing.T, dataset string) string {
	ds, err := registry.GenerateDataset[E](dataset, 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var v any = ds.Sequences[0][2:14]
	switch q := v.(type) {
	case seq.Sequence[byte]:
		v = string(q)
	case seq.Sequence[seq.Point2]:
		pts := make([][2]float64, len(q))
		for i, p := range q {
			pts[i] = [2]float64{p.X, p.Y}
		}
		v = pts
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// TestServeWireGolden pins the serve wire format byte for byte, whitespace
// included, against testdata/wire/: one dataset per element type, every
// query kind, every batch kind, the admin writes, /healthz, a 400 and the
// cover tree's 409 on retire. /stats is left out because it carries
// uptime. Run with -update to accept a deliberate format change.
func TestServeWireGolden(t *testing.T) {
	check := func(base, golden, path, body string, status int) {
		t.Helper()
		method := http.MethodPost
		if body == "" {
			method = http.MethodGet
		}
		req, _ := http.NewRequest(method, base+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d (want %d), Content-Type %q", golden, resp.StatusCode, status, resp.Header.Get("Content-Type"))
		}
		file := filepath.Join("testdata", "wire", golden+".json")
		if *update {
			os.MkdirAll(filepath.Dir(file), 0o755)
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/subseqctl -run TestServeWireGolden -update` to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, file, got, want)
		}
	}
	for _, tg := range []struct {
		dataset, measure, q, eps, epsMax string
	}{
		{"proteins", "levenshtein-fast", wireQuery[byte](t, "proteins"), "2", "4"},
		{"songs", "dfd", wireQuery[float64](t, "songs"), "1", "2"},
		{"traj", "erp", wireQuery[seq.Point2](t, "traj"), "20", "40"},
	} {
		ts, _ := newTestServer(t, tg.dataset, tg.measure, "refnet")
		qe := `{"query":` + tg.q + `,"eps":` + tg.eps + `}`
		batch := func(kind string) string {
			return `{"kind":"` + kind + `","queries":[` + tg.q + `,` + tg.q + `],"eps":` + tg.eps + `}`
		}
		// The appended sequence is the query itself, so its encoding is
		// valid for the dataset's element type.
		for _, c := range []struct {
			name, path, body string
			status           int
		}{
			{"findall", "/query/findall", qe, http.StatusOK},
			{"longest", "/query/longest", qe, http.StatusOK},
			{"nearest", "/query/nearest", `{"query":` + tg.q + `,"eps_max":` + tg.epsMax + `}`, http.StatusOK},
			{"filter", "/query/filter", qe, http.StatusOK},
			{"batch_findall", "/query/batch", batch("findall"), http.StatusOK},
			{"batch_longest", "/query/batch", batch("longest"), http.StatusOK},
			{"batch_filter", "/query/batch", batch("filter"), http.StatusOK},
			{"missing_eps", "/query/findall", `{"query":` + tg.q + `}`, http.StatusBadRequest},
			{"healthz", "/healthz", "", http.StatusOK},
			{"append", "/admin/append", `{"sequence":` + tg.q + `}`, http.StatusOK},
			{"retire", "/admin/retire", `{"seq_id":1}`, http.StatusOK},
		} {
			check(ts.URL, tg.dataset+"_"+c.name, c.path, c.body, c.status)
		}
	}
	tc, _ := newTestServer(t, "proteins", "levenshtein-fast", "covertree")
	check(tc.URL, "covertree_retire", "/admin/retire", `{"seq_id":0}`, http.StatusConflict)
}
