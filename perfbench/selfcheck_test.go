package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The benchmark's self-check: `go test` in this directory. It builds the
// benchmark and subseqctl, runs every workload for a few operations in
// both modes, and checks that each metric BENCHMARK.json names is printed
// with its unit and that a corrupted answer is reported as a failure.
// -short skips the fleet workload, which starts real processes.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

// fileMetric is one metric entry; only end-to-end metrics carry a bound.
type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// metric tables to the same names, units and order, and every workload it
// lists to one the program runs.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || (m.Name != "setup_s" && *m.Bound >= *bf.EndToEnd[0].Bound) {
			t.Errorf("%s: bound must be in (0, 0.25] and below setup_s's", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Bound != nil || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: better = %q and no bound wanted", m.Name, m.Better)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// buildAll compiles subseqctl and the benchmark into a temporary directory.
func buildAll(t *testing.T) (bench, subseqctl string) {
	t.Helper()
	dir := t.TempDir()
	bench, subseqctl = filepath.Join(dir, "perfbench"), filepath.Join(dir, "subseqctl")
	for _, b := range []*exec.Cmd{
		exec.Command("go", "build", "-o", bench, "."),
		exec.Command("go", "-C", "..", "build", "-o", subseqctl, "./cmd/subseqctl"),
	} {
		if out, err := b.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", b.Args, err, out)
		}
	}
	return bench, subseqctl
}

// runBench runs one short benchmark invocation and decodes its last line.
func runBench(t *testing.T, bench, subseqctl, workload string, extra ...string) (result, int) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "3", "--max-ops", "120",
		"--bin", subseqctl, "--root", "..", "--trace-dir", t.TempDir()}, extra...)
	cmd := exec.Command(bench, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "env {") {
		t.Fatalf("%s %v: want an env line and a result line, got:\n%s\nstderr:\n%s", workload, extra, stdout.String(), stderr.String())
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s %v: last line is not a result: %v\n%s", workload, extra, err, lines[len(lines)-1])
	}
	return res, code
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	bench, subseqctl := buildAll(t)
	for _, w := range bf.Workloads {
		if testing.Short() && strings.HasPrefix(w.Name, "fleet") {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, mode := range []struct {
				trace string
				want  map[string]string
			}{
				{"0", unitsOf(bf.EndToEnd)},
				{"1", unitsOf(bf.PerLayer)},
			} {
				start := time.Now()
				res, code := runBench(t, bench, subseqctl, w.Name, "--trace", mode.trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %s: exit %d, correct %v, %d of %d failed", mode.trace, code, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("trace %s: %d metrics printed, BENCHMARK.json names %d", mode.trace, len(res.Metrics), len(mode.want))
				}
				for name, unit := range mode.want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace %s: metric %s not printed", mode.trace, name)
					case m.Unit != unit:
						t.Errorf("trace %s: metric %s printed in %q, BENCHMARK.json says %q", mode.trace, name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace %s: metric %s = %v", mode.trace, name, m.Value)
					case mode.trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				t.Logf("trace %s: %d ops in %v", mode.trace, res.Attempted, time.Since(start).Round(time.Millisecond))
			}
		})
	}
}

func TestCorruptedAnswerFails(t *testing.T) {
	bf := readBenchmarkFile(t)
	bench, subseqctl := buildAll(t)
	for _, w := range bf.Workloads {
		if testing.Short() && strings.HasPrefix(w.Name, "fleet") {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			res, code := runBench(t, bench, subseqctl, w.Name, "--corrupt")
			if code == 0 || res.Correct || res.Failed < 1 {
				t.Fatalf("a corrupted answer went unnoticed: exit %d, correct %v, %d failed", code, res.Correct, res.Failed)
			}
		})
	}
}

func unitsOf(ms []fileMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	h := map[float64]int64{1: 50, 2: 50}
	if got := bucketQuantile(h, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := bucketQuantile(h, 0.75); got != 1.5 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
	// Negative deltas (buckets that only existed before) are ignored, the
	// overflow bucket reads as the largest finite bound.
	h = map[float64]int64{0.5: -3, 10: 1, 0: 1}
	if got := bucketQuantile(h, 0.99); got != 10 {
		t.Errorf("p99 with overflow = %v, want 10", got)
	}
	if got := bucketQuantile(map[float64]int64{}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}
