// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every answer, and prints one JSON result
// line: the end-to-end metrics of an untraced run (--trace 0), or the
// per-layer metrics of a traced run (--trace 1). BENCHMARK.json at the
// repository root lists the workloads and metrics; README.md beside this
// file explains them. It is normally started through run.sh, which builds
// subseqctl and this program from the checkout first:
//
//	bash perfbench/run.sh --workload lib-protein-findall --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the system
// sees them. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"dist_calls_per_query", "count"},
	{"write_p50_ms", "ms"},
	{"mem_mb", "MB"},
	{"ok_rate", "ratio"},
}

// perLayer are the metrics of a traced run, named by module. A layer a
// workload does not pass through reports 0.
var perLayer = []metricDef{
	{"core.filter.self_ms", "ms"},
	{"core.filter.dist_calls", "count"},
	{"core.filter.hits", "count"},
	{"core.filter.pct_naive", "%"},
	{"core.filter.hit_yield", "ratio"},
	{"core.verify.self_ms", "ms"},
	{"core.verify.dist_calls", "count"},
	{"core.verify.match_yield", "ratio"},
	{"refnet.build_s", "s"},
	{"refnet.build_dist_calls", "count"},
	{"refnet.index_bytes_per_window", "B"},
	{"dist.fn_ns", "ns"},
	{"dist.bounded_ns", "ns"},
	{"dist.kernel_feed_ns", "ns"},
	{"stream.queue_wait_p50_ms", "ms"},
	{"stream.queue_wait_p99_ms", "ms"},
	{"stream.coalesce_factor", "ratio"},
	{"stream.shed", "count"},
	{"serve.http_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.resp_bytes", "B"},
	{"gateway.hop_ms", "ms"},
	{"gateway.hit_ms", "ms"},
	{"gateway.healthz_ms", "ms"},
	{"gateway.rtt_ms", "ms"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.evictions", "count"},
	{"gateway.invalidations", "count"},
	{"gateway.flight_shared", "count"},
	{"gateway.write_fanout_ms", "ms"},
	{"gateway.write_in_load_ms", "ms"},
	{"shard.dist_calls_per_query", "count"},
	{"store.append_ms", "ms"},
	{"store.retire_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // the subseqctl binary the fleet workload starts
	root     string // the checkout the binaries were built from
	maxOps   int    // stop after this many timed operations (0: run for seconds)
	corrupt  bool   // corrupt one answer before checking (self-check)
	traceDir string
}

// setups is how many set-ups a run makes; setup_s is their median. A run
// capped by --max-ops sets up once.
func (c runConfig) setups() int {
	if c.maxOps > 0 {
		return 1
	}
	return 3
}

// writePhase is the least time a write phase runs: writePhase in a timed
// run, none in a run capped by --max-ops.
func (c runConfig) writePhase() time.Duration {
	if c.maxOps > 0 {
		return 0
	}
	return writePhase
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig, *tracer, *children) (*outcome, error){
	"lib-protein-findall": runProteinFindAll,
	"lib-traj-longest":    runTrajLongest,
	"fleet-zipf-rw":       runFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBudget bounds one invocation; the watchdog stops every child process
// and exits non-zero when it runs out.
const runBudget = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin/subseqctl", "subseqctl binary for the fleet workload")
	flag.StringVar(&cfg.root, "root", ".", "checkout root, for the environment record")
	flag.IntVar(&cfg.maxOps, "max-ops", 0, "stop the timed phase after this many operations (0: no limit)")
	flag.BoolVar(&cfg.corrupt, "corrupt", false, "corrupt one answer before checking, to prove the check fails")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	runW, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(names, ", "))
		return 2
	}

	kids := &children{}
	defer kids.stopAll()
	watchdog := time.AfterFunc(runBudget, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping\n", runBudget)
		kids.stopAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			kids.stopAll()
			os.Exit(4)
		}
	}()

	envLine, err := json.Marshal(environment(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("env %s\n", envLine)

	tr := newTracer(cfg.trace)
	steal0, total0 := cpuSteal()
	out, err := runW(cfg, tr, kids)
	kids.stopAll()
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor ran other guests on this machine's CPUs: the
		// usual cause of a run that is slow throughout.
		fmt.Fprintf(os.Stderr, "perfbench: CPU steal %.1f%% during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		stem := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if path, err := writeSpans(cfg.traceDir, stem, tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		}
	}
	res, err := assemble(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble selects the metric set for the run's mode. An end-to-end metric
// a workload failed to produce is a bug in the benchmark; a per-layer
// metric of a layer the workload does not reach reads 0.
func assemble(cfg runConfig, out *outcome) (result, error) {
	if out.attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// env is the record printed before every result, so that results taken
// on different machines or trees are never compared unknowingly.
type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

func environment(cfg runConfig) env {
	return env{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Commit: commit(cfg.root), SourceHash: sourceHash(cfg.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal reads the steal and total jiffies of all CPUs from /proc/stat
// (zeros where it is unreadable).
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit is the checkout's git commit, or "none" outside a git work tree
// (the source hash still identifies the tree).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories (build output, VCS metadata).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		_, err = io.Copy(h, bytes.NewReader(b))
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
