package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/refnet"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/registry"
)

// Session construction is registry-driven: the dataset name fixes the
// element type, the measure and backend are resolved by name and validated
// against each other before anything is generated, and the one place the
// program mentions concrete element types is the three-way dispatch in
// newSession. Everything downstream is generic.

// session is the untyped face of a typedSession, letting the subcommands
// ignore the dataset's element type.
type session interface {
	describe() string
	numWindows() int
	netStats() (refnet.Stats, []struct{ Level, Count int })
	distanceSample(samples int) []float64
	runQuery(opts queryOpts) (string, error)
	// newServer builds the long-lived serving state behind `subseqctl
	// serve`: the live store, answered by internal/serve. A non-empty
	// restore path restores the store from a snapshot (validated against
	// this session's spec) instead of indexing the generated dataset.
	newServer(spec registry.ServerSpec, restore string) (queryServer, error)
}

// queryOpts carries the query subcommand's flags.
type queryOpts struct {
	typ     string
	eps     float64
	qlen    int
	rate    float64
	queries int
	workers int
	seed    uint64
}

// typedSession binds a resolved spec to its generated dataset and measure.
type typedSession[E any] struct {
	spec    registry.SessionSpec
	minfo   registry.MeasureInfo
	backend registry.BackendInfo
	lambda0 int
	measure dist.Measure[E]
	ds      data.Dataset[E]
	mutate  func(rng *rand.Rand, e E) E
}

func newSession(spec registry.SessionSpec) (session, error) {
	di, err := registry.DatasetByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	switch di.Elem {
	case "byte":
		return buildSession[byte](spec)
	case "float64":
		return buildSession[float64](spec)
	case "point2":
		return buildSession[seq.Point2](spec)
	default:
		return nil, fmt.Errorf("dataset %q has unsupported element type %q", di.Name, di.Elem)
	}
}

func buildSession[E any](spec registry.SessionSpec) (session, error) {
	if spec.WindowLen == 0 {
		spec.WindowLen = 20
	}
	if spec.WindowLen < 2 {
		return nil, fmt.Errorf("window length must be at least 2, got %d", spec.WindowLen)
	}
	_, mi, bi, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	m, err := registry.Measure[E](mi.Name)
	if err != nil {
		return nil, err
	}
	lambda0, err := spec.Lambda0For(mi)
	if err != nil {
		return nil, err
	}
	ds, err := registry.GenerateDataset[E](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Sharded() {
		// One shard of the logical index: generation is deterministic per
		// (dataset, windows, window_len, seed), so every shard process
		// derives the same logical whole and keeps only its slice of whole
		// sequences. Matches never span sequences, which is what makes the
		// scatter-gather merge exact (see internal/shard). Wire-level
		// sequence IDs are re-based by ShardLo in internal/serve, so shards
		// report global numbering.
		if spec.ShardHi > len(ds.Sequences) {
			return nil, fmt.Errorf("shard range [%d,%d) exceeds the dataset's %d sequences (windows=%d at windowlen=%d generates %d sequences)",
				spec.ShardLo, spec.ShardHi, len(ds.Sequences), spec.Windows, spec.WindowLen, len(ds.Sequences))
		}
		ds.Sequences = ds.Sequences[spec.ShardLo:spec.ShardHi]
		ds.Windows = seq.PartitionAll(ds.Sequences, spec.WindowLen)
	}
	mut, err := registry.QueryMutator[E](spec.Dataset)
	if err != nil {
		return nil, err
	}
	return &typedSession[E]{
		spec: spec, minfo: mi, backend: bi, lambda0: lambda0,
		measure: m, ds: ds, mutate: mut,
	}, nil
}

func (s *typedSession[E]) describe() string {
	d := fmt.Sprintf("dataset=%s windows=%d measure=%s backend=%s lambda=%d lambda0=%d",
		s.spec.Dataset, len(s.ds.Windows), s.minfo.Name, s.backend.Name,
		2*s.spec.WindowLen, s.lambda0)
	if s.spec.Sharded() {
		d += fmt.Sprintf(" shard=[%d,%d)", s.spec.ShardLo, s.spec.ShardHi)
	}
	return d
}

func (s *typedSession[E]) numWindows() int { return len(s.ds.Windows) }

func (s *typedSession[E]) netStats() (refnet.Stats, []struct{ Level, Count int }) {
	net := refnet.New(func(a, b seq.Window[E]) float64 { return s.measure.Fn(a.Data, b.Data) })
	for _, w := range s.ds.Windows {
		net.Insert(w)
	}
	return net.Stats(), net.LevelHistogram()
}

func (s *typedSession[E]) distanceSample(samples int) []float64 {
	return stats.SampleDistances(s.ds.Windows,
		func(a, b seq.Window[E]) float64 { return s.measure.Fn(a.Data, b.Data) }, samples, 1)
}

func (s *typedSession[E]) config() core.Config {
	return core.Config{
		Params: core.Params{Lambda: 2 * s.spec.WindowLen, Lambda0: s.lambda0},
		Index:  s.backend.Kind,
	}
}

func (s *typedSession[E]) matcher() (*core.Matcher[E], error) {
	return core.NewMatcher(s.measure, s.config(), s.ds.Sequences)
}

// store builds the live, mutable serving store over the generated
// dataset (see internal/store: same matcher underneath, plus the
// append/retire/snapshot lifecycle behind `subseqctl serve`'s admin
// endpoints).
func (s *typedSession[E]) store() (*store.Store[E], error) {
	return store.New(s.measure, s.config(), s.ds.Sequences)
}

// runQuery answers opts.queries generated queries. A single query takes the
// sequential per-query path; several take the batched engine (one shared
// index traversal per chunk); several with opts.workers > 1 fan the batch
// over a QueryPool.
func (s *typedSession[E]) runQuery(opts queryOpts) (string, error) {
	mt, err := s.matcher()
	if err != nil {
		return "", err
	}
	if opts.queries < 1 {
		opts.queries = 1
	}
	qs := make([]seq.Sequence[E], opts.queries)
	for i := range qs {
		qs[i] = data.RandomQuery(s.ds, opts.qlen, opts.rate, s.mutate, opts.seed+uint64(i))
	}
	var pool *core.QueryPool[E]
	mode := "sequential"
	if opts.workers > 1 {
		pool = core.NewQueryPool(mt, opts.workers)
		mode = fmt.Sprintf("pool(%d workers)", pool.Workers())
	} else if opts.queries > 1 {
		mode = "batched"
	}

	start := time.Now()
	var b strings.Builder
	switch canonicalQueryType(opts.typ) {
	case "filter":
		var hits [][]core.Hit[E]
		switch {
		case pool != nil:
			hits = pool.FilterHits(qs, opts.eps)
		default:
			hits = mt.FilterHitsBatch(qs, opts.eps)
		}
		total := 0
		for _, h := range hits {
			total += len(h)
		}
		fmt.Fprintf(&b, "filter: %d segment-window hits at eps=%g over %d queries",
			total, opts.eps, len(qs))
	case "findall":
		var ms [][]core.Match
		switch {
		case pool != nil:
			ms = pool.FindAll(qs, opts.eps)
		case len(qs) > 1:
			ms = mt.FindAllBatch(qs, opts.eps)
		default:
			ms = [][]core.Match{mt.FindAll(qs[0], opts.eps)}
		}
		total := 0
		for _, m := range ms {
			total += len(m)
		}
		fmt.Fprintf(&b, "type I (findall): %d similar pairs at eps=%g over %d queries",
			total, opts.eps, len(qs))
	case "longest":
		var ms []core.Match
		var found []bool
		switch {
		case pool != nil:
			ms, found = pool.Longest(qs, opts.eps)
		case len(qs) > 1:
			ms, found = mt.LongestBatch(qs, opts.eps)
		default:
			m, ok := mt.Longest(qs[0], opts.eps)
			ms, found = []core.Match{m}, []bool{ok}
		}
		n, best := 0, core.Match{}
		for i, ok := range found {
			if ok {
				n++
				if ms[i].QLen() > best.QLen() {
					best = ms[i]
				}
			}
		}
		fmt.Fprintf(&b, "type II (longest): %d/%d queries matched within eps=%g", n, len(qs), opts.eps)
		if n > 0 {
			fmt.Fprintf(&b, "; longest %v", best)
		}
	case "nearest":
		nopts := core.NearestOptions{EpsMax: opts.eps, EpsInc: opts.eps / 16}
		var ms []core.Match
		var found []bool
		if pool != nil {
			ms, found = pool.Nearest(qs, nopts)
		} else {
			// Type III shares no traversal across queries, so there is no
			// batched path to report.
			mode = "sequential"
			ms, found = make([]core.Match, len(qs)), make([]bool, len(qs))
			for i, q := range qs {
				ms[i], found[i] = mt.Nearest(q, nopts)
			}
		}
		n := 0
		var nearest core.Match
		first := true
		for i, ok := range found {
			if ok {
				n++
				if first || ms[i].Dist < nearest.Dist {
					nearest, first = ms[i], false
				}
			}
		}
		fmt.Fprintf(&b, "type III (nearest): %d/%d queries matched within eps=%g", n, len(qs), opts.eps)
		if n > 0 {
			fmt.Fprintf(&b, "; nearest %v", nearest)
		}
	default:
		return "", fmt.Errorf("unknown query type %q (want findall, longest, nearest or filter; aliases I, II, III)", opts.typ)
	}
	fmt.Fprintf(&b, "\n%s in %v (filter calls %d, verify calls %d)",
		mode, time.Since(start).Round(time.Millisecond),
		mt.FilterDistanceCalls(), mt.VerifyDistanceCalls())
	return b.String(), nil
}

// canonicalQueryType maps the paper's numeral names onto the verb names.
func canonicalQueryType(typ string) string {
	switch typ {
	case "I", "i":
		return "findall"
	case "II", "ii":
		return "longest"
	case "III", "iii":
		return "nearest"
	default:
		return typ
	}
}
