package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/registry"
)

// subseqctl serve: the long-lived serving path. A session (dataset ×
// measure × backend, resolved by the registry exactly as the query
// subcommand resolves it) is built once at startup — or restored from a
// snapshot in seconds with -restore — and wrapped in a live store
// (internal/store), which internal/serve answers over HTTP. This file
// holds the process around it: flag and session-list parsing, the
// restore-or-build decision, multi-session routing and graceful
// shutdown. docs/SERVING.md covers the query API; docs/PERSISTENCE.md
// covers the lifecycle and snapshot format.

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	spec := commonFlags(fs)
	addr := fs.String("addr", registry.DefaultServeAddr, "TCP listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "streaming worker goroutines; 0 selects GOMAXPROCS")
	queue := fs.Int("queue", 0, "bounded in-flight submissions (backpressure); 0 selects the default")
	restore := fs.String("restore", "", "restore the index from this snapshot file instead of building it (the snapshot must match the session flags)")
	snapOnTerm := fs.String("snapshot-on-sigterm", "", "write a snapshot to this file during graceful shutdown, after in-flight queries drain")
	shed := fs.String("shed", "", "load-shedding policy when the queue is full: block (default), reject or fair")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline; expired queries are dropped before a worker prices them (0: none)")
	snapInterval := fs.Duration("snapshot-interval", 0, "write a background snapshot to -snapshot-path this often (0: disabled)")
	snapPath := fs.String("snapshot-path", "", "target file for -snapshot-interval snapshots (written atomically)")
	config := fs.String("config", "", "JSON file holding a list of server specs, one named session each (multi-session mode; see docs/SHARDING.md)")
	var sessions stringList
	fs.Var(&sessions, "session", "add a named session from comma-separated key=value pairs, e.g. name=p0,dataset=proteins,windows=200,shard_lo=0,shard_hi=3 (repeatable; see docs/SHARDING.md)")
	fs.Parse(args)
	legacy := registry.ServerSpec{
		SessionSpec: *spec, Restore: *restore,
		Addr: *addr, Workers: *workers, QueueDepth: *queue,
		Shed: *shed, RequestTimeout: *reqTimeout,
		SnapshotInterval: *snapInterval, SnapshotPath: *snapPath,
	}
	specs, err := serveSpecs(*config, sessions, legacy)
	if err != nil {
		fail(err)
	}
	if err := registry.ValidateServerSpecs(specs); err != nil {
		fail(err)
	}
	if *snapOnTerm != "" && len(specs) > 1 {
		fail(errors.New("-snapshot-on-sigterm applies to a single session; give multi-session processes per-session snapshot_path entries"))
	}
	// In multi-session mode the process still has exactly one listener: an
	// explicit -addr flag wins, else the one address the spec list names.
	listenAddr := *addr
	if (*config != "" || len(sessions) > 0) && !flagWasSet(fs, "addr") {
		listenAddr = registry.ListenAddr(specs)
	}
	servers := make([]mountedSession, 0, len(specs))
	descs := make([]string, 0, len(specs))
	defer func() {
		for _, rs := range servers {
			rs.qs.Close()
		}
	}()
	for _, sp := range specs {
		s, err := newSession(sp.SessionSpec)
		if err != nil {
			fail(fmt.Errorf("session %q: %w", sp.MountName(), err))
		}
		qs, err := s.newServer(sp, sp.Restore)
		if err != nil {
			fail(fmt.Errorf("session %q: %w", sp.MountName(), err))
		}
		servers = append(servers, mountedSession{name: sp.MountName(), qs: qs})
		descs = append(descs, s.describe())
	}
	root := multiSessionMux(servers)
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fail(err)
	}
	// The bound address is printed and echoed on /stats (not the requested
	// one) so scripts may listen on :0 and scrape the port.
	for i, rs := range servers {
		rs.qs.SetAddr(ln.Addr().String())
		if rs.qs.Restored() {
			fmt.Printf("subseqctl: session %q restored %d windows without re-indexing\n", rs.name, rs.qs.NumWindows())
		}
		if len(servers) > 1 {
			fmt.Printf("subseqctl: session %q (%s) at /s/%s/\n", rs.name, descs[i], rs.name)
		}
	}
	fmt.Printf("subseqctl: serving %s on http://%s\n", descs[0], ln.Addr())
	hs := &http.Server{Handler: root}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// Graceful shutdown: stop accepting, give in-flight requests a
		// grace period, then drain the streaming engine.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-done
	if *snapOnTerm != "" {
		// Requests have drained; the store is quiescent. Snapshot it so the
		// next start can -restore instead of re-indexing.
		if err := servers[0].qs.Snapshot(*snapOnTerm); err != nil {
			fail(err)
		}
		fmt.Printf("subseqctl: snapshot written to %s\n", *snapOnTerm)
	}
	fmt.Println("subseqctl: shut down")
}

// sessionListing is one entry of GET /sessions: how a multi-session
// process advertises what it hosts (the gateway's discovery surface).
type sessionListing struct {
	Name   string                `json:"name"`
	Path   string                `json:"path"`
	Config registry.ServerConfig `json:"config"`
}

// mountedSession pairs a session's mount name with its serving stack.
type mountedSession struct {
	name string
	qs   queryServer
}

// multiSessionMux is the multi-tenant routing surface: every session
// mounts under /s/{name}/, the first session also answers the legacy
// root routes (so single-session invocations and the shard fleet behind
// a gateway keep working unchanged), and GET /sessions lists what the
// process hosts.
func multiSessionMux(servers []mountedSession) *http.ServeMux {
	root := http.NewServeMux()
	for _, rs := range servers {
		root.Handle("/s/"+rs.name+"/", http.StripPrefix("/s/"+rs.name, rs.qs.Handler()))
	}
	root.Handle("/", servers[0].qs.Handler())
	root.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		out := make([]sessionListing, len(servers))
		for i, rs := range servers {
			out[i] = sessionListing{Name: rs.name, Path: "/s/" + rs.name + "/", Config: rs.qs.Config()}
		}
		shard.WriteJSON(w, http.StatusOK, out)
	})
	return root
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// serveSpecs assembles the process's session list: a JSON -config file, a
// repeated -session flag, or (neither given) the legacy single session the
// plain serve flags describe. The process-level engine flags (-workers,
// -queue, -shed, …) apply to the legacy session only; config/-session
// entries carry their own knobs, whose zero values resolve to the same
// defaults.
func serveSpecs(configPath string, sessions stringList, legacy registry.ServerSpec) ([]registry.ServerSpec, error) {
	if configPath != "" && len(sessions) > 0 {
		return nil, errors.New("-config and -session are mutually exclusive")
	}
	if configPath != "" {
		b, err := os.ReadFile(configPath)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var specs []registry.ServerSpec
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("config %s: %w", configPath, err)
		}
		return specs, nil
	}
	if len(sessions) > 0 {
		specs := make([]registry.ServerSpec, len(sessions))
		for i, s := range sessions {
			spec, err := parseSessionFlag(s)
			if err != nil {
				return nil, fmt.Errorf("-session %q: %w", s, err)
			}
			specs[i] = spec
		}
		return specs, nil
	}
	return []registry.ServerSpec{legacy}, nil
}

// parseSessionFlag parses one -session value: comma-separated key=value
// pairs naming the session and its spec.
func parseSessionFlag(s string) (registry.ServerSpec, error) {
	var spec registry.ServerSpec
	for _, kv := range strings.Split(s, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("%q is not key=value", kv)
		}
		var err error
		switch k {
		case "name":
			spec.Name = v
		case "dataset":
			spec.Dataset = v
		case "measure":
			spec.Measure = v
		case "backend":
			spec.Backend = v
		case "windows":
			spec.Windows, err = strconv.Atoi(v)
		case "windowlen", "window_len":
			spec.WindowLen, err = strconv.Atoi(v)
		case "lambda0":
			spec.Lambda0, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "shard_lo":
			spec.ShardLo, err = strconv.Atoi(v)
		case "shard_hi":
			spec.ShardHi, err = strconv.Atoi(v)
		case "restore":
			spec.Restore = v
		case "workers":
			spec.Workers, err = strconv.Atoi(v)
		case "queue", "queue_depth":
			spec.QueueDepth, err = strconv.Atoi(v)
		case "shed":
			spec.Shed = v
		case "request_timeout":
			spec.RequestTimeout, err = time.ParseDuration(v)
		case "snapshot_interval":
			spec.SnapshotInterval, err = time.ParseDuration(v)
		case "snapshot_path":
			spec.SnapshotPath = v
		case "addr":
			spec.Addr = v
		default:
			return spec, fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("key %q: %w", k, err)
		}
	}
	if spec.Dataset == "" {
		return spec, errors.New(`missing "dataset"`)
	}
	if spec.Windows == 0 {
		spec.Windows = 2000
	}
	return spec, nil
}

// queryServer is the untyped face of a serve.Server, mirroring how
// session hides typedSession's element type from the subcommands.
type queryServer interface {
	Handler() http.Handler
	Config() registry.ServerConfig
	SetAddr(addr string)
	NumWindows() int
	Restored() bool
	Snapshot(path string) error
	Close()
}

// newServer builds or restores the session's live store and serves it.
func (s *typedSession[E]) newServer(spec registry.ServerSpec, restore string) (queryServer, error) {
	if restore == "" {
		st, err := s.store()
		if err != nil {
			return nil, err
		}
		return serve.New(st, spec, false)
	}
	// Restore path: decode the snapshot instead of indexing the generated
	// dataset. The snapshot header is validated against the session spec
	// first — a snapshot taken under different flags is refused with the
	// disagreement explained. A snapshot whose bytes are corrupt (as
	// opposed to mismatched) is quarantined and the index rebuilt, so one
	// bad file never wedges a restart loop.
	st, err := registry.OpenStoreFile[E](restore, s.spec)
	restored := err == nil
	var corrupt *store.CorruptError
	if errors.As(err, &corrupt) {
		qpath, qerr := store.Quarantine(restore)
		if qerr != nil {
			return nil, fmt.Errorf("snapshot %s is corrupt (%v) and could not be quarantined: %w", restore, corrupt, qerr)
		}
		fmt.Fprintf(os.Stderr, "subseqctl: snapshot %s is corrupt (%v); quarantined to %s, rebuilding the index\n",
			restore, corrupt, qpath)
		st, err = s.store()
	}
	if err != nil {
		return nil, err
	}
	return serve.New(st, spec, restored)
}
