// Command mndmst runs the MND-MST algorithm (or the Pregel+-style BSP
// baseline) on a graph — loaded from a binary .mnd container, a SNAP-style
// text edge list, or generated on the fly from one of the paper's workload
// profiles — and prints the forest summary with the simulated execution
// metrics.
//
// Usage:
//
//	mndmst -profile uk-2007 -scale 0.5 -nodes 16
//	mndmst -input graph.mnd -nodes 8 -machine cray -gpu
//	mndmst -text edges.txt -nodes 4 -verify
//	mndmst -profile arabic-2005 -nodes 16 -system bsp
//	mndmst -launch local:4 -profile arabic-2005 -scale 0.05 -verify
//	mndmst -profile uk-2007 -save uk.mnd -system seq
//	mndmst -text edges.txt -system all -verify
//
// -save PATH writes the loaded or generated graph before the run: a .txt
// path gets the SNAP text format, any other path the binary container.
// -system all checks nine configurations (the shared-memory kernel, MND-MST
// at 1 to 16 nodes, CPU+GPU, the border-edge exception and the BSP
// baseline) against the sequential reference, edge id for edge id.
//
// With -coordinator host:port the process runs one rank of a real TCP
// cluster through mndmst.FindMSFDistributed; with -lead it also hosts the
// rendezvous for -nodes ranks on -coordinator-listen. Every rank gets the
// same graph flags and builds the graph itself:
//
//	host0$ mndmst -lead -nodes 2 -coordinator-listen host0:9000 -profile uk-2007
//	host1$ mndmst -coordinator host0:9000 -profile uk-2007
//
// Rank 0 prints the summary; the others exit silently. A dead peer
// surfaces as an error on every survivor, not a hang. -launch local:N
// hosts a loopback coordinator and forks N copies of this binary with
// -coordinator=ADDR appended.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/serve"
	"mndmst/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mndmst:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mndmst", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		input    = fs.String("input", "", "binary .mnd graph file, as written by -save (overrides -profile)")
		text     = fs.String("text", "", "SNAP-style text edge list (overrides -profile)")
		profile  = fs.String("profile", "arabic-2005", "workload profile (see -list)")
		scale    = fs.Float64("scale", 1.0, "profile scale (1.0 = reproduction size)")
		seed     = fs.Int64("seed", 1, "weight seed for text inputs without weights")
		nodes    = fs.Int("nodes", 4, "simulated cluster nodes (with -lead, the TCP cluster size)")
		machine  = fs.String("machine", "amd", "platform model: amd | cray")
		useGPU   = fs.Bool("gpu", false, "enable the per-node CPU+GPU split (cray only)")
		gpus     = fs.Int("gpus", 1, "accelerators per node when -gpu is set")
		system   = fs.String("system", "mnd", "algorithm: mnd | bsp | seq | all (check nine configurations against seq, edge id for edge id)")
		app      = fs.String("app", "", "run a graph application instead of MST: bfs | sssp | pagerank | coloring | cc")
		source   = fs.Int("source", 0, "source vertex for bfs/sssp")
		group    = fs.Int("group", 4, "hierarchical merging group size")
		verify   = fs.Bool("verify", false, "cross-check the forest against sequential Kruskal")
		list     = fs.Bool("list", false, "list available profiles and exit")
		traceOut = fs.String("trace", "", "write per-rank JSONL trace to this file")
		rankProf = fs.Bool("rankprofile", false, "print the per-rank profile")
		launch   = fs.String("launch", "", "run as real OS processes: local:N forks N loopback TCP workers")
		jsonOut  = fs.Bool("json", false, "emit the machine-readable result record (the schema mndmst-serve returns) instead of text")
		metrics  = fs.Bool("metrics-dump", false, "print the run's metrics registry (Prometheus text) to stderr after the run")
		save     = fs.String("save", "", "write the graph to this file before the run: SNAP text for a .txt path, else the binary .mnd container")
	)
	var rank rankFlags
	rank.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %q", fs.Args())
	}

	if *list {
		for _, n := range mndmst.ProfileNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	worker := rank.lead || rank.cluster.Coordinator != ""
	switch {
	case (*launch != "" || worker) && (*system != "mnd" || *app != ""):
		return fmt.Errorf("-launch, -lead and -coordinator support only -system mnd without -app")
	case rank.lead && rank.cluster.Coordinator != "":
		return fmt.Errorf("-lead and -coordinator are mutually exclusive")
	case rank.lead && *nodes < 1:
		return fmt.Errorf("-lead needs -nodes >= 1")
	case *scale <= 0:
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	case *system == "seq" && *metrics:
		return fmt.Errorf("-metrics-dump needs a trace, which -system seq does not record")
	}
	if *system == "all" {
		// Flags that -system all would ignore: it fixes its own configurations.
		if err := rejectSet(fs, "-system all", "app", "json", "nodes", "machine", "gpu", "gpus",
			"group", "trace", "rankprofile", "metrics-dump"); err != nil {
			return err
		}
	}
	if *launch != "" {
		// Flags of one process: the parent runs no rank; every child would repeat them.
		if err := rejectSet(fs, "-launch", "metrics-dump", "metrics-listen", "pprof",
			"lead", "coordinator", "coordinator-listen", "save"); err != nil {
			return err
		}
		return launchLocal(out, *launch, fs, rank.cluster.RetrySeed, *jsonOut)
	}

	var g *mndmst.Graph
	var err error
	switch {
	case *input != "":
		g, err = mndmst.LoadGraph(*input)
	case *text != "":
		g, err = mndmst.LoadTextGraph(*text, *seed)
	default:
		g, err = mndmst.GenerateProfile(*profile, *scale)
	}
	if err != nil {
		return err
	}

	opts := mndmst.Options{
		Nodes:       *nodes,
		UseGPU:      *useGPU,
		GPUsPerNode: *gpus,
		GroupSize:   *group,
	}
	switch *machine {
	case "cray":
		opts.Machine = mndmst.CrayXC40
	case "amd":
		opts.Machine = mndmst.AMDCluster
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	// Under -json, announcements go to stderr so stdout stays one record.
	note := out
	if *jsonOut {
		note = os.Stderr
	}
	if *save != "" {
		if err := saveGraph(note, g, *save); err != nil {
			return err
		}
	}
	if *system == "all" {
		return runAll(out, g, *verify)
	}
	if *app != "" {
		if *jsonOut {
			return fmt.Errorf("-json supports only MST runs (not -app)")
		}
		fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		return runApp(out, g, opts, *app, int32(*source))
	}

	reg := obs.NewRegistry()
	var res *mndmst.Result
	switch {
	case worker:
		res, err = rank.run(note, g, opts, reg)
	case *system == "mnd":
		res, err = mndmst.FindMSF(g, opts)
	case *system == "bsp":
		res, err = mndmst.FindMSFBSP(g, opts)
	case *system == "seq":
		res = mndmst.FindMSFSequential(g)
	default:
		err = fmt.Errorf("unknown system %q", *system)
	}
	if err != nil {
		return err
	}
	if *metrics && res.Trace != nil {
		res.Trace.Publish(reg)
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return fmt.Errorf("metrics dump: %w", err)
		}
	}
	if worker {
		if !res.Root {
			return nil // non-root workers compute silently
		}
		// -nodes does not size a cluster this rank joined; the gathered
		// report does, and the record's fingerprint names that size.
		opts.Nodes = res.Trace.Ranks()
	}
	if *jsonOut {
		// Machine-readable mode: one result record in the exact schema
		// mndmst-serve returns, so scripts parse CLI and service output
		// identically. -verify still gates success but prints nothing.
		if *verify {
			if err := mndmst.Verify(g, res); err != nil {
				return fmt.Errorf("verification FAILED: %w", err)
			}
		}
		if *traceOut != "" && res.Trace != nil {
			if err := writeTrace(res, *traceOut); err != nil {
				return err
			}
		}
		rec := serve.NewRecord(g, *system, opts, res)
		rec.EdgeIDs = nil // summary record, like the server's default response
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if worker && rank.chaosArmed() {
		fmt.Fprintf(out, "chaos: fault injection armed (seed %d)\n", rank.chaos.Seed)
	}
	fmt.Fprintf(out, "forest: %d edges, %d components, total weight %d\n",
		len(res.EdgeIDs), res.Components, res.TotalWeight)
	if *system != "seq" {
		fmt.Fprintf(out, "simulated: exec %.4fs  compute %.4fs  comm %.4fs  (%d msgs, %d bytes)\n",
			res.SimSeconds, res.ComputeSeconds, res.CommSeconds, res.MessagesSent, res.BytesSent)
		fmt.Fprintf(out, "real: %.4fs wall (max across ranks)\n", res.WallSeconds)
		for _, ph := range res.Phases {
			fmt.Fprintf(out, "  phase %-14s compute %.4fs  comm %.4fs  wall %.4fs\n",
				ph.Phase, ph.Compute, ph.Comm, ph.Wall)
		}
	}
	if res.Trace != nil {
		if *traceOut != "" {
			if err := writeTrace(res, *traceOut); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace written to %s\n", *traceOut)
		}
		if *rankProf {
			fmt.Fprint(out, res.Trace.Profile())
		}
	}
	if *verify {
		if err := mndmst.Verify(g, res); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(out, "verified: exact minimum spanning forest")
	}
	return nil
}

// rejectSet returns an error naming each flag of names that is set on fs,
// since mode would ignore it.
func rejectSet(fs *flag.FlagSet, mode string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			err = errors.Join(err, fmt.Errorf("-%s does not combine with %s", f.Name, mode))
		}
	})
	return err
}

// saveGraph writes g to path, in the SNAP text format when path ends in
// .txt and as the binary .mnd container otherwise, and reports the graph
// on note.
func saveGraph(note io.Writer, g *mndmst.Graph, path string) error {
	save := mndmst.SaveGraph
	if filepath.Ext(path) == ".txt" {
		save = mndmst.SaveTextGraph
	}
	if err := save(path, g); err != nil {
		return fmt.Errorf("save graph: %w", err)
	}
	fmt.Fprintf(note, "wrote %s: %d vertices, %d edges\n", path, g.NumVertices(), g.NumEdges())
	st := g.ComputeStats()
	fmt.Fprintf(note, "avg degree %.2f  max degree %d  approx diameter %d  components %d\n",
		st.AvgDegree, st.MaxDegree, st.ApproxDiam, st.Components)
	return nil
}

// runAll checks nine configurations against the sequential reference
// forest and prints one ok: line per configuration that matches it. With
// verify, the reference itself is checked first.
func runAll(out io.Writer, g *mndmst.Graph, verify bool) error {
	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	ref := mndmst.FindMSFSequential(g)
	fmt.Fprintf(out, "reference (filter-Kruskal): %d edges, %d components, weight %d\n",
		len(ref.EdgeIDs), ref.Components, ref.TotalWeight)
	if verify {
		if err := mndmst.Verify(g, ref); err != nil {
			return fmt.Errorf("reference verification FAILED: %w", err)
		}
		fmt.Fprintln(out, "verified: exact minimum spanning forest")
	}
	shared := func(g *mndmst.Graph, _ mndmst.Options) (*mndmst.Result, error) { return mndmst.FindMSFShared(g) }
	for _, c := range []struct {
		name string
		find func(*mndmst.Graph, mndmst.Options) (*mndmst.Result, error)
		opts mndmst.Options
	}{
		{"shared-memory kernel", shared, mndmst.Options{}},
		{"MND-MST 1 nodes (amd)", mndmst.FindMSF, mndmst.Options{Nodes: 1}},
		{"MND-MST 2 nodes (amd)", mndmst.FindMSF, mndmst.Options{Nodes: 2}},
		{"MND-MST 4 nodes (amd)", mndmst.FindMSF, mndmst.Options{Nodes: 4}},
		{"MND-MST 8 nodes (amd)", mndmst.FindMSF, mndmst.Options{Nodes: 8}},
		{"MND-MST 16 nodes (amd)", mndmst.FindMSF, mndmst.Options{Nodes: 16}},
		{"MND-MST 4 nodes CPU+GPU (cray)", mndmst.FindMSF, mndmst.Options{Nodes: 4, Machine: mndmst.CrayXC40, UseGPU: true}},
		{"MND-MST 8 nodes EXCPT_BORDER_EDGE", mndmst.FindMSF, mndmst.Options{Nodes: 8, Exception: mndmst.BorderEdge}},
		{"Pregel+ baseline 8 nodes", mndmst.FindMSFBSP, mndmst.Options{Nodes: 8}},
	} {
		res, err := c.find(g, c.opts)
		if err == nil {
			err = sameForest(ref, res)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Fprintf(out, "  ok: %s\n", c.name)
	}
	fmt.Fprintln(out, "all configurations match the reference forest, edge id for edge id")
	return nil
}

// sameForest reports whether res has exactly ref's forest edge ids, which
// both list in ascending order. Equal edge counts and total weights are
// not enough: a forest that swaps one edge for another can keep both.
func sameForest(ref, res *mndmst.Result) error {
	if slices.Equal(res.EdgeIDs, ref.EdgeIDs) {
		return nil
	}
	return fmt.Errorf("forest edge ids differ from the reference's (%d edges, weight %d; reference %d edges, weight %d)",
		len(res.EdgeIDs), res.TotalWeight, len(ref.EdgeIDs), ref.TotalWeight)
}

// writeTrace dumps the per-rank JSONL trace to path.
func writeTrace(res *mndmst.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Trace.WriteJSONL(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// launchLocal hosts a coordinator on an ephemeral loopback port, forks N
// copies of this binary as TCP ranks, and relays their output. Only rank
// 0 prints a summary, so the combined output reads like a single run.
func launchLocal(out io.Writer, spec string, fs *flag.FlagSet, retrySeed int64, jsonOut bool) error {
	var n int
	if _, err := fmt.Sscanf(spec, "local:%d", &n); err != nil || n < 1 {
		return fmt.Errorf("bad -launch %q (want local:N with N >= 1)", spec)
	}
	coord, err := mndmst.StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		return fmt.Errorf("start coordinator: %w", err)
	}
	defer coord.Close()
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	if !jsonOut {
		fmt.Fprintf(out, "launch: %d workers via coordinator %s\n", n, coord.Addr())
	}

	cmds := make([]*exec.Cmd, n)
	bufs := make([]bytes.Buffer, n)
	for i, args := range workerArgs(fs, n, retrySeed, coord.Addr()) {
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &bufs[i]
		cmd.Stderr = &bufs[i]
		if err := cmd.Start(); err != nil {
			killWorkers(cmds[:i])
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		cmds[i] = cmd
	}
	if err := coord.Wait(); err != nil {
		killWorkers(cmds)
		return fmt.Errorf("rendezvous: %w", err)
	}
	var errs []error
	for i, c := range cmds {
		if err := c.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("worker %d: %w (output: %s)",
				i, err, bytes.TrimSpace(bufs[i].Bytes())))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Exactly one worker (rank 0) printed the summary; relay everything in
	// start order, which drops nothing and keeps ordering deterministic.
	for i := range bufs {
		if _, err := out.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// workerArgs returns the command lines of n forked ranks: the flags set on
// fs but -launch and -retry-seed, then a distinct -retry-seed (retrySeed+i,
// counting from 1 when retrySeed is 0) so that a failed launch replays,
// then -coordinator=coord.
func workerArgs(fs *flag.FlagSet, n int, retrySeed int64, coord string) [][]string {
	var common []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "launch" && f.Name != "retry-seed" {
			common = append(common, "-"+f.Name+"="+f.Value.String())
		}
	})
	if retrySeed == 0 {
		retrySeed = 1
	}
	args := make([][]string, n)
	for i := range args {
		args[i] = append(common[:len(common):len(common)],
			fmt.Sprintf("-retry-seed=%d", retrySeed+int64(i)), "-coordinator="+coord)
	}
	return args
}

// killWorkers tears down already-started workers after a launch failure.
// A kill that itself fails is reported to stderr (the launch error is
// already on its way to the caller); the Wait that follows only reaps the
// killed process, whose nonzero exit is expected.
func killWorkers(cmds []*exec.Cmd) {
	for _, c := range cmds {
		if c == nil {
			continue
		}
		if err := c.Process.Kill(); err != nil {
			fmt.Fprintf(os.Stderr, "mndmst: kill worker pid %d: %v\n", c.Process.Pid, err)
		}
		c.Wait() //lint:droperr reaping a process we just killed; its nonzero exit is expected
	}
}

// rankFlags are the flags of a process that runs one TCP rank. Most bind
// straight into the rank's cluster and chaos configurations.
type rankFlags struct {
	cluster                   mndmst.ClusterConfig
	chaos                     mndmst.ChaosConfig
	lead, pprof               bool
	leadListen, metricsListen string
}

func (r *rankFlags) register(fs *flag.FlagSet) {
	c, ch := &r.cluster, &r.chaos
	fs.StringVar(&c.Coordinator, "coordinator", "", "join the TCP cluster whose coordinator listens on host:port")
	fs.BoolVar(&r.lead, "lead", false, "host the coordinator for -nodes ranks in this process (and join as a rank)")
	fs.StringVar(&r.leadListen, "coordinator-listen", "127.0.0.1:0", "coordinator listen address when -lead is set")
	fs.StringVar(&c.Listen, "listen", "", "peer listen address (default 127.0.0.1:0)")
	fs.DurationVar(&c.DialTimeout, "dial-timeout", 0, "coordinator/peer dial timeout (default 10s)")
	fs.DurationVar(&c.HeartbeatInterval, "heartbeat", 0, "idle-link keepalive period (default 500ms)")
	fs.DurationVar(&c.PeerTimeout, "peer-timeout", 0, "silence window before a peer is declared dead (default 5s)")
	fs.Int64Var(&c.RetrySeed, "retry-seed", 0, "seed for the jittered dial/rendezvous backoff (0 = clock-derived; give each rank its own)")
	fs.Int64Var(&ch.Seed, "chaos-seed", 0, "seed for the fault-injection layer (used when any -chaos-* flag is set)")
	fs.Float64Var(&ch.DropProb, "chaos-drop", 0, "per-message drop probability in [0,1]")
	fs.Float64Var(&ch.CorruptProb, "chaos-corrupt", 0, "per-message corruption probability in [0,1]")
	fs.Float64Var(&ch.DupProb, "chaos-dup", 0, "per-message duplication probability in [0,1]")
	fs.Float64Var(&ch.ReorderProb, "chaos-reorder", 0, "per-message reorder probability in [0,1]")
	fs.Float64Var(&ch.DelayProb, "chaos-delay", 0, "per-message delay probability in [0,1]")
	fs.DurationVar(&ch.DelayMax, "chaos-delay-max", 0, "upper bound of one injected delay (default 2ms)")
	fs.DurationVar(&ch.RecvTimeout, "chaos-recv-timeout", 0, "receive deadline under chaos (default 30s)")
	fs.Uint64Var(&ch.CrashStep, "chaos-crash-step", 0, "crash-stop this worker at its Nth transport operation (0 = never)")
	fs.StringVar(&r.metricsListen, "metrics-listen", "", "serve GET /metrics on this address while the run is in flight (\"\" disables)")
	fs.BoolVar(&r.pprof, "pprof", false, "also expose net/http/pprof under /debug/pprof/ on -metrics-listen")
}

// chaosArmed reports whether a -chaos-* flag other than the delay bound
// and the receive deadline is set.
func (r *rankFlags) chaosArmed() bool {
	ch := r.chaos
	ch.DelayMax, ch.RecvTimeout = 0, 0
	return ch != mndmst.ChaosConfig{}
}

// run computes this process's rank through FindMSFDistributed, hosting the
// coordinator first under -lead and announcing its listeners on note. The
// rank's transport counters and, after the run, its rank and trace land in reg.
func (r *rankFlags) run(note io.Writer, g *mndmst.Graph, opts mndmst.Options, reg *obs.Registry) (*mndmst.Result, error) {
	cfg := r.cluster
	cfg.Metrics = reg
	if r.chaosArmed() {
		cfg.Chaos = &r.chaos
	}
	if r.metricsListen != "" {
		addr, stopMetrics, err := startMetricsServer(reg, r.metricsListen, r.pprof)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		defer stopMetrics()
		fmt.Fprintf(note, "metrics on http://%s/metrics\n", addr)
	}
	var coord *mndmst.Coordinator
	if r.lead {
		var err error
		coord, err = mndmst.StartCoordinator(r.leadListen, opts.Nodes)
		if err != nil {
			return nil, fmt.Errorf("start coordinator: %w", err)
		}
		defer coord.Close()
		fmt.Fprintf(note, "coordinator listening on %s\n", coord.Addr())
		cfg.Coordinator = coord.Addr()
	}

	// Two-stage drain, as in mndmst-serve: the first SIGINT/SIGTERM aborts a
	// join still retrying and lets the computation finish, so the transport
	// closes cleanly instead of stranding peers; a second one forces exit.
	cancel := make(chan struct{})
	cfg.Cancel = cancel
	stopSignals := serve.OnSignals(
		func() {
			fmt.Fprintln(os.Stderr, "mndmst: drain: finishing in-flight computation (next signal forces exit)")
			close(cancel)
		},
		func() {
			fmt.Fprintln(os.Stderr, "mndmst: forced exit; peers will observe this rank as dead")
			os.Exit(1)
		},
	)
	defer stopSignals()

	res, err := mndmst.FindMSFDistributed(g, opts, cfg)
	if err != nil {
		return nil, err
	}
	trace.PublishRank(reg, res.Rank)
	res.Trace.Publish(reg)
	if coord != nil {
		if err := coord.Wait(); err != nil {
			return nil, fmt.Errorf("rendezvous: %w", err)
		}
	}
	return res, nil
}

// startMetricsServer serves GET /metrics (and, opted in, pprof) for reg
// on addr. It returns the resolved address and a stop function that
// closes the listener and joins the serving goroutine.
func startMetricsServer(reg *obs.Registry, addr string, pprofOn bool) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(reg))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// ErrServerClosed is the normal Close outcome; anything else means
		// the scrape endpoint died early, which must not fail the run.
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "mndmst: metrics server:", err)
		}
	}()
	return ln.Addr().String(), func() {
		srv.Close() //lint:droperr listener teardown on exit; the run's outcome is already decided
		<-done
	}, nil
}

// runApp executes one of the non-MST graph applications.
func runApp(out io.Writer, g *mndmst.Graph, opts mndmst.Options, app string, source int32) error {
	switch app {
	case "bfs":
		res, err := mndmst.BFS(g, opts, source)
		if err != nil {
			return err
		}
		reached := 0
		for _, d := range res.Dist {
			if d >= 0 {
				reached++
			}
		}
		fmt.Fprintf(out, "bfs: reached %d/%d vertices in %d levels; simulated %.4fs (comm %.4fs)\n",
			reached, g.NumVertices(), res.Levels, res.SimSeconds, res.CommSeconds)
	case "sssp":
		res, err := mndmst.SSSP(g, opts, source)
		if err != nil {
			return err
		}
		reached := 0
		for _, d := range res.Dist {
			if d != mndmst.UnreachableDist {
				reached++
			}
		}
		fmt.Fprintf(out, "sssp: reached %d/%d vertices in %d rounds; simulated %.4fs (comm %.4fs)\n",
			reached, g.NumVertices(), res.Rounds, res.SimSeconds, res.CommSeconds)
	case "pagerank":
		res, err := mndmst.PageRank(g, opts, 0.85, 1e-8, 100)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pagerank: converged in %d iterations; simulated %.4fs (comm %.4fs)\n",
			res.Iterations, res.SimSeconds, res.CommSeconds)
	case "coloring":
		res, err := mndmst.Coloring(g, opts, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "coloring: %d colors in %d rounds; simulated %.4fs (comm %.4fs)\n",
			res.Colors, res.Rounds, res.SimSeconds, res.CommSeconds)
	case "cc":
		res, err := mndmst.FindConnectedComponents(g, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "connected components: %d; simulated %.4fs (comm %.4fs)\n",
			res.Components, res.SimSeconds, res.CommSeconds)
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	return nil
}
