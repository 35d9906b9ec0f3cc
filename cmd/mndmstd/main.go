// Command mndmstd is the MND-MST worker daemon: one OS process per rank of
// a real multi-process cluster connected over TCP. Every worker is started
// with the identical graph flags (each regenerates or loads the same graph
// deterministically — the input is never shipped over the network) and
// joins the cluster through a rendezvous coordinator that assigns rank IDs
// and distributes the peer address table, then runs its rank through
// mndmst.FindMSFDistributed.
//
// Start a 4-rank cluster on one or more machines:
//
//	host0$ mndmstd -lead -ranks 4 -profile arabic-2005 -scale 0.1
//	coordinator listening on 192.0.2.10:9000
//	host1$ mndmstd -coordinator 192.0.2.10:9000 -profile arabic-2005 -scale 0.1
//	host2$ mndmstd -coordinator 192.0.2.10:9000 -profile arabic-2005 -scale 0.1
//	host3$ mndmstd -coordinator 192.0.2.10:9000 -profile arabic-2005 -scale 0.1
//
// The -lead worker hosts the coordinator and participates as a normal
// rank. Whichever worker is assigned rank 0 prints the forest summary with
// simulated and real wall-clock times; the others exit silently on
// success. A dead peer is detected by heartbeat timeout and surfaces as a
// descriptive error on every surviving rank instead of a hang.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/serve"
	"mndmst/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mndmstd:", err)
		os.Exit(1)
	}
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
			fmt.Fprintln(os.Stderr, "mndmstd: metrics server:", err)
		}
	}()
	stop := func() {
		srv.Close() //lint:droperr listener teardown on exit; the run's outcome is already decided
		<-done
	}
	return ln.Addr().String(), stop, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mndmstd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		coordinator = fs.String("coordinator", "", "coordinator address to join (host:port)")
		lead        = fs.Bool("lead", false, "host the coordinator in this process (and join as a worker)")
		ranks       = fs.Int("ranks", 4, "cluster size when -lead is set")
		coordAddr   = fs.String("coordinator-listen", "127.0.0.1:0", "coordinator listen address when -lead is set")
		listen      = fs.String("listen", "", "peer listen address (default 127.0.0.1:0)")
		dialTO      = fs.Duration("dial-timeout", 0, "coordinator/peer dial timeout (default 10s)")
		heartbeat   = fs.Duration("heartbeat", 0, "idle-link keepalive period (default 500ms)")
		peerTO      = fs.Duration("peer-timeout", 0, "silence window before a peer is declared dead (default 5s)")

		input    = fs.String("input", "", "binary graph file written by graphgen (overrides -profile)")
		text     = fs.String("text", "", "SNAP-style text edge list (overrides -profile)")
		profile  = fs.String("profile", "arabic-2005", "workload profile")
		scale    = fs.Float64("scale", 1.0, "profile scale (1.0 = reproduction size)")
		seed     = fs.Int64("seed", 1, "weight seed for text inputs without weights")
		machine  = fs.String("machine", "amd", "platform model: amd | cray")
		useGPU   = fs.Bool("gpu", false, "enable the per-node CPU+GPU split (cray only)")
		gpus     = fs.Int("gpus", 1, "accelerators per node when -gpu is set")
		group    = fs.Int("group", 4, "hierarchical merging group size")
		verify   = fs.Bool("verify", false, "rank 0 cross-checks the forest against sequential Kruskal")
		rankProf = fs.Bool("rankprofile", false, "rank 0 prints the gathered per-rank profile")

		chaosSeed    = fs.Int64("chaos-seed", 0, "seed for the fault-injection layer (used when any -chaos-* flag is set)")
		chaosDrop    = fs.Float64("chaos-drop", 0, "per-message drop probability in [0,1]")
		chaosCorrupt = fs.Float64("chaos-corrupt", 0, "per-message corruption probability in [0,1]")
		chaosDup     = fs.Float64("chaos-dup", 0, "per-message duplication probability in [0,1]")
		chaosReorder = fs.Float64("chaos-reorder", 0, "per-message reorder probability in [0,1]")
		chaosDelay   = fs.Float64("chaos-delay", 0, "per-message delay probability in [0,1]")
		chaosDelayMx = fs.Duration("chaos-delay-max", 0, "upper bound of one injected delay (default 2ms)")
		chaosRecvTO  = fs.Duration("chaos-recv-timeout", 0, "receive deadline under chaos (default 30s)")
		chaosCrash   = fs.Uint64("chaos-crash-step", 0, "crash-stop this worker at its Nth transport operation (0 = never)")

		metricsListen = fs.String("metrics-listen", "", "serve GET /metrics on this address while the run is in flight (\"\" disables)")
		pprofOn       = fs.Bool("pprof", false, "also expose net/http/pprof under /debug/pprof/ on -metrics-listen")
		retrySeed     = fs.Int64("retry-seed", 0, "seed for the jittered dial/rendezvous backoff (0 = clock-derived; give each rank its own)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	// dialCancel aborts the join's retry loops (backoff sleeps included)
	// on the first drain signal: a worker stuck re-dialing a dead
	// coordinator exits promptly instead of sleeping out its backoff.
	dialCancel := make(chan struct{})
	cfg := mndmst.ClusterConfig{
		Coordinator:       *coordinator,
		Listen:            *listen,
		DialTimeout:       *dialTO,
		HeartbeatInterval: *heartbeat,
		PeerTimeout:       *peerTO,
		Metrics:           reg,
		RetrySeed:         *retrySeed,
		Cancel:            dialCancel,
	}
	if *metricsListen != "" {
		addr, stopMetrics, err := startMetricsServer(reg, *metricsListen, *pprofOn)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer stopMetrics()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", addr)
	}
	var coord *mndmst.Coordinator
	if *lead {
		if *coordinator != "" {
			return fmt.Errorf("-lead and -coordinator are mutually exclusive")
		}
		if *ranks < 1 {
			return fmt.Errorf("-ranks must be >= 1")
		}
		var err error
		coord, err = mndmst.StartCoordinator(*coordAddr, *ranks)
		if err != nil {
			return fmt.Errorf("start coordinator: %w", err)
		}
		defer coord.Close()
		fmt.Fprintf(out, "coordinator listening on %s\n", coord.Addr())
		cfg.Coordinator = coord.Addr()
	}
	if cfg.Coordinator == "" {
		return fmt.Errorf("need -coordinator host:port (or -lead)")
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
		UseGPU:      *useGPU,
		GPUsPerNode: *gpus,
		GroupSize:   *group,
	}
	if *chaosDrop > 0 || *chaosCorrupt > 0 || *chaosDup > 0 || *chaosReorder > 0 ||
		*chaosDelay > 0 || *chaosCrash > 0 || *chaosSeed != 0 {
		cfg.Chaos = &mndmst.ChaosConfig{
			Seed:        *chaosSeed,
			DropProb:    *chaosDrop,
			CorruptProb: *chaosCorrupt,
			DupProb:     *chaosDup,
			ReorderProb: *chaosReorder,
			DelayProb:   *chaosDelay,
			DelayMax:    *chaosDelayMx,
			RecvTimeout: *chaosRecvTO,
			CrashStep:   *chaosCrash,
		}
		fmt.Fprintf(out, "chaos: fault injection armed (seed %d)\n", *chaosSeed)
	}
	switch *machine {
	case "cray":
		opts.Machine = mndmst.CrayXC40
	case "amd":
		opts.Machine = mndmst.AMDCluster
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}

	// Graceful drain, shared with mndmst-serve: the first SIGINT/SIGTERM
	// announces the drain and lets the in-flight computation finish (the
	// transport then closes cleanly through the normal return path instead
	// of dying mid-protocol and stranding peers); a second signal forces
	// exit.
	stopSignals := serve.OnSignals(
		func() {
			fmt.Fprintln(os.Stderr, "mndmstd: drain: finishing in-flight computation (next signal forces exit)")
			close(dialCancel)
		},
		func() {
			fmt.Fprintln(os.Stderr, "mndmstd: forced exit; peers will observe this rank as dead")
			os.Exit(1)
		},
	)
	defer stopSignals()

	start := time.Now() //lint:wallclock real wall-clock reporting is the point of the distributed daemon
	res, err := mndmst.FindMSFDistributed(g, opts, cfg)
	if err != nil {
		return err
	}
	trace.PublishRank(reg, res.Rank)
	res.Trace.Publish(reg)
	if coord != nil {
		if err := coord.Wait(); err != nil {
			return fmt.Errorf("rendezvous: %w", err)
		}
	}
	if !res.Root {
		return nil // non-root ranks exit silently
	}

	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(out, "forest: %d edges, %d components, total weight %d\n",
		len(res.EdgeIDs), res.Components, res.TotalWeight)
	fmt.Fprintf(out, "simulated: exec %.4fs  compute %.4fs  comm %.4fs  (%d msgs, %d bytes)\n",
		res.SimSeconds, res.ComputeSeconds, res.CommSeconds, res.MessagesSent, res.BytesSent)
	elapsed := time.Since(start) //lint:wallclock real wall-clock reporting is the point of the distributed daemon
	fmt.Fprintf(out, "real: %.4fs wall (max across ranks; this process %.4fs)\n",
		res.WallSeconds, elapsed.Seconds())
	for _, ph := range res.Phases {
		fmt.Fprintf(out, "  phase %-14s compute %.4fs  comm %.4fs  wall %.4fs\n",
			ph.Phase, ph.Compute, ph.Comm, ph.Wall)
	}
	if *rankProf {
		fmt.Fprint(out, res.Trace.Profile())
	}
	if *verify {
		if err := mndmst.Verify(g, res); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(out, "verified: exact minimum spanning forest")
	}
	return nil
}
