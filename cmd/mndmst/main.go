// Command mndmst runs the MND-MST algorithm (or the Pregel+-style BSP
// baseline) on a graph — loaded from a file written by cmd/graphgen, a
// SNAP-style text edge list, or generated on the fly from one of the
// paper's workload profiles — and prints the forest summary with the
// simulated execution metrics.
//
// Usage:
//
//	mndmst -profile uk-2007 -scale 0.5 -nodes 16
//	mndmst -input graph.mnd -nodes 8 -machine cray -gpu
//	mndmst -text edges.txt -nodes 4 -verify
//	mndmst -profile arabic-2005 -nodes 16 -system bsp
//	mndmst -launch local:4 -profile arabic-2005 -scale 0.05 -verify
//
// With -launch local:N the process hosts a coordinator, forks N worker
// copies of itself connected over loopback TCP (one OS process per rank),
// and prints rank 0's summary. Workers recognize themselves by the
// MNDMST_WORKER_COORD environment variable and run their rank through
// mndmst.FindMSFDistributed, as cmd/mndmstd does.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/serve"
)

// workerCoordEnv tells a forked child which coordinator to join; its
// presence switches run() into TCP worker mode, one FindMSFDistributed
// rank.
const workerCoordEnv = "MNDMST_WORKER_COORD"

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
		input    = fs.String("input", "", "binary graph file written by graphgen (overrides -profile)")
		text     = fs.String("text", "", "SNAP-style text edge list (overrides -profile)")
		profile  = fs.String("profile", "arabic-2005", "workload profile (see -list)")
		scale    = fs.Float64("scale", 1.0, "profile scale (1.0 = reproduction size)")
		seed     = fs.Int64("seed", 1, "weight seed for text inputs without weights")
		nodes    = fs.Int("nodes", 4, "simulated cluster nodes")
		machine  = fs.String("machine", "amd", "platform model: amd | cray")
		useGPU   = fs.Bool("gpu", false, "enable the per-node CPU+GPU split (cray only)")
		gpus     = fs.Int("gpus", 1, "accelerators per node when -gpu is set")
		system   = fs.String("system", "mnd", "algorithm: mnd | bsp | seq")
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
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range mndmst.ProfileNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	workerCoord := os.Getenv(workerCoordEnv)
	if *launch != "" {
		if workerCoord != "" {
			return fmt.Errorf("-launch inside a worker process")
		}
		if *system != "mnd" || *app != "" {
			return fmt.Errorf("-launch supports only -system mnd without -app")
		}
		// Children rerun this binary with exactly the flags the user set
		// (minus -launch); the coordinator address travels via environment.
		var childArgs []string
		fs.Visit(func(f *flag.Flag) {
			// -metrics-dump stays in the parent too: workers writing
			// Prometheus text into the relayed output would garble it.
			if f.Name == "launch" || f.Name == "metrics-dump" {
				return
			}
			childArgs = append(childArgs, "-"+f.Name+"="+f.Value.String())
		})
		return launchLocal(out, *launch, childArgs, *jsonOut)
	}
	worker := workerCoord != ""
	if worker && (*system != "mnd" || *app != "") {
		return fmt.Errorf("multi-process mode supports only -system mnd without -app")
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
	if !worker && !*jsonOut {
		fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
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
	if *app != "" {
		if *jsonOut {
			return fmt.Errorf("-json supports only MST runs (not -app)")
		}
		return runApp(out, g, opts, *app, int32(*source))
	}

	var res *mndmst.Result
	switch {
	case worker:
		res, err = mndmst.FindMSFDistributed(g, opts, mndmst.ClusterConfig{Coordinator: workerCoord})
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
		reg := obs.NewRegistry()
		res.Trace.Publish(reg)
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return fmt.Errorf("metrics dump: %w", err)
		}
	}
	if worker && !res.Root {
		return nil // non-root workers compute silently
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
	if worker {
		fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
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
// copies of this binary as TCP workers, and relays their output. Only rank
// 0 prints a summary, so the combined output reads like a single run.
func launchLocal(out io.Writer, spec string, childArgs []string, jsonOut bool) error {
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
	for i := range cmds {
		cmd := exec.Command(exe, childArgs...)
		cmd.Env = append(os.Environ(), workerCoordEnv+"="+coord.Addr())
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
