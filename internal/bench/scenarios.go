package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mndmst/internal/apps"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/hypar"
	"mndmst/internal/merge"
	"mndmst/internal/serve"
	"mndmst/internal/transport"
)

// distProfile/appsProfile pin which workload the transport and
// application scenarios exercise: arabic-2005 is the paper's canonical
// web graph (mid-size, high locality).
const (
	distProfile = "arabic-2005"
	appsProfile = "arabic-2005"
)

// serveJobs is the job count of the serve scenarios: enough that the
// cache regimes separate clearly, small enough to stay in CI seconds.
const serveJobs = 16

// coreScenarios is the pinned core suite in its stable order.
func coreScenarios() []Experiment {
	var scs []Experiment
	// Core MND-MST across every Table 2 profile at the paper's two
	// bracketing rank counts.
	for _, prof := range gen.Profiles {
		for _, p := range []int{4, 16} {
			prof, p := prof, p
			scs = append(scs, Experiment{
				Name: fmt.Sprintf("core/%s/p%d", prof.Name, p),
				Metrics: func(r *Runner) (map[string]float64, error) {
					return runCore(r, prof.Name, p, cost.AMDCluster(), hypar.DefaultConfig(), false)
				},
			})
		}
	}
	// The same runs with filter-Borůvka, the public API's extension
	// beyond the paper: road_usa is below the rule's density and repeats
	// its unfiltered figures.
	for _, prof := range gen.Profiles {
		for _, p := range []int{4, 16} {
			prof, p := prof, p
			scs = append(scs, Experiment{
				Name: fmt.Sprintf("core/%s/p%d/filter", prof.Name, p),
				Metrics: func(r *Runner) (map[string]float64, error) {
					cfg := hypar.DefaultConfig()
					cfg.Filter = true
					return runCore(r, prof.Name, p, cost.AMDCluster(), cfg, false)
				},
			})
		}
	}
	// One multi-device run on the GPU platform: exercises the §4.3.1
	// ratio estimation and the device-model clocks.
	scs = append(scs, Experiment{
		Name: "core/" + distProfile + "/p4/gpu",
		Metrics: func(r *Runner) (map[string]float64, error) {
			return runCore(r, distProfile, 4, cost.CrayXC40(), hypar.DefaultConfig(), true)
		},
	})
	// The same computation over real transports: in-process Mem endpoints
	// and actual loopback TCP (coordinator rendezvous, framed streams).
	scs = append(scs,
		Experiment{Name: "dist/mem/" + distProfile + "/p4", Metrics: runDistMem},
		Experiment{Name: "dist/tcp/" + distProfile + "/p4", Metrics: runDistTCP},
	)
	// The merge-phase communication patterns in isolation.
	scs = append(scs,
		Experiment{Name: "comm/deltas/p4/64KiB", Metrics: runCommDeltas},
		Experiment{Name: "comm/segments/ring/p4", Metrics: runCommSegments},
	)
	// The job service in both cache regimes.
	scs = append(scs,
		Experiment{Name: "serve/jobs/cold", Metrics: func(r *Runner) (map[string]float64, error) { return runServe(r, true) }},
		Experiment{Name: "serve/jobs/hot", Metrics: func(r *Runner) (map[string]float64, error) { return runServe(r, false) }},
	)
	// The analytics applications built on the same cluster substrate.
	scs = append(scs,
		Experiment{Name: "apps/bfs/" + appsProfile + "/p8", Metrics: runBFS},
		Experiment{Name: "apps/sssp/" + appsProfile + "/p8", Metrics: runSSSP},
		Experiment{Name: "apps/pagerank/" + appsProfile + "/p8", Metrics: runPageRank},
		Experiment{Name: "apps/cc/" + appsProfile + "/p8", Metrics: runCC},
		Experiment{Name: "apps/coloring/" + appsProfile + "/p8", Metrics: runColoring},
	)
	return scs
}

// coreMetrics augments the report metrics with the run's global counters
// and the forest invariants — a wrong forest is the worst regression of
// all, so the gate watches it too.
func coreMetrics(res *core.Result) map[string]float64 {
	m := reportMetrics(res.Report)
	m["iterations"] = float64(res.Iterations)
	m["levels"] = float64(res.Levels)
	m["peak_edges"] = float64(res.PeakEdges)
	if res.Forest != nil {
		m["forest_weight"] = float64(res.Forest.TotalWeight)
		m["forest_edges"] = float64(len(res.Forest.EdgeIDs))
	}
	return m
}

func runCore(r *Runner, profile string, p int, machine cost.Machine, cfg hypar.Config, useGPU bool) (map[string]float64, error) {
	el, err := r.Graph(profile)
	if err != nil {
		return nil, err
	}
	res, err := r.runMND(el, p, machine, cfg, useGPU)
	if err != nil {
		return nil, err
	}
	if err := crossCheckGauges(res.Report); err != nil {
		return nil, err
	}
	return coreMetrics(res), nil
}

// runDistRanks executes one distributed MND-MST run, one goroutine per
// rank over the given endpoints, and returns rank 0's result (which
// carries the forest and the gathered report).
func runDistRanks(r *Runner, eps []transport.Transport) (map[string]float64, error) {
	el, err := r.Graph(distProfile)
	if err != nil {
		return nil, err
	}
	machine := cost.AMDCluster()
	results := make([]*core.Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep transport.Transport) {
			defer wg.Done()
			results[i], errs[i] = core.RunDistributed(context.Background(), el, ep, machine, hypar.DefaultConfig(), false)
		}(i, ep)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	res := results[0]
	if err := crossCheckGauges(res.Report); err != nil {
		return nil, err
	}
	return coreMetrics(res), nil
}

func runDistMem(r *Runner) (map[string]float64, error) {
	mems := transport.NewMem(4)
	eps := make([]transport.Transport, len(mems))
	for i, m := range mems {
		eps[i] = m
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	return runDistRanks(r, eps)
}

func runDistTCP(r *Runner) (map[string]float64, error) {
	const p = 4
	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		return nil, err
	}
	go coord.Serve()
	defer coord.Close()
	cfg := transport.TCPConfig{Coordinator: coord.Addr()}

	eps := make([]transport.Transport, p)
	dialErrs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := transport.DialTCP(cfg)
			if err != nil {
				dialErrs[i] = err
				return
			}
			eps[ep.Rank()] = ep
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	for i, err := range dialErrs {
		if err != nil {
			return nil, fmt.Errorf("dial %d: %w", i, err)
		}
	}
	return runDistRanks(r, eps)
}

// runCommDeltas isolates the §3.3 all-to-all ghost-delta exchange: 4
// ranks, 64 KiB of deltas per pair, simulated network clocks.
func runCommDeltas(*Runner) (map[string]float64, error) {
	const p = 4
	const nDeltas = (64 << 10) / 8 // one Delta encodes to 8 bytes
	active := []int{0, 1, 2, 3}
	c := cluster.New(p, cost.AMDCluster().Comm)
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		r.SetPhase("deltas")
		local := make([]merge.Delta, nDeltas)
		for i := range local {
			local[i] = merge.Delta{Old: int32(r.ID()*nDeltas + i), New: int32(r.ID())}
		}
		remote, _, err := merge.ExchangeDeltas(r, active, local, 0)
		if err != nil {
			return err
		}
		if len(remote) != (p-1)*nDeltas {
			return fmt.Errorf("rank %d: %d remote deltas, want %d", r.ID(), len(remote), (p-1)*nDeltas)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reportMetrics(rep), nil
}

// runCommSegments isolates one §3.4 ring segment-exchange step across a
// 4-rank group.
func runCommSegments(*Runner) (map[string]float64, error) {
	const p = 4
	const nComps = 4 << 10
	group := []int{0, 1, 2, 3}
	c := cluster.New(p, cost.AMDCluster().Comm)
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		r.SetPhase("segments")
		sendTo, recvFrom := merge.RingNeighbors(group, r.ID())
		comps := make([]int32, nComps)
		for i := range comps {
			comps[i] = int32(r.ID()*nComps + i)
		}
		pl, err := merge.ExchangeSegments(r, sendTo, recvFrom, merge.Payload{Comps: comps}, 0, merge.Payload{})
		if err != nil {
			return err
		}
		if len(pl.Comps) != nComps {
			return fmt.Errorf("rank %d: received %d comps, want %d", r.ID(), len(pl.Comps), nComps)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reportMetrics(rep), nil
}

// runServe pushes serveJobs jobs through the full service path —
// admission, queue, worker pool, graph registry, result cache — in one
// cache regime and records the (deterministic) execution counters. Cold
// defeats the result cache with a unique options fingerprint per job;
// hot resubmits one identical request so all but the first are answered
// from memory.
func runServe(r *Runner, cold bool) (map[string]float64, error) {
	entries := 1024
	if cold {
		entries = 1
	}
	s := serve.New(serve.Config{Workers: 4, QueueDepth: serveJobs, ResultCacheEntries: entries})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	spec := serve.GraphSpec{Profile: "road_usa", Scale: r.scale}
	for i := 0; i < serveJobs; i++ {
		req := serve.JobRequest{Graph: spec, Options: serve.OptionSpec{Nodes: 2}}
		if cold {
			// A unique fingerprint per job defeats the result cache.
			req.Options.NodeSpeeds = []float64{1, 1 + float64(i+1)*1e-9}
		}
		job, err := s.Submit(req)
		if err != nil {
			return nil, err
		}
		<-job.Done()
		if job.Err() != nil {
			return nil, fmt.Errorf("job %s: %w", job.ID(), job.Err())
		}
	}
	st := s.Stats()
	wantComputations := int64(1)
	if cold {
		wantComputations = serveJobs
	}
	if st.Computations != wantComputations {
		return nil, fmt.Errorf("computed %d jobs, want %d", st.Computations, wantComputations)
	}
	return map[string]float64{
		"jobs":              float64(st.JobsCompleted),
		"computations":      float64(st.Computations),
		"result_cache_hits": float64(st.ResultCacheHits),
	}, nil
}

func runBFS(r *Runner) (map[string]float64, error) {
	el, err := r.Graph(appsProfile)
	if err != nil {
		return nil, err
	}
	res, err := apps.BFS(context.Background(), el, 8, cost.AMDCluster(), 0)
	if err != nil {
		return nil, err
	}
	m := reportMetrics(res.Report)
	m["levels"] = float64(res.Levels)
	return m, nil
}

func runSSSP(r *Runner) (map[string]float64, error) {
	el, err := r.Graph(appsProfile)
	if err != nil {
		return nil, err
	}
	res, err := apps.SSSP(context.Background(), el, 8, cost.AMDCluster(), 0)
	if err != nil {
		return nil, err
	}
	m := reportMetrics(res.Report)
	m["rounds"] = float64(res.Rounds)
	return m, nil
}

func runPageRank(r *Runner) (map[string]float64, error) {
	el, err := r.Graph(appsProfile)
	if err != nil {
		return nil, err
	}
	res, err := apps.PageRank(context.Background(), el, 8, cost.AMDCluster(), 0.85, 1e-6, 50)
	if err != nil {
		return nil, err
	}
	m := reportMetrics(res.Report)
	m["iterations"] = float64(res.Iterations)
	return m, nil
}

func runCC(r *Runner) (map[string]float64, error) {
	el, err := r.Graph(appsProfile)
	if err != nil {
		return nil, err
	}
	res, err := apps.ConnectedComponents(context.Background(), el, 8, cost.AMDCluster(), hypar.DefaultConfig())
	if err != nil {
		return nil, err
	}
	m := reportMetrics(res.Report)
	m["components"] = float64(res.Components)
	return m, nil
}

func runColoring(r *Runner) (map[string]float64, error) {
	el, err := r.Graph(appsProfile)
	if err != nil {
		return nil, err
	}
	res, err := apps.Coloring(context.Background(), el, 8, cost.AMDCluster(), 42)
	if err != nil {
		return nil, err
	}
	m := reportMetrics(res.Report)
	m["colors"] = float64(res.Colors)
	m["rounds"] = float64(res.Rounds)
	return m, nil
}
