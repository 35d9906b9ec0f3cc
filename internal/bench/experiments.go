package bench

import (
	"context"
	"fmt"

	"mndmst/internal/apps"
	"mndmst/internal/bsp"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

// Table2 regenerates the graph-specification table: the synthetic analogue
// of every paper graph with its measured statistics next to the original's
// published size.
func Table2(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Table 2: Graph specifications (synthetic analogues at reproduction scale)",
		Header: []string{"Graph", "|V|", "|E|", "Approx.Diam", "Avg.Deg", "Max.Deg", "Paper |V|", "Paper |E|"},
	}
	for _, p := range gen.Profiles {
		el, err := r.Graph(p.Name)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeStats(graph.MustBuildCSR(el))
		t.AddRow(p.Name,
			fmt.Sprintf("%d", st.V),
			fmt.Sprintf("%d", st.E),
			fmt.Sprintf("%d", st.ApproxDiam),
			fmt.Sprintf("%.2f", st.AvgDegree),
			fmt.Sprintf("%d", st.MaxDegree),
			p.PaperV, p.PaperE)
	}
	t.AddNote("analogues preserve shape (degree distribution, diameter class, relative sizes) at ~1/1000 scale")
	return t, nil
}

// Table3 regenerates the Pregel+ comparison: execution and communication
// time of both systems on all six graphs at 16 CPU-only nodes of the AMD
// cluster, plus the improvement percentages the paper reports.
func Table3(r *Runner) (*Table, error) {
	t := &Table{
		Title: "Table 3: Performance comparison with Pregel+ (16 nodes, AMD cluster, CPU only; simulated seconds)",
		Header: []string{"Graph", "Pregel+ Exe", "Pregel+ Comm", "MND-MST Exe", "MND-MST Comm",
			"Exe Improv", "Comm Reduc"},
	}
	machine := cost.AMDCluster()
	for _, p := range gen.Profiles {
		el, err := r.Graph(p.Name)
		if err != nil {
			return nil, err
		}
		b, err := bsp.Run(context.Background(), el, 16, machine)
		if err != nil {
			return nil, fmt.Errorf("bsp %s: %w", p.Name, err)
		}
		m, err := r.runMND(el, 16, machine, hypar.DefaultConfig(), false)
		if err != nil {
			return nil, fmt.Errorf("mnd %s: %w", p.Name, err)
		}
		if !b.Forest.Equal(m.Forest) {
			return nil, fmt.Errorf("table3 %s: systems disagree on the forest", p.Name)
		}
		be, bc := b.Report.ExecutionTime(), b.Report.CommTime()
		me, mc := m.Report.ExecutionTime(), m.Report.CommTime()
		t.AddRow(p.Name, fsec(be), fsec(bc), fsec(me), fsec(mc),
			fpct((be-me)/be), fpct((bc-mc)/bc))
	}
	t.AddNote("paper: 75-88%% exe improvement (gsh-2015: 24%%); 85-92%% comm reduction (gsh-2015: ~40%%)")
	return t, nil
}

// table4Graphs are the graphs of Table 4 / Figure 4.
var table4Graphs = []string{"arabic-2005", "it-2004"}

// nodeCounts are the cluster sizes the paper sweeps.
var nodeCounts = []int{1, 4, 8, 16}

// Table4 regenerates the node-scaling table: MND-MST total time on the AMD
// cluster for 1, 4, 8 and 16 nodes.
func Table4(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Table 4: MND-MST with increasing node count (AMD cluster; simulated seconds)",
		Header: append([]string{"Nodes"}, table4Graphs...),
	}
	machine := cost.AMDCluster()
	times := map[string]map[int]float64{}
	for _, name := range table4Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		times[name] = map[int]float64{}
		for _, p := range nodeCounts {
			res, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			times[name][p] = res.Report.ExecutionTime()
		}
	}
	for _, p := range nodeCounts {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range table4Graphs {
			row = append(row, fsec(times[name][p]))
		}
		t.AddRow(row...)
	}
	for _, name := range table4Graphs {
		t.AddNote("%s speedup vs 1 node: 4n=%s 8n=%s 16n=%s (paper arabic-2005: 2.12x @4n, 2.64x @16n)",
			name,
			fx(times[name][1]/times[name][4]),
			fx(times[name][1]/times[name][8]),
			fx(times[name][1]/times[name][16]))
	}
	return t, nil
}

// Figure4 regenerates the inter-node scalability comparison of Pregel+ and
// MND-MST on arabic-2005 and it-2004.
func Figure4(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: Inter-node scalability of Pregel+ and MND-MST (AMD cluster; simulated seconds)",
		Header: []string{"Graph", "Nodes", "Pregel+", "MND-MST"},
	}
	machine := cost.AMDCluster()
	for _, name := range table4Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			b, err := bsp.Run(context.Background(), el, p, machine)
			if err != nil {
				return nil, err
			}
			m, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%d", p),
				fsec(b.Report.ExecutionTime()), fsec(m.Report.ExecutionTime()))
		}
	}
	t.AddNote("paper: single-node MND-MST beats 16-node Pregel+ on arabic-2005")
	return t, nil
}

// Figure5 regenerates the computation-vs-communication split of both
// systems at 4, 8 and 16 nodes.
func Figure5(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Figure 5: Computation vs communication (AMD cluster; fraction of execution time)",
		Header: []string{"Graph", "Nodes", "Pregel+ comp", "Pregel+ comm", "MND comp", "MND comm"},
	}
	machine := cost.AMDCluster()
	for _, name := range table4Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, p := range []int{4, 8, 16} {
			b, err := bsp.Run(context.Background(), el, p, machine)
			if err != nil {
				return nil, err
			}
			m, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			be := b.Report.ExecutionTime()
			me := m.Report.ExecutionTime()
			t.AddRow(name, fmt.Sprintf("%d", p),
				fpct(b.Report.ComputeTime()/be), fpct(b.Report.CommTime()/be),
				fpct(m.Report.ComputeTime()/me), fpct(m.Report.CommTime()/me))
		}
	}
	t.AddNote("paper @16n: Pregel+ ~75%% comm / 25-32%% comp; MND-MST 62-75%% comp")
	return t, nil
}

// figure6Graphs are the CPU-only Cray scalability graphs.
var figure6Graphs = []string{"road_usa", "gsh-2015-tpd", "sk-2005", "uk-2007"}

// Figure6 regenerates the CPU-only MND-MST scalability on the Cray.
func Figure6(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Figure 6: Scalability of CPU-only MND-MST on Cray (simulated seconds)",
		Header: append([]string{"Nodes"}, figure6Graphs...),
	}
	machine := cost.CrayXC40()
	times := map[string]map[int]float64{}
	for _, name := range figure6Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		times[name] = map[int]float64{}
		for _, p := range nodeCounts {
			res, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			times[name][p] = res.Report.ExecutionTime()
		}
	}
	for _, p := range nodeCounts {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range figure6Graphs {
			row = append(row, fsec(times[name][p]))
		}
		t.AddRow(row...)
	}
	for _, name := range []string{"sk-2005", "uk-2007"} {
		t.AddNote("%s speedup vs 4 nodes: 8n=%s 16n=%s (paper: sk 1.31x/1.9x, uk 1.54x/2.11x)",
			name, fx(times[name][4]/times[name][8]), fx(times[name][4]/times[name][16]))
	}
	t.AddNote("paper: road_usa slows down at higher node counts; gsh-2015 dips at 4 nodes then recovers")
	return t, nil
}

// figure7Graphs are the phase-breakdown graphs.
var figure7Graphs = []string{"road_usa", "gsh-2015-tpd", "uk-2007"}

// Figure7 regenerates the per-phase execution time breakdown.
func Figure7(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Figure 7: Execution time per phase, CPU-only MND-MST on Cray (simulated seconds)",
		Header: []string{"Graph", "Nodes", "indComp", "comm(+merge)", "postProcess"},
	}
	machine := cost.CrayXC40()
	for _, name := range figure7Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			res, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			indC, _ := res.Report.PhaseTime(core.PhaseIndComp)
			mergeC, mergeM := res.Report.PhaseTime(core.PhaseMerge)
			postC, _ := res.Report.PhaseTime(core.PhasePostProcess)
			t.AddRow(name, fmt.Sprintf("%d", p), fsec(indC), fsec(mergeC+mergeM), fsec(postC))
		}
	}
	t.AddNote("paper: uk-2007 dominated by indComp; road_usa/gsh rely increasingly on postProcess and communication at scale")
	return t, nil
}

// figure8Graphs are the hybrid CPU+GPU scalability graphs.
var figure8Graphs = []string{"it-2004", "sk-2005", "uk-2007"}

// Figure8 regenerates the CPU-only vs CPU+GPU comparison on the Cray.
func Figure8(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: MND-MST CPU-only vs CPU+GPU on Cray (simulated seconds)",
		Header: []string{"Graph", "Nodes", "CPU-only", "CPU+GPU", "GPU benefit"},
	}
	machine := cost.CrayXC40()
	for _, name := range figure8Graphs {
		el, err := r.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			cpuRes, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			gpuRes, err := r.runMND(el, p, machine, hypar.DefaultConfig(), true)
			if err != nil {
				return nil, err
			}
			tc := cpuRes.Report.ExecutionTime()
			tg := gpuRes.Report.ExecutionTime()
			t.AddRow(name, fmt.Sprintf("%d", p), fsec(tc), fsec(tg), fpct((tc-tg)/tc))
		}
	}
	t.AddNote("paper: up to 23%% improvement, average 9%%; benefit shrinks as per-node indComp work shrinks")
	return t, nil
}

// ExtensionMultiGPU sweeps the per-node accelerator count on the largest
// graph — the "multiple devices on multiple nodes" generality the paper's
// framework claims, beyond the single K40 of its testbed.
func ExtensionMultiGPU(r *Runner) (*Table, error) {
	el, err := r.Graph("uk-2007")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: accelerators per node (uk-2007, 4 nodes, Cray)",
		Header: []string{"GPUs/node", "Exe", "vs CPU-only"},
	}
	machine := cost.CrayXC40()
	base := 0.0
	for _, k := range []int{0, 1, 2, 4} {
		cfg := hypar.DefaultConfig()
		cfg.GPUsPerNode = k
		res, err := r.runMND(el, 4, machine, cfg, k > 0)
		if err != nil {
			return nil, err
		}
		exe := res.Report.ExecutionTime()
		if k == 0 {
			base = exe
		}
		t.AddRow(fmt.Sprintf("%d", k), fsec(exe), fpct((base-exe)/base))
	}
	t.AddNote("returns diminish: the CPU-run merge phases and communication are unaffected by extra accelerators")
	return t, nil
}

// ExtensionHeterogeneous compares speed-aware and speed-blind partitioning
// on a cluster with one straggler node — an extension beyond the paper's
// homogeneous assumption (§4.3.1).
func ExtensionHeterogeneous(r *Runner) (*Table, error) {
	el, err := r.Graph("it-2004")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: heterogeneous cluster, one 4x-slower node (it-2004, 4 nodes)",
		Header: []string{"Partitioning", "Exe"},
	}
	machine := cost.AMDCluster()
	machine.NodeSpeeds = []float64{0.25, 1, 1, 1}
	for _, blind := range []bool{true, false} {
		cfg := hypar.DefaultConfig()
		cfg.IgnoreNodeSpeeds = blind
		res, err := r.runMND(el, 4, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "speed-aware"
		if blind {
			name = "speed-blind"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()))
	}
	t.AddNote("the straggler sets the makespan unless the partitioner shrinks its share")
	return t, nil
}

// ExtensionApplications profiles the other graph applications built on the
// same substrate (§6 future work): connected components over the MND
// pipeline vs the superstep-synchronous BFS, SSSP and PageRank.
func ExtensionApplications(r *Runner) (*Table, error) {
	el, err := r.Graph("arabic-2005")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: framework applications (arabic-2005, 8 nodes)",
		Header: []string{"Application", "Exe", "Comm", "Comm frac", "Msgs"},
	}
	machine := cost.AMDCluster()
	add := func(name string, rep interface {
		ExecutionTime() float64
		CommTime() float64
		TotalMsgs() int64
	}) {
		exe := rep.ExecutionTime()
		t.AddRow(name, fsec(exe), fsec(rep.CommTime()), fpct(rep.CommTime()/exe),
			fmt.Sprintf("%d", rep.TotalMsgs()))
	}
	cc, err := apps.ConnectedComponents(context.Background(), el, 8, machine, hypar.DefaultConfig())
	if err != nil {
		return nil, err
	}
	add("connected-components (D&C)", cc.Report)
	bfs, err := apps.BFS(context.Background(), el, 8, machine, 0)
	if err != nil {
		return nil, err
	}
	add("BFS (level-sync)", bfs.Report)
	sp, err := apps.SSSP(context.Background(), el, 8, machine, 0)
	if err != nil {
		return nil, err
	}
	add("SSSP (Bellman-Ford)", sp.Report)
	pr, err := apps.PageRank(context.Background(), el, 8, machine, 0.85, 1e-7, 30)
	if err != nil {
		return nil, err
	}
	add("PageRank (30 it max)", pr.Report)
	col, err := apps.Coloring(context.Background(), el, 8, machine, 1)
	if err != nil {
		return nil, err
	}
	add("JP coloring", col.Report)
	t.AddNote("only the divide-and-conquer application escapes the per-superstep synchronization cost")
	return t, nil
}

// ExtensionWeakScaling grows the workload with the node count (fixed edges
// per node) and reports parallel efficiency — the weak-scaling view the
// paper's strong-scaling tables leave out.
func ExtensionWeakScaling(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Extension: weak scaling (web graph, 400k edges per node, AMD cluster)",
		Header: []string{"Nodes", "|V|", "|E|", "Exe", "Efficiency"},
	}
	machine := cost.AMDCluster()
	const vPerNode = 20_000
	base := 0.0
	for _, p := range nodeCounts {
		v := int32(float64(vPerNode*p) * r.scale)
		if v < 64 {
			v = 64
		}
		el := gen.WebGraph(v, int(v)*20, 0.85, int64(300+p))
		res, err := r.runMND(el, p, machine, hypar.DefaultConfig(), false)
		if err != nil {
			return nil, err
		}
		exe := res.Report.ExecutionTime()
		if p == 1 {
			base = exe
		}
		t.AddRow(fmt.Sprintf("%d", p), fmt.Sprintf("%d", el.N), fmt.Sprintf("%d", len(el.Edges)),
			fsec(exe), fpct(base/exe))
	}
	t.AddNote("ideal weak scaling holds execution time flat (efficiency 100%%) as work and nodes grow together")
	return t, nil
}

// ExtensionFilter compares filter-Borůvka (hypar.Config.Filter), the
// public API's extension beyond the paper, with the paper's MND-MST and
// the Pregel+ baseline on one graph of each generator family. The rule
// fires at m ≥ 5n, so on road grids the filtered run is the paper's.
func ExtensionFilter(r *Runner) (*Table, error) {
	t := &Table{
		Title:  "Extension: filter-Borůvka by graph family (4 nodes, AMD cluster)",
		Header: []string{"Graph", "m/n", "System", "Exe", "Comm", "Bytes", "Msgs"},
	}
	machine := cost.AMDCluster()
	n := max(int32(20_000*r.scale), 256)
	road, err := r.Graph("road_usa")
	if err != nil {
		return nil, err
	}
	web, err := r.Graph("arabic-2005")
	if err != nil {
		return nil, err
	}
	filtered := hypar.DefaultConfig()
	filtered.Filter = true
	for _, fam := range []struct {
		name string
		el   *graph.EdgeList
	}{
		{"road (road_usa)", road},
		{"web (arabic-2005)", web},
		{"R-MAT", gen.RMAT(n, 16*int(n), 501)},
		{"Barabási–Albert, k = 8", gen.BarabasiAlbert(n, 8, 502)},
		{"Watts–Strogatz, k = 10", gen.WattsStrogatz(n, 10, 0.1, 503)},
	} {
		density := fmt.Sprintf("%.1f", float64(len(fam.el.Edges))/float64(fam.el.N))
		add := func(system string, rep *cluster.Report) {
			t.AddRow(fam.name, density, system, fsec(rep.ExecutionTime()), fsec(rep.CommTime()),
				fmt.Sprintf("%d", rep.TotalBytes()), fmt.Sprintf("%d", rep.TotalMsgs()))
		}
		f, err := r.runMND(fam.el, 4, machine, filtered, false)
		if err != nil {
			return nil, fmt.Errorf("filtered %s: %w", fam.name, err)
		}
		m, err := r.runMND(fam.el, 4, machine, hypar.DefaultConfig(), false)
		if err != nil {
			return nil, fmt.Errorf("mnd %s: %w", fam.name, err)
		}
		b, err := bsp.Run(context.Background(), fam.el, 4, machine)
		if err != nil {
			return nil, fmt.Errorf("bsp %s: %w", fam.name, err)
		}
		if !f.Forest.Equal(m.Forest) || !b.Forest.Equal(m.Forest) {
			return nil, fmt.Errorf("filter %s: systems disagree on the forest", fam.name)
		}
		add("MND-MST filtered", f.Report)
		add("MND-MST", m.Report)
		add("Pregel+", b.Report)
	}
	t.AddNote("the filter fires at m >= 5n: it samples a pivot, solves the edges at or below it, broadcasts that forest and runs the heavy edges between its components")
	t.AddNote("heavy edges that fit one rank's share are post-processed on rank 0; more run a second pass")
	t.AddNote("the post-processing is charged to postProcess, every other step the passes do not already charge to partition")
	return t, nil
}

// paperExperiments is the paper suite in its stable order: the §5 tables
// and figures in paper order, the design ablations, then the extensions.
func paperExperiments() []Experiment {
	return []Experiment{
		{Name: "Table2", Table: Table2},
		{Name: "Table3", Table: Table3},
		{Name: "Table4", Table: Table4},
		{Name: "Figure4", Table: Figure4},
		{Name: "Figure5", Table: Figure5},
		{Name: "Figure6", Table: Figure6},
		{Name: "Figure7", Table: Figure7},
		{Name: "Figure8", Table: Figure8},
		{Name: "Ablation/GroupSize", Table: AblationGroupSize},
		{Name: "Ablation/LeaderOnlyMerge", Table: AblationLeaderOnlyMerge},
		{Name: "Ablation/ExceptionCondition", Table: AblationExceptionCondition},
		{Name: "Ablation/Termination", Table: AblationTermination},
		{Name: "Ablation/DataDriven", Table: AblationDataDriven},
		{Name: "Ablation/GPUOptimizations", Table: AblationGPUOptimizations},
		{Name: "Ablation/Contraction", Table: AblationContraction},
		{Name: "Ablation/Partitioning", Table: AblationPartitioning},
		{Name: "Ablation/BSPCombining", Table: AblationBSPCombining},
		{Name: "Extension/MultiGPU", Table: ExtensionMultiGPU},
		{Name: "Extension/Heterogeneous", Table: ExtensionHeterogeneous},
		{Name: "Extension/Applications", Table: ExtensionApplications},
		{Name: "Extension/WeakScaling", Table: ExtensionWeakScaling},
		{Name: "Extension/Filter", Table: ExtensionFilter},
	}
}
