package bench

import (
	"context"
	"fmt"

	"mndmst/internal/boruvka"
	"mndmst/internal/bsp"
	"mndmst/internal/cost"
	"mndmst/internal/hypar"
)

// ablationGraph is the workload the design ablations run on: a mid-size
// web profile with enough merge traffic to expose the knobs.
const ablationGraph = "arabic-2005"

// AblationGroupSize sweeps the hierarchical-merging group size over the
// values the paper experimented with (2, 4, 8, 16 — it chose 4, §3.4).
func AblationGroupSize(r *Runner) (*Table, error) {
	el, err := r.Graph(ablationGraph)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: hierarchical-merging group size (arabic-2005, 16 nodes, AMD cluster)",
		Header: []string{"GroupSize", "Exe", "Comm", "Levels", "PeakEdges"},
	}
	machine := cost.AMDCluster()
	for _, gs := range []int{2, 4, 8, 16} {
		cfg := hypar.DefaultConfig()
		cfg.GroupSize = gs
		res, err := r.runMND(el, 16, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", gs),
			fsec(res.Report.ExecutionTime()), fsec(res.Report.CommTime()),
			fmt.Sprintf("%d", res.Levels), fmt.Sprintf("%d", res.PeakEdges))
	}
	t.AddNote("paper chose group size 4 on average performance")
	return t, nil
}

// AblationLeaderOnlyMerge compares hierarchical merging against the §3.4
// strawman: shipping every rank's residual data straight to one node.
func AblationLeaderOnlyMerge(r *Runner) (*Table, error) {
	el, err := r.Graph(ablationGraph)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: hierarchical merging vs single-leader merging (arabic-2005, 16 nodes)",
		Header: []string{"Strategy", "Exe", "Comm", "PeakEdges"},
	}
	machine := cost.AMDCluster()
	for _, leaderOnly := range []bool{false, true} {
		cfg := hypar.DefaultConfig()
		cfg.LeaderOnly = leaderOnly
		res, err := r.runMND(el, 16, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "hierarchical"
		if leaderOnly {
			name = "leader-only"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()), fsec(res.Report.CommTime()),
			fmt.Sprintf("%d", res.PeakEdges))
	}
	t.AddNote("hierarchical merging bounds the per-node resident data (the paper's space-complexity argument)")
	return t, nil
}

// AblationExceptionCondition compares EXCPT_BORDER_VERTEX with the
// conservative EXCPT_BORDER_EDGE.
func AblationExceptionCondition(r *Runner) (*Table, error) {
	el, err := r.Graph(ablationGraph)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: indComp exception condition (arabic-2005, 16 nodes)",
		Header: []string{"Exception", "Exe", "Comm", "Iterations"},
	}
	machine := cost.AMDCluster()
	for _, ex := range []struct {
		name string
		cond boruvka.ExceptionCond
	}{
		{"EXCPT_BORDER_VERTEX", boruvka.ExcptBorderVertex},
		{"EXCPT_BORDER_EDGE", boruvka.ExcptBorderEdge},
	} {
		cfg := hypar.DefaultConfig()
		cfg.Excpt = ex.cond
		res, err := r.runMND(el, 16, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(ex.name, fsec(res.Report.ExecutionTime()), fsec(res.Report.CommTime()),
			fmt.Sprintf("%d", res.Iterations))
	}
	t.AddNote("border-edge freezes whole border components, contracting less per stage")
	return t, nil
}

// AblationTermination compares diminishing-benefit termination with
// running indComp to convergence.
func AblationTermination(r *Runner) (*Table, error) {
	el, err := r.Graph("road_usa")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: diminishing-benefit indComp termination (road_usa, 8 nodes)",
		Header: []string{"Termination", "Exe", "Comm"},
	}
	machine := cost.AMDCluster()
	for _, dim := range []bool{false, true} {
		cfg := hypar.DefaultConfig()
		cfg.DiminishingTermination = dim
		res, err := r.runMND(el, 8, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "run-to-convergence"
		if dim {
			name = "diminishing-benefit"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()), fsec(res.Report.CommTime()))
	}
	return t, nil
}

// AblationDataDriven compares the data-driven worklist kernels with the
// topology-driven variant (§3.5).
func AblationDataDriven(r *Runner) (*Table, error) {
	el, err := r.Graph(ablationGraph)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: data-driven vs topology-driven kernels (arabic-2005, 8 nodes)",
		Header: []string{"Kernel", "Exe"},
	}
	machine := cost.AMDCluster()
	for _, dd := range []bool{true, false} {
		cfg := hypar.DefaultConfig()
		cfg.DataDriven = dd
		res, err := r.runMND(el, 8, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "topology-driven"
		if dd {
			name = "data-driven"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()))
	}
	return t, nil
}

// AblationGPUOptimizations toggles the two GPU kernel optimizations of
// §3.5 — hierarchical adjacency processing and atomic batching — on the
// hybrid configuration.
func AblationGPUOptimizations(r *Runner) (*Table, error) {
	el, err := r.Graph("sk-2005")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: GPU kernel optimizations (sk-2005, 4 nodes, Cray CPU+GPU)",
		Header: []string{"HierAdjacency", "AtomicBatching", "Exe"},
	}
	for _, hier := range []bool{true, false} {
		for _, batch := range []bool{true, false} {
			machine := cost.CrayXC40()
			gpu := *machine.GPU
			gpu.HierarchicalAdjacency = hier
			gpu.AtomicBatching = batch
			machine.GPU = &gpu
			res, err := r.runMND(el, 4, machine, hypar.DefaultConfig(), true)
			if err != nil {
				return nil, err
			}
			t.AddRow(onOff(hier), onOff(batch), fsec(res.Report.ExecutionTime()))
		}
	}
	t.AddNote("hierarchical adjacency removes the power-law skew penalty; batching amortizes global atomics")
	return t, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// AblationContraction compares kernels with and without between-round
// graph contraction on the high-diameter road workload (many Boruvka
// rounds, where contraction pays).
func AblationContraction(r *Runner) (*Table, error) {
	el, err := r.Graph("road_usa")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: between-round graph contraction (road_usa, 4 nodes)",
		Header: []string{"Contraction", "Exe"},
	}
	machine := cost.AMDCluster()
	for _, contract := range []bool{false, true} {
		cfg := hypar.DefaultConfig()
		cfg.Contract = contract
		res, err := r.runMND(el, 4, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(onOff(contract), fsec(res.Report.ExecutionTime()))
	}
	t.AddNote("contraction trades one filter pass per round for never rescanning internal arcs (Sousa et al.)")
	return t, nil
}

// AblationPartitioning compares the Gemini-style degree-balanced 1D
// partitioning (§3.1) with the naive equal-vertex split on a power-law
// graph, where hub partitions make the naive split edge-imbalanced.
func AblationPartitioning(r *Runner) (*Table, error) {
	el, err := r.Graph("sk-2005")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: 1D partitioning strategy (sk-2005, 16 nodes)",
		Header: []string{"Strategy", "Exe", "PeakEdges"},
	}
	machine := cost.AMDCluster()
	for _, equalVertex := range []bool{false, true} {
		cfg := hypar.DefaultConfig()
		cfg.EqualVertexPartition = equalVertex
		res, err := r.runMND(el, 16, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "degree-balanced (Gemini)"
		if equalVertex {
			name = "equal-vertex (naive)"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()), fmt.Sprintf("%d", res.PeakEdges))
	}
	t.AddNote("degree balancing equalizes per-rank edge work under power-law hubs")
	return t, nil
}

// AblationBSPCombining compares the Pregel+ baseline (message combining,
// as the paper's comparator uses) with vanilla Pregel (no combiner) — the
// reason the paper calls Pregel+ the best-performing BSP system.
func AblationBSPCombining(r *Runner) (*Table, error) {
	el, err := r.Graph(ablationGraph)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: BSP baseline message combining (arabic-2005, 16 nodes)",
		Header: []string{"Baseline", "Exe", "Comm", "Bytes"},
	}
	machine := cost.AMDCluster()
	for _, combining := range []bool{true, false} {
		res, err := bsp.RunWith(context.Background(), el, 16, machine, bsp.Options{Combining: combining})
		if err != nil {
			return nil, err
		}
		name := "vanilla Pregel"
		if combining {
			name = "Pregel+ (combiner)"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()), fsec(res.Report.CommTime()),
			fmt.Sprintf("%d", res.Report.TotalBytes()))
	}
	t.AddNote("the paper compares against the stronger baseline; vanilla Pregel ships one message per vertex/arc")
	return t, nil
}
