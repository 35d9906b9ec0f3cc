// Command validate runs the full cross-implementation invariant suite on a
// graph: the sequential references (Kruskal, Prim, Boruvka, filter-Kruskal),
// the shared-memory kernel, the distributed MND-MST at several node counts
// (CPU-only and hybrid), and the BSP baseline must all produce the exact
// same minimum spanning forest, verified independently by the path-max
// checker. Useful as a smoke test on user-supplied inputs.
//
// Usage:
//
//	validate -input graph.mnd
//	validate -text edges.txt
//	validate -profile sk-2005 -scale 0.2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mndmst"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		input   = fs.String("input", "", "binary graph file (from graphgen)")
		text    = fs.String("text", "", "SNAP-style text edge list")
		profile = fs.String("profile", "", "generate a workload profile instead")
		scale   = fs.Float64("scale", 0.2, "profile scale")
		seed    = fs.Int64("seed", 1, "weight seed for text inputs without weights")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *mndmst.Graph
	var err error
	switch {
	case *input != "":
		g, err = mndmst.LoadGraph(*input)
	case *text != "":
		g, err = mndmst.LoadTextGraph(*text, *seed)
	case *profile != "":
		g, err = mndmst.GenerateProfile(*profile, *scale)
	default:
		err = fmt.Errorf("one of -input, -text, -profile is required")
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	ref := mndmst.FindMSFSequential(g)
	fmt.Fprintf(out, "reference (filter-Kruskal): %d edges, %d components, weight %d\n",
		len(ref.EdgeIDs), ref.Components, ref.TotalWeight)
	if err := mndmst.Verify(g, ref); err != nil {
		return fmt.Errorf("reference forest failed verification: %w", err)
	}
	pass := func(name string, res *mndmst.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if res.TotalWeight != ref.TotalWeight || len(res.EdgeIDs) != len(ref.EdgeIDs) {
			return fmt.Errorf("%s: forest differs from reference", name)
		}
		fmt.Fprintf(out, "  ok: %s\n", name)
		return nil
	}

	shared, err := mndmst.FindMSFShared(g)
	if err := pass("shared-memory kernel", shared, err); err != nil {
		return err
	}

	for _, nodes := range []int{1, 2, 4, 8, 16} {
		res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: nodes})
		if err := pass(fmt.Sprintf("MND-MST %d nodes (amd)", nodes), res, err); err != nil {
			return err
		}
	}
	res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 4, Machine: mndmst.CrayXC40, UseGPU: true})
	if err := pass("MND-MST 4 nodes CPU+GPU (cray)", res, err); err != nil {
		return err
	}
	res, err = mndmst.FindMSF(g, mndmst.Options{Nodes: 8, Exception: mndmst.BorderEdge})
	if err := pass("MND-MST 8 nodes EXCPT_BORDER_EDGE", res, err); err != nil {
		return err
	}
	res, err = mndmst.FindMSFBSP(g, mndmst.Options{Nodes: 8})
	if err := pass("Pregel+ baseline 8 nodes", res, err); err != nil {
		return err
	}

	fmt.Fprintln(out, "all implementations agree; forest verified exact")
	return nil
}
