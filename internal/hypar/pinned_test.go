package hypar

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// multiPinnedDigest is the SHA-256 over multiRecord for every
// configuration of TestIndCompMultiPinned: the node's chosen edges,
// parents and component count, its simulated seconds and the rank's
// compute time bit for bit, and the merge-phase reduction of the view
// after the split. A change to how the devices share the node's view that
// keeps it keeps every modeled figure of the multi-device path.
const multiPinnedDigest = "e70ee189c3d382fa6e40882c65371d0aafa612d2454df5c6d5a143db9daad814"

// multiRecord is what the digest covers for one configuration.
type multiRecord struct {
	Config       string
	ChosenIDs    []int32
	Parent       []int32
	Components   int
	SecondsBits  uint64
	ComputeBits  uint64 // the rank's compute time after IndComp
	Reduced      []graph.Edge
	ReducedBits  uint64 // the rank's compute time after Reduce
	DeviceBounds []int
}

// multiViews returns the views the pinned test splits, each built afresh
// per configuration since a run reorders a view's arcs: a web graph's
// window with ghost heads; a star whose hub, above the kernel's hub
// degree, lies in the CPU's range with some of its leaves; a
// component-graph view with scattered ids and ghost heads; and a road
// grid, on which diminishing-benefit termination stops a device run.
func multiViews(t testing.TB) []func() *boruvka.Local {
	web := gen.WebGraph(2000, 20000, 0.85, 9)
	webDeg := web.Degrees()
	star := gen.Star(9000, 21)
	road := gen.RoadNetwork(4000, 5)
	rmat := gen.RMAT(2048, 16384, 23)
	var ids []int32
	for v := range rmat.N {
		if v%4 != 3 {
			ids = append(ids, v)
		}
	}
	var edges []graph.Edge
	for _, e := range rmat.Edges {
		if e.U%4 != 3 || e.V%4 != 3 {
			edges = append(edges, e)
		}
	}
	return []func() *boruvka.Local{
		func() *boruvka.Local { return boruvka.NewWindow(web, webDeg, 0, 1500) },
		func() *boruvka.Local { return wholeView(t, star) },
		func() *boruvka.Local { return newLocal(t, append([]int32(nil), ids...), edges) },
		func() *boruvka.Local { return wholeView(t, road) },
	}
}

// TestIndCompMultiPinned pins the multi-device indComp and the reduction
// that follows it over four views × four kernel configurations: the
// defaults, diminishing-benefit termination, contraction and the
// border-edge exception. The GPU takes 30 % of the node's arcs, so the
// star's hub and thousands of its leaves run on the CPU.
func TestIndCompMultiPinned(t *testing.T) {
	configs := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"diminishing", func(c *Config) { c.DiminishingTermination = true }},
		{"contract", func(c *Config) { c.Contract = true }},
		{"border-edge", func(c *Config) { c.Excpt = boruvka.ExcptBorderEdge }},
	}
	h := sha256.New()
	for vi, view := range multiViews(t) {
		for _, c := range configs {
			var rec multiRecord
			onRank(t, func(rt *Runtime) error {
				rt.Cfg.GPUShare = 0.3
				c.set(&rt.Cfg)
				v := view()
				rec.DeviceBounds = splitByShares(v, rt.shares())
				res, err := rt.IndComp(v)
				if err != nil {
					return err
				}
				rec.ChosenIDs, rec.Parent, rec.Components = res.ChosenIDs, res.Parent, res.Components
				rec.SecondsBits = math.Float64bits(res.Seconds)
				rec.ComputeBits = math.Float64bits(rt.R.ComputeTime())
				rec.Reduced = rt.Reduce(nil, v, res.Parent, func(g int32) int32 { return g })
				rec.ReducedBits = math.Float64bits(rt.R.ComputeTime())
				return nil
			})
			rec.Config = c.name
			b, err := json.Marshal(struct {
				View int
				multiRecord
			}{vi, rec})
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != multiPinnedDigest {
		t.Fatalf("multi-device digest %s, want %s", got, multiPinnedDigest)
	}
}
