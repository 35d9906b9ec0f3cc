package boruvka

import (
	"reflect"
	"slices"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/parutil"
)

// sorted returns a sorted copy of s.
func sorted(s []int32) []int32 {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// members lists root r's component by walking its ring.
func (k *kernel) members(r int32) []int32 {
	out := []int32{r}
	for u := k.ring[r]; u != r; u = k.ring[u] {
		out = append(out, u)
	}
	return out
}

// TestRingsListComponentMembers runs the kernel round by round on a path
// and a star and checks, after every round, that the ring of each merged
// root lists exactly its component's vertices, that the next scan list
// is exactly their union, and that every other component's ring is
// intact too.
func TestRingsListComponentMembers(t *testing.T) {
	for _, el := range []*graph.EdgeList{gen.Path(300, 81), gen.Star(300, 82)} {
		l := fullLocal(t, el)
		k := newKernel(l, DefaultOptions(), &Result{})
		for round := 1; ; round++ {
			_, merges, _ := k.round()
			comps := map[int32][]int32{}
			for u := int32(0); u < int32(l.N()); u++ {
				r := k.uf.Find(u)
				comps[r] = append(comps[r], u)
			}
			var listed []int32
			for _, r := range k.active {
				got := sorted(k.members(r))
				if !slices.Equal(got, comps[r]) {
					t.Fatalf("N=%d round %d: ring of merged root %d lists %v, component is %v", l.N(), round, r, got, comps[r])
				}
				listed = append(listed, got...)
			}
			slices.Sort(listed)
			if scan := sorted(k.scan); !slices.Equal(scan, listed) {
				t.Fatalf("N=%d round %d: scan list %v, merged members %v", l.N(), round, scan, listed)
			}
			for r, want := range comps {
				if got := sorted(k.members(r)); !slices.Equal(got, want) {
					t.Fatalf("N=%d round %d: ring of root %d lists %v, component is %v", l.N(), round, r, got, want)
				}
			}
			if merges == 0 {
				if len(comps) != 1 {
					t.Fatalf("N=%d: %d components left, want 1", l.N(), len(comps))
				}
				break
			}
		}
	}
}

// TestKernelSchedulingIndependent checks that the result does not depend
// on how many workers run the parallel loops: on a road window, on a
// window whose hub takes the nested parallel path, under both border
// exceptions, in both scan modes and with and without contraction.
func TestKernelSchedulingIndependent(t *testing.T) {
	road := gen.RoadNetwork(20000, 83)
	star := gen.Star(4*hubDegree, 84)
	views := map[string]*Local{
		"road quarter": NewWindow(road, road.Degrees(), road.N/4, road.N/2),
		"hub half":     NewWindow(star, star.Degrees(), 0, star.N/2),
	}
	defer parutil.SetMaxWorkers(parutil.SetMaxWorkers(1))
	for name, l := range views {
		for _, excpt := range []ExceptionCond{ExcptBorderVertex, ExcptBorderEdge} {
			for _, dd := range []bool{true, false} {
				for _, contract := range []bool{false, true} {
					opt := Options{Excpt: excpt, DataDriven: dd, Contract: contract}
					parutil.SetMaxWorkers(1)
					one := Run(l, opt)
					parutil.SetMaxWorkers(8)
					eight := Run(l, opt)
					if !reflect.DeepEqual(one, eight) {
						t.Fatalf("%s excpt=%d dd=%v contract=%v: 1 worker %+v, 8 workers %+v",
							name, excpt, dd, contract, one.Work, eight.Work)
					}
				}
			}
		}
	}
}
