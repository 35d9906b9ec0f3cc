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
// is exactly the members of their union that have a live arc, that every
// member left off it has only arcs internal to its component, and that
// every other component's ring is intact too.
func TestRingsListComponentMembers(t *testing.T) {
	for _, el := range []*graph.EdgeList{gen.Path(300, 81), gen.Star(300, 82)} {
		l := fullLocal(t, el)
		k := newKernel(l, 0, l.N(), DefaultOptions(), &Result{})
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
				for _, u := range got {
					if l.live[u] > 0 {
						listed = append(listed, u)
						continue
					}
					for a := l.off[u]; a < l.off[u+1]; a++ {
						if v := l.dst[a]; v < 0 || k.uf.Find(v) != r {
							t.Fatalf("N=%d round %d: member %d left off the scan list has external arc to %d", l.N(), round, u, v)
						}
					}
				}
			}
			slices.Sort(listed)
			if scan := sorted(k.scan); !slices.Equal(scan, listed) {
				t.Fatalf("N=%d round %d: scan list %v, merged members with a live arc %v", l.N(), round, scan, listed)
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

// TestScanChargesMergedMembers checks that a data-driven round's
// EdgesScanned is exactly what scanning every member of the components
// merged in the previous round (every vertex in round 1) would charge,
// although members with no live arc are left off the scan list: without
// Contract their full degrees, under Contract their live arcs. It runs a
// road window and a star window whose hub takes the nested parallel path.
func TestScanChargesMergedMembers(t *testing.T) {
	road := gen.RoadNetwork(20000, 85)
	star := gen.Star(4*hubDegree, 86)
	views := map[string]*Local{
		"road quarter": NewWindow(road, road.Degrees(), road.N/4, road.N/2),
		"hub half":     NewWindow(star, star.Degrees(), 0, star.N/2),
	}
	for name, l := range views {
		for _, contract := range []bool{false, true} {
			opt := DefaultOptions()
			opt.Contract = contract
			k := newKernel(l, 0, l.N(), opt, &Result{})
			members := slices.Clone(k.scan)
			for round := 1; ; round++ {
				var want int64
				for _, u := range members {
					if contract {
						want += int64(l.live[u])
					} else {
						want += l.Degree(int(u))
					}
				}
				rw, merges, _ := k.round()
				if rw.EdgesScanned != want {
					t.Fatalf("%s contract=%v round %d: EdgesScanned %d, merged members' arcs %d",
						name, contract, round, rw.EdgesScanned, want)
				}
				if merges == 0 {
					break
				}
				members = members[:0]
				for _, r := range k.active {
					members = append(members, k.members(r)...)
				}
				if contract {
					k.contract()
				}
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
