package boruvka_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/merge"
)

// arc is one arc of a vertex, compared by value.
type arc struct {
	dst int32
	w   uint64
}

func arcCmp(a, b arc) int {
	return cmp.Or(cmp.Compare(graph.EdgeID(a.w), graph.EdgeID(b.w)), cmp.Compare(a.dst, b.dst), cmp.Compare(a.w, b.w))
}

// arcsOf returns the arcs Arcs(u) shows, in the view's order.
func arcsOf(l *boruvka.Local, u int) []arc {
	dst, w := l.Arcs(u)
	out := make([]arc, len(dst))
	for a := range dst {
		out[a] = arc{dst[a], w[a]}
	}
	return out
}

// sortedArcs returns Arcs(u) as a multiset: sorted by (edge id, head,
// weight).
func sortedArcs(l *boruvka.Local, u int) []arc { return sortArcs(arcsOf(l, u)) }

// sortArcs returns a copy of arcs sorted by (edge id, head, weight).
func sortArcs(arcs []arc) []arc {
	out := slices.Clone(arcs)
	slices.SortFunc(out, arcCmp)
	return out
}

// subMultiset reports whether the sorted multiset a is contained in the
// sorted multiset b.
func subMultiset(a, b []arc) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && arcCmp(b[j], x) < 0 {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// checkLivePrefix checks the live arcs of v after res = Run(v, opt) against
// all, a copy of v that no kernel ran on. Without Contract, a hub keeps
// every arc live; under Contract, a run of one round never filtered, so
// every vertex does, a self-loop included. Otherwise, hubs included under
// Contract, the live arcs of a vertex are, as a multiset, its arcs whose
// head is external or in another component: exactly after a run whose
// last round merged nothing, and at least those after a Terminator stop,
// within the vertex's arcs.
func checkLivePrefix(t testing.TB, where string, all, v *boruvka.Local, res *boruvka.Result, opt boruvka.Options) {
	t.Helper()
	if v.N() == 0 {
		return
	}
	stopped := res.RoundMerges[len(res.RoundMerges)-1] > 0
	for u := range v.N() {
		got, full := sortedArcs(v, u), sortedArcs(all, u)
		var want []arc
		for _, a := range full {
			if a.dst < 0 || res.Parent[a.dst] != res.Parent[u] {
				want = append(want, a)
			}
		}
		switch {
		case opt.Contract && res.Rounds == 1, !opt.Contract && all.Degree(u) >= boruvka.HubDegree:
			if !slices.Equal(got, full) {
				t.Fatalf("%s: vertex %d shows %d of its %d arcs, want all", where, v.IDs[u], len(got), len(full))
			}
		case stopped:
			if !subMultiset(want, got) || !subMultiset(got, full) {
				t.Fatalf("%s: vertex %d live arcs %v are not between %v and %v", where, v.IDs[u], got, want, full)
			}
		case !slices.Equal(got, want):
			t.Fatalf("%s: vertex %d live arcs %v, want %v", where, v.IDs[u], got, want)
		}
	}
}

// relabelArcs relabels v's live arcs through parent, with heads outside v
// keeping their ids, and drops self edges: the walk merge.Relabel makes,
// without its pair-min table.
func relabelArcs(v *boruvka.Local, parent []int32) []graph.Edge {
	var out []graph.Edge
	for u := range v.N() {
		heads, w := v.Arcs(u)
		for a, h := range heads {
			pv := ^h
			if h >= 0 {
				if int(h) <= u {
					continue
				}
				pv = parent[h]
			}
			if parent[u] != pv {
				out = append(out, graph.Edge{U: parent[u], V: pv, W: w[a]})
			}
		}
	}
	return out
}

// checkRelabel checks that relabelling v through parent after a kernel
// run yields the edges that relabelling all, a copy of v that no kernel
// ran on, yields: the same multiset from the walk over the live arcs
// (relabelArcs), and the same component graph, as a set, from
// merge.Relabel. Heads outside v keep their ids.
func checkRelabel(t testing.TB, where string, all, v *boruvka.Local, parent []int32) {
	t.Helper()
	sorted := func(es []graph.Edge, by func(a, b graph.Edge) int) []graph.Edge {
		es = slices.Clone(es)
		slices.SortFunc(es, by)
		return es
	}
	byID := func(a, b graph.Edge) int { return cmp.Compare(graph.EdgeID(a.W), graph.EdgeID(b.W)) }
	if g, w := sorted(relabelArcs(v, parent), byID), sorted(relabelArcs(all, parent), byID); !slices.Equal(g, w) {
		t.Fatalf("%s: relabel emits %d edges %v, the fresh view %d %v", where, len(g), g, len(w), w)
	}
	ghost := func(x int32) int32 { return x }
	byPair := func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }
	got, _ := merge.Relabel(nil, v, parent, ghost)
	want, _ := merge.Relabel(nil, all, parent, ghost)
	if g, w := sorted(got, byPair), sorted(want, byPair); !slices.Equal(g, w) {
		t.Fatalf("%s: component graph %v, the fresh view gives %v", where, g, w)
	}
}

// checkRangeOwnsArcs runs the kernel on local vertices [a, b) of v and
// checks that every vertex outside the range keeps all its arcs, live and
// retired, in place, and its live end. It first runs the kernel on all of
// v, so that vertices outside the range have retired arcs to keep.
func checkRangeOwnsArcs(t testing.TB, where string, v *boruvka.Local, a, b int, opt boruvka.Options) {
	t.Helper()
	boruvka.Run(v, opt)
	all, live := make([][]arc, v.N()), make([]int, v.N())
	for u := range v.N() {
		all[u], live[u] = allArcsOf(v, u), len(arcsOf(v, u))
	}
	boruvka.RunRange(v, a, b, opt)
	for u := range v.N() {
		if u >= a && u < b {
			continue
		}
		if got, n := allArcsOf(v, u), len(arcsOf(v, u)); !slices.Equal(got, all[u]) || n != live[u] {
			t.Fatalf("%s: a run on [%d, %d) moved vertex %d's arcs from %v (%d live) to %v (%d live)", where, a, b, v.IDs[u], all[u], live[u], got, n)
		}
	}
}

// liveMode is one kernel configuration the live-prefix checks run.
type liveMode struct {
	name string
	opt  boruvka.Options
}

// liveModes are the kernel runs the live-prefix checks cover: each under
// ExcptNone and ExcptBorderVertex, data-driven and topology-driven, as a
// full run, a Terminator stop after round 2, and with Contract.
func liveModes() []liveMode {
	var out []liveMode
	stop := func(round int, _ cost.Work, _ int) bool { return round >= 2 }
	for _, excpt := range []boruvka.ExceptionCond{boruvka.ExcptNone, boruvka.ExcptBorderVertex} {
		for _, dd := range []bool{true, false} {
			base := boruvka.Options{Excpt: excpt, DataDriven: dd}
			term, contract := base, base
			term.Terminator = stop
			contract.Contract = true
			name := fmt.Sprintf("excpt=%d dd=%v", excpt, dd)
			out = append(out, liveMode{name + " full", base}, liveMode{name + " stop", term}, liveMode{name + " contract", contract})
		}
	}
	return out
}

// forGoldenRuns runs every live mode over the golden graphs and windows.
// All runs of one window share one view, so each run starts from the
// arcs its predecessor permuted; check gets a fresh copy of the view as
// all.
func forGoldenRuns(t *testing.T, check func(where string, all, win *boruvka.Local, res *boruvka.Result, opt boruvka.Options)) (stops int) {
	t.Helper()
	for gi, el := range boruvka.GoldenGraphs() {
		deg := el.Degrees()
		for _, w := range boruvka.GoldenWindows(el.N) {
			all, win := boruvka.NewWindow(el, deg, w[0], w[1]), boruvka.NewWindow(el, deg, w[0], w[1])
			for _, m := range liveModes() {
				res := boruvka.Run(win, m.opt)
				if n := len(res.RoundMerges); n > 0 && res.RoundMerges[n-1] > 0 {
					stops++
				}
				check(fmt.Sprintf("g%d [%d,%d) %s", gi, w[0], w[1], m.name), all, win, res, m.opt)
			}
		}
	}
	return stops
}

// TestKernelLivePrefix pins what a kernel run leaves in a view's live
// prefixes (checkLivePrefix) over the golden graphs and windows.
func TestKernelLivePrefix(t *testing.T) {
	stops := forGoldenRuns(t, func(where string, all, win *boruvka.Local, res *boruvka.Result, opt boruvka.Options) {
		checkLivePrefix(t, where, all, win, res, opt)
	})
	if stops == 0 {
		t.Fatal("no run stopped with merges pending: the Terminator case was not covered")
	}
}

// allArcsOf returns every arc of u, live and retired, in the view's order.
func allArcsOf(l *boruvka.Local, u int) []arc {
	dst, w := boruvka.AllArcs(l, u)
	out := make([]arc, len(dst))
	for a := range dst {
		out[a] = arc{dst[a], w[a]}
	}
	return out
}

// isSubsequence reports whether a is b with some elements left out, in
// b's order.
func isSubsequence(a, b []arc) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] != x {
			j++
		}
		if j == len(b) {
			return false
		}
		j++
	}
	return true
}

// TestKernelArcBookkeeping pins what the scan's moves do to a view's arcs,
// over every live mode on the golden graphs and windows, each run starting
// from the arcs its predecessor left. After a run, every vertex's full arc
// range is a permutation of its arcs before the run, and its live prefix
// is their stable partition: the arcs it keeps, in their order before the
// run. Those are all of them for a hub without Contract and for a Contract
// run of one round, the arcs leaving the vertex's component after a run
// whose last round merged nothing, and at least those after a Terminator
// stop.
func TestKernelArcBookkeeping(t *testing.T) {
	for gi, el := range boruvka.GoldenGraphs() {
		deg := el.Degrees()
		for _, w := range boruvka.GoldenWindows(el.N) {
			win := boruvka.NewWindow(el, deg, w[0], w[1])
			for _, m := range liveModes() {
				where := fmt.Sprintf("g%d [%d,%d) %s", gi, w[0], w[1], m.name)
				before := make([][]arc, win.N())
				for u := range win.N() {
					before[u] = allArcsOf(win, u)
				}
				res := boruvka.Run(win, m.opt)
				stopped := len(res.RoundMerges) > 0 && res.RoundMerges[len(res.RoundMerges)-1] > 0
				for u := range win.N() {
					full, live := allArcsOf(win, u), arcsOf(win, u)
					if !slices.Equal(sortArcs(full), sortArcs(before[u])) {
						t.Fatalf("%s: vertex %d arcs %v, before the run %v", where, win.IDs[u], full, before[u])
					}
					var leaving []arc
					for _, a := range before[u] {
						if a.dst < 0 || res.Parent[a.dst] != res.Parent[u] {
							leaving = append(leaving, a)
						}
					}
					switch {
					case m.opt.Contract && res.Rounds == 1, !m.opt.Contract && win.Degree(u) >= boruvka.HubDegree:
						leaving = before[u]
					case stopped:
						if !isSubsequence(live, before[u]) || !isSubsequence(leaving, live) {
							t.Fatalf("%s: vertex %d live arcs %v are not a stable partition of %v keeping %v", where, win.IDs[u], live, before[u], leaving)
						}
						continue
					}
					if !slices.Equal(live, leaving) {
						t.Fatalf("%s: vertex %d live arcs %v, want %v", where, win.IDs[u], live, leaving)
					}
				}
			}
		}
	}
}

// TestRelabelLiveArcsMatchesFreshView checks that the merge-phase relabel
// over a view's live arcs after a kernel run equals the relabel over a
// fresh window of its range, and that a kernel run on a range of a view
// leaves the arcs and live ends outside the range in place.
func TestRelabelLiveArcsMatchesFreshView(t *testing.T) {
	forGoldenRuns(t, func(where string, all, win *boruvka.Local, res *boruvka.Result, opt boruvka.Options) {
		checkRelabel(t, where, all, win, res.Parent)
	})
	for gi, el := range boruvka.GoldenGraphs() {
		deg := el.Degrees()
		for _, w := range boruvka.GoldenWindows(el.N) {
			win := boruvka.NewWindow(el, deg, w[0], w[1])
			n := win.N()
			for _, m := range liveModes() {
				checkRangeOwnsArcs(t, fmt.Sprintf("g%d [%d,%d) %s", gi, w[0], w[1], m.name), win, n/4, n-n/4, m.opt)
			}
		}
	}
}

// FuzzNewWindow checks the property of TestNewWindowMatchesNewLocal on
// small graphs built from the input: byte 0 sizes the vertex set, bytes 1
// and 2 pick the range (and the part of the component-graph view, whose
// ids are the vertices that are not multiples of byte 1 % 4 + 2), byte 3
// tiles the edges when odd, and each further byte pair is an edge. Tiling
// repeats the edge pattern, each copy with new edge ids, to 2·WindowBlock
// + 1 + byte 3 / 2 edges, so the window's listing crosses two block
// edges. It then runs the kernel on the window, in the live mode the last
// byte picks, and checks the live prefixes, the relabel over them, that
// a run on a range leaves the arcs outside it in place, and that the
// run leaves the ghost span as the window recorded it.
func FuzzNewWindow(f *testing.F) {
	f.Add([]byte{5, 1, 4, 0, 0, 1, 1, 1, 1, 2, 3, 3, 2, 1, 4, 4})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 3, 3, 0, 0, 8, 2, 2})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{7, 2, 6, 9, 0, 1, 2, 2, 5, 6, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int32(data[0]%32) + 1
		lo, hi := int32(data[1])%(n+1), int32(data[2])%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		el := &graph.EdgeList{N: n}
		for i := 4; i+1 < len(data); i += 2 {
			id := int32(len(el.Edges))
			u, v := int32(data[i])%n, int32(data[i+1])%n
			el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(data[i])<<8|uint16(data[i+1]), id)})
		}
		if pattern := len(el.Edges); data[3]%2 == 1 && pattern > 0 {
			for id := int32(pattern); id <= 2*boruvka.WindowBlock+int32(data[3]/2); id++ {
				e := el.Edges[int(id)%pattern]
				el.Edges = append(el.Edges, graph.Edge{U: e.U, V: e.V, W: graph.MakeWeight(graph.WeightRand(e.W), id)})
			}
		}
		boruvka.CheckWindow(t, el, lo, hi)
		deg := el.Degrees()
		win := boruvka.NewWindow(el, deg, lo, hi)
		a, b := win.N()/3, win.N()-win.N()/4
		boruvka.CheckWindowRange(t, el, deg, lo, hi, a, b)
		mod := int32(data[1]%4) + 2
		boruvka.CheckLocalRange(t, el, func(v int32) bool { return v%mod != 0 }, int(data[1]), int(data[2]))

		modes := liveModes()
		m := modes[int(data[len(data)-1])%len(modes)]
		where := fmt.Sprintf("N=%d [%d,%d) %s", n, lo, hi, m.name)
		all := boruvka.NewWindow(el, deg, lo, hi)
		res := boruvka.Run(win, m.opt)
		checkLivePrefix(t, where, all, win, res, m.opt)
		checkRelabel(t, where, all, win, res.Parent)
		checkRangeOwnsArcs(t, where, win, a, b, m.opt)
		boruvka.CheckGhostSpan(t, where, win)
	})
}
