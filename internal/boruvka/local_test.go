package boruvka

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mndmst/internal/graph"
	"mndmst/internal/parutil"
)

// newLocalMap is NewLocal as it was built over a map[int32]int32 from
// global to local ids: the reference FuzzNewLocal checks the span index
// against.
func newLocalMap(ids []int32, edges []graph.Edge) (*Local, error) {
	slices.Sort(ids)
	index := make(map[int32]int32, len(ids))
	for i, id := range ids {
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("boruvka: duplicate local id %d", id)
		}
		index[id] = int32(i)
	}
	l := &Local{IDs: ids, NumEdges: int64(len(edges))}
	n := len(ids)
	counts := make([]int64, n+1)
	for i := range edges {
		e := &edges[i]
		lu, okU := index[e.U]
		lv, okV := index[e.V]
		if !okU && !okV {
			return nil, fmt.Errorf("boruvka: edge %d (%d-%d) has no local endpoint", i, e.U, e.V)
		}
		if okU != okV {
			l.NumCut++
		}
		if okU {
			counts[lu+1]++
		}
		if okV && e.U != e.V {
			counts[lv+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	total := counts[n]
	l.off = counts
	l.dst = make([]int32, total)
	l.w = make([]uint64, total)
	cursor := make([]int64, n)
	put := func(tail int32, head int32, headLocal bool, e *graph.Edge) {
		a := l.off[tail] + cursor[tail]
		cursor[tail]++
		if headLocal {
			l.dst[a] = index[head]
		} else {
			l.dst[a] = ^head
		}
		l.w[a] = e.W
	}
	for i := range edges {
		e := &edges[i]
		lu, okU := index[e.U]
		lv, okV := index[e.V]
		if okU {
			put(lu, e.V, okV, e)
		}
		if okV && e.U != e.V {
			put(lv, e.U, okU, e)
		}
	}
	l.live = make([]int32, n)
	l.resetLive(0, n)
	return l, nil
}

// FuzzNewLocal checks NewLocal's span index against newLocalMap. Byte 0
// sets the id range N; byte 1 % 16 is the number of local ids, each read
// from the next bytes and scaled over [0, N−1], so ids land far apart and
// byte values 0 and 255 give ids 0 and N−1 (an equal byte pair is a
// duplicate id). Each further byte pair is an edge whose endpoints are a
// local id (even byte) or any id of [0, N−1] scaled the same way (odd
// byte), which lands outside the span, in a gap, or on a local id. Equal
// endpoints make self-loops, and two external endpoints an edge with no
// local endpoint. The views, or the errors, must be equal, and the view's
// ghost span must be that of its external heads (checkGhostSpan).
func FuzzNewLocal(f *testing.F) {
	f.Add([]byte{255, 3, 0, 128, 255, 0, 2, 4, 4, 1, 2, 2, 255})           // ids 0, N−1 and a middle one; loops; edges within
	f.Add([]byte{40, 2, 90, 170, 0, 1, 2, 255, 0, 2, 2, 3, 0, 1})          // ghosts below and above the span
	f.Add([]byte{9, 4, 17, 200, 17, 3, 0, 1})                              // duplicate id
	f.Add([]byte{200, 2, 60, 61, 0, 2, 1, 255, 0, 0})                      // edge 1 has no local endpoint
	f.Add([]byte{0, 1, 7, 0, 0, 1, 1})                                     // N = 1: one id, a loop, a ghost edge
	f.Add([]byte{3, 0, 1, 3})                                              // no ids, one edge
	f.Add([]byte{128, 5, 10, 250, 30, 99, 180, 0, 2, 4, 6, 8, 9, 3, 5, 6}) // scattered ids, mixed edges
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int64(data[0])*97 + 1 // ids are in [0, n−1]
		scale := func(b byte) int32 { return int32(int64(b) * (n - 1) / 255) }
		k := min(int(data[1]%16), len(data)-2)
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = scale(data[2+i])
		}
		var edges []graph.Edge
		end := func(b byte) int32 {
			if b%2 == 0 && k > 0 {
				return ids[int(b/2)%k]
			}
			return scale(b)
		}
		for i := 2 + k; i+1 < len(data); i += 2 {
			id := int32(len(edges))
			edges = append(edges, graph.Edge{
				U: end(data[i]), V: end(data[i+1]),
				W: graph.MakeWeight(uint16(data[i])<<8|uint16(data[i+1]), id),
			})
		}
		got, gotErr := NewLocal(slices.Clone(ids), edges)
		want, wantErr := newLocalMap(slices.Clone(ids), edges)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("ids %v: error %v, want %v", ids, gotErr, wantErr)
			}
			return
		}
		where := fmt.Sprintf("ids %v, edges %v", ids, edges)
		switch {
		case !slices.Equal(got.IDs, want.IDs):
			t.Fatalf("%s: IDs %v, want %v", where, got.IDs, want.IDs)
		case got.NumEdges != want.NumEdges || got.NumCut != want.NumCut:
			t.Fatalf("%s: %d edges, %d cut; want %d, %d", where, got.NumEdges, got.NumCut, want.NumEdges, want.NumCut)
		case !slices.Equal(got.off, want.off):
			t.Fatalf("%s: offsets %v, want %v", where, got.off, want.off)
		case !slices.Equal(got.dst, want.dst):
			t.Fatalf("%s: heads %v, want %v", where, got.dst, want.dst)
		case !slices.Equal(got.w, want.w):
			t.Fatalf("%s: weights %v, want %v", where, got.w, want.w)
		case !slices.Equal(got.live, want.live):
			t.Fatalf("%s: live ends %v, want %v", where, got.live, want.live)
		}
		checkGhostSpan(t, where, got)
	})
}

// viewArc is one arc of a view, live or retired.
type viewArc struct {
	dst int32
	w   uint64
}

// liveArcs returns the arcs Arcs(u) shows, in order.
func liveArcs(l *Local, u int) []viewArc {
	dst, w := l.Arcs(u)
	out := make([]viewArc, len(dst))
	for a := range dst {
		out[a] = viewArc{dst[a], w[a]}
	}
	return out
}

// allArcs returns every arc of u, live or retired, sorted by edge id and
// head: the multiset of u's arcs.
func allArcs(l *Local, u int) []viewArc {
	var out []viewArc
	for a := l.off[u]; a < l.off[u+1]; a++ {
		out = append(out, viewArc{l.dst[a], l.w[a]})
	}
	slices.SortFunc(out, func(a, b viewArc) int {
		return cmp.Or(cmp.Compare(graph.EdgeID(a.w), graph.EdgeID(b.w)), cmp.Compare(a.dst, b.dst))
	})
	return out
}

// TestRetain retires arcs of every vertex of the golden windows by two
// Retain passes, the vertices of a pass concurrently. Each pass must keep
// the live arcs it accepts in their order and return their count, and
// leave each vertex's multiset of arcs as it was. A run of every kernel
// configuration on the retired view must then equal the run on a fresh
// view.
func TestRetain(t *testing.T) {
	passes := []func(head int32, w uint64) bool{
		func(_ int32, w uint64) bool { return graph.EdgeID(w)%3 != 0 },
		func(head int32, w uint64) bool { return head < 0 || w%2 == 0 },
	}
	opts := []Options{DefaultOptions(), {Excpt: ExcptBorderEdge}, {Excpt: ExcptNone, DataDriven: true, Contract: true}}
	for gi, el := range goldenGraphs() {
		deg := el.Degrees()
		for _, w := range goldenWindows(el.N) {
			where := fmt.Sprintf("g%d [%d,%d)", gi, w[0], w[1])
			fresh, win := NewWindow(el, deg, w[0], w[1]), NewWindow(el, deg, w[0], w[1])
			for pi, keep := range passes {
				want := make([][]viewArc, win.N())
				for u := range want {
					for _, a := range liveArcs(win, u) {
						if keep(a.dst, a.w) {
							want[u] = append(want[u], a)
						}
					}
				}
				got := make([]int, win.N())
				parutil.For(win.N(), 64, func(lo, hi int) {
					for u := lo; u < hi; u++ {
						got[u] = win.Retain(u, keep)
					}
				})
				for u := range want {
					if live := liveArcs(win, u); got[u] != len(want[u]) || !slices.Equal(live, want[u]) {
						t.Fatalf("%s pass %d: vertex %d kept %v (returned %d), want %v", where, pi, u, live, got[u], want[u])
					}
					if !slices.Equal(allArcs(win, u), allArcs(fresh, u)) {
						t.Fatalf("%s pass %d: vertex %d's arcs changed as a multiset", where, pi, u)
					}
				}
			}
			for _, opt := range opts {
				if got, want := Run(win, opt), Run(NewWindow(el, deg, w[0], w[1]), opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: a run on the retired view differs from a run on a fresh view", where, opt)
				}
			}
		}
	}
}
