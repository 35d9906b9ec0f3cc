package boruvka

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// goldenDigest is the SHA-256 over goldenRecord for every configuration
// of goldenMatrix. It pins every Result field, and every argument the
// kernel passes to a Terminator, bit for bit: a kernel rewrite that keeps
// it keeps the forests, the work counters and the round structure. The
// digest was recorded with the kernel that swept all n vertices per round,
// before member rings and active-root hooking replaced it.
const goldenDigest = "050dff320b2094adde99115791589cad8c7734fb19112a3ae5093bcc372c2a6b"

// goldenGraphs are the five graphs of the golden matrix: a road grid, a
// power-law RMAT graph, a messy graph with self-loops and parallel edges,
// a path that needs many rounds, and a star whose hub is above the
// kernel's hub degree.
func goldenGraphs() []*graph.EdgeList {
	return []*graph.EdgeList{
		gen.RoadNetwork(2500, 71),
		gen.RMAT(1024, 8192, 72),
		messyGraph(400, 3200, 73),
		gen.Path(600, 74),
		gen.Star(9000, 75),
	}
}

// goldenWindows returns the four vertex ranges the matrix runs over n
// vertices: the whole graph, the first half, the middle half and the
// last quarter.
func goldenWindows(n int32) [][2]int32 {
	return [][2]int32{{0, n}, {0, n / 2}, {n / 4, 3 * n / 4}, {3 * n / 4, n}}
}

// terminatorCall is one call of a recording Terminator.
type terminatorCall struct {
	Round  int
	Work   cost.Work
	Merges int
}

// goldenRecord is what the digest covers for one configuration.
type goldenRecord struct {
	Config string
	Result *Result
	Calls  []terminatorCall
}

// goldenMatrix runs the kernel over graphs × windows × exception
// conditions × {data-driven, topology-driven} × {no contraction,
// contraction} × {no terminator, a terminator that stops after round 3},
// calling emit with each record in a fixed order.
func goldenMatrix(t *testing.T, emit func(goldenRecord)) {
	t.Helper()
	for gi, el := range goldenGraphs() {
		deg := el.Degrees()
		for _, w := range goldenWindows(el.N) {
			win := NewWindow(el, deg, w[0], w[1])
			for _, excpt := range []ExceptionCond{ExcptNone, ExcptBorderVertex, ExcptBorderEdge} {
				for _, dd := range []bool{true, false} {
					for _, contract := range []bool{false, true} {
						for _, term := range []bool{false, true} {
							rec := goldenRecord{Config: fmt.Sprintf("g%d [%d,%d) excpt=%d dd=%v contract=%v term=%v",
								gi, w[0], w[1], excpt, dd, contract, term)}
							opt := Options{Excpt: excpt, DataDriven: dd, Contract: contract}
							if term {
								opt.Terminator = func(round int, rw cost.Work, merges int) bool {
									rec.Calls = append(rec.Calls, terminatorCall{round, rw, merges})
									return round >= 3
								}
							}
							rec.Result = Run(win, opt)
							emit(rec)
						}
					}
				}
			}
		}
	}
}

// TestKernelGoldenDigest pins the kernel's output over the golden matrix.
func TestKernelGoldenDigest(t *testing.T) {
	h := sha256.New()
	goldenMatrix(t, func(rec goldenRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden digest %s, want %s", got, goldenDigest)
	}
}
