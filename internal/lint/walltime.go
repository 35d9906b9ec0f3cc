package lint

import (
	"go/ast"
)

// wallClockExempt names the packages that legitimately read real time or
// entropy: trace (observability), transport (deadlines, heartbeats,
// backoff), gen (seeded workload synthesis owns its rand plumbing), chaos
// (fault injection), and serve (job deadlines and queue/run accounting
// are real-time by design).
var wallClockExempt = map[string]bool{
	"trace":     true,
	"transport": true,
	"gen":       true,
	"chaos":     true,
	"serve":     true,
	"obs":       true, // metrics observe real latencies by definition
}

// wallClockFuncs are the time functions that leak the real clock into a
// simulated run.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, non-reproducible global source. Seeded generators constructed via
// rand.New(rand.NewSource(seed)) remain allowed everywhere: they are
// deterministic by construction.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint64N": true,
}

// checkWallClock flags uses of time.Now/Since/Until and the global
// math/rand source outside the exempt packages. Virtual time is the
// simulation's only clock; real-time reads elsewhere need a
// //lint:wallclock justification (e.g. the wall-clock phase columns of
// distributed reports).
func checkWallClock(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if wallClockExempt[pathElem(p.ScopePath(f))] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified references (time.Now, rand.Intn) —
			// methods on a seeded *rand.Rand value are deterministic.
			if !p.isPackageQualifier(sel.X) {
				return true
			}
			obj := p.objectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallClockFuncs[obj.Name()] && !p.suppressed(f, sel.Pos(), "wallclock") {
					out = append(out, p.finding("det-wallclock", sel,
						"time.%s reads the real clock in simulated code; use virtual time or justify with //lint:wallclock <reason>", obj.Name()))
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[obj.Name()] && !p.suppressed(f, sel.Pos(), "wallclock") {
					out = append(out, p.finding("det-wallclock", sel,
						"rand.%s uses the global random source; use a seeded *rand.Rand or justify with //lint:wallclock <reason>", obj.Name()))
				}
			}
			return true
		})
	}
	return out
}
