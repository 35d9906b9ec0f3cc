package boruvka

// Exports for the tests of package boruvka_test, which read the kernel's
// live arcs through merge.Relabel and so cannot be in package boruvka
// (merge imports it).
const (
	HubDegree   = hubDegree
	WindowBlock = windowBlock
)

var (
	CheckGhostSpan   = checkGhostSpan
	CheckWindow      = checkWindow
	CheckLocalRange  = checkLocalRange
	CheckWindowRange = checkWindowRange
	GoldenGraphs     = goldenGraphs
	GoldenWindows    = goldenWindows
)

// AllArcs returns every arc of local vertex u, live and retired, in the
// view's order.
func AllArcs(l *Local, u int) (dst []int32, w []uint64) {
	lo, hi := l.off[u], l.off[u+1]
	return l.dst[lo:hi], l.w[lo:hi]
}
