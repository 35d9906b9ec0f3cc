package boruvka

// Exports for the tests of package boruvka_test, which read the kernel's
// live arcs through merge.Relabel and so cannot be in package boruvka
// (merge imports it).
const HubDegree = hubDegree

var (
	CheckWindow   = checkWindow
	CheckLocalSub = checkLocalSub
	GoldenGraphs  = goldenGraphs
	GoldenWindows = goldenWindows
)
