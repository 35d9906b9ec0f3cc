package apps

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// appFigures is what TestAppsModeledFiguresPinned pins of one app run: the
// total bytes and messages, the step count, and every rank's compute and
// comm seconds.
type appFigures struct {
	bytes, msgs int64
	steps       int
	ranks       [][2]float64
}

// TestAppsModeledFiguresPinned pins the modeled figures of BFS, SSSP,
// PageRank and Coloring on a road graph at p = 4 and p = 8 and on a web
// graph at p = 4. On the road graph some rank pairs share no edge, so the
// figures pin how each app ships an empty bucket: BFS and SSSP send a
// length prefix, PageRank and Coloring send nothing.
func TestAppsModeledFiguresPinned(t *testing.T) {
	road := gen.RoadNetwork(900, 41)
	web := gen.WebGraph(1024, 8192, 0.85, 42)
	ctx := context.Background()
	apps := []struct {
		name string
		run  func(el *graph.EdgeList, p int) (*cluster.Report, int, error)
	}{
		{"bfs", func(el *graph.EdgeList, p int) (*cluster.Report, int, error) {
			res, err := BFS(ctx, el, p, amd(), 0)
			if err != nil {
				return nil, 0, err
			}
			return res.Report, res.Levels, nil
		}},
		{"sssp", func(el *graph.EdgeList, p int) (*cluster.Report, int, error) {
			res, err := SSSP(ctx, el, p, amd(), 0)
			if err != nil {
				return nil, 0, err
			}
			return res.Report, res.Rounds, nil
		}},
		{"pagerank", func(el *graph.EdgeList, p int) (*cluster.Report, int, error) {
			res, err := PageRank(ctx, el, p, amd(), 0.85, 1e-6, 30)
			if err != nil {
				return nil, 0, err
			}
			return res.Report, res.Iterations, nil
		}},
		{"coloring", func(el *graph.EdgeList, p int) (*cluster.Report, int, error) {
			res, err := Coloring(ctx, el, p, amd(), 7)
			if err != nil {
				return nil, 0, err
			}
			return res.Report, res.Rounds, nil
		}},
	}
	graphs := []struct {
		name string
		el   *graph.EdgeList
		p    int
	}{
		{"road", road, 4},
		{"road", road, 8},
		{"web", web, 4},
	}
	want := map[string]appFigures{
		"bfs/road/p4": {13080, 1203, 100, [][2]float64{
			{9.566666666666666e-06, 0.02717301999999995},
			{9.746666666666664e-06, 0.027172566666666613},
			{9.956666666666669e-06, 0.027172616666666594},
			{9.829999999999999e-06, 0.027172756666666614},
		}},
		"bfs/road/p8": {49316, 5607, 100, [][2]float64{
			{4.893333333333331e-06, 0.04823577333333284},
			{4.933333333333334e-06, 0.04823555666666617},
			{4.996666666666667e-06, 0.0482355199999995},
			{4.999999999999999e-06, 0.04823553666666617},
			{5.100000000000002e-06, 0.04823554999999948},
			{5.0266666666666646e-06, 0.048235636666666123},
			{5.029999999999997e-06, 0.04823562999999946},
			{4.959999999999999e-06, 0.04823570666666614},
		}},
		"bfs/web/p4": {12708, 51, 4, [][2]float64{
			{6.713333333333333e-05, 0.00124846},
			{6.597e-05, 0.0012495800000000001},
			{6.581333333333334e-05, 0.00124978},
			{6.502e-05, 0.0012505700000000001},
		}},
		"sssp/road/p4": {18552, 1203, 100, [][2]float64{
			{1.7913333333333333e-05, 0.02717502333333327},
			{1.3059999999999999e-05, 0.027179329999999943},
			{1.2220000000000002e-05, 0.02718068999999992},
			{1.0203333333333333e-05, 0.027182733333333268},
		}},
		"sssp/road/p8": {58384, 5607, 100, [][2]float64{
			{1.0606666666666664e-05, 0.04823938666666612},
			{9.483333333333333e-06, 0.048240156666666124},
			{7.3866666666666665e-06, 0.04824230666666613},
			{6.906666666666664e-06, 0.04824282666666613},
			{6.806666666666666e-06, 0.04824315333333277},
			{6.266666666666666e-06, 0.04824371999999945},
			{5.669999999999998e-06, 0.04824430999999943},
			{5.226666666666664e-06, 0.0482447666666661},
		}},
		"sssp/web/p4": {62528, 123, 10, [][2]float64{
			{0.00014415666666666666, 0.0028888300000000002},
			{0.00013887666666666668, 0.002894023333333333},
			{0.00013260666666666668, 0.0029003800000000006},
			{0.00014149333333333334, 0.0028914866666666667},
		}},
		"pagerank/road/p4": {69656, 363, 30, [][2]float64{
			{0.00019618000000000006, 0.008296446666666669},
			{0.00021152000000000006, 0.008280560000000006},
			{0.00021426999999999994, 0.008278330000000006},
			{0.00020053000000000011, 0.00829209666666667},
		}},
		"pagerank/road/p8": {150032, 1687, 30, [][2]float64{
			{0.00010576333333333336, 0.014654886666666693},
			{0.0001166766666666666, 0.014643620000000036},
			{0.00011788333333333336, 0.014642466666666706},
			{0.00011888666666666674, 0.01464150333333337},
			{0.00011885333333333341, 0.01464176333333337},
			{0.00011258666666666666, 0.01464805666666669},
			{0.0001122833333333334, 0.014648353333333357},
			{0.00010440666666666671, 0.01465624333333336},
		}},
		"pagerank/web/p4": {605984, 363, 30, [][2]float64{
			{0.0016762533333333325, 0.008454566666666668},
			{0.0015478433333333326, 0.008582890000000004},
			{0.0015507233333333342, 0.008580096666666677},
			{0.0014744633333333339, 0.00865635000000001},
		}},
		"coloring/road/p4": {4160, 63, 5, [][2]float64{
			{1.5136666666666667e-05, 0.0015108966666666668},
			{1.4966666666666665e-05, 0.0015107933333333337},
			{1.4256666666666665e-05, 0.0015117633333333335},
			{1.312e-05, 0.0015129133333333334},
		}},
		"coloring/road/p8": {6068, 287, 5, [][2]float64{
			{7.903333333333334e-06, 0.002621875000000001},
			{7.893333333333333e-06, 0.0026217083333333344},
			{7.466666666666666e-06, 0.002622161666666667},
			{8.059999999999999e-06, 0.0026215883333333347},
			{7.240000000000001e-06, 0.0026225216666666677},
			{7.366666666666667e-06, 0.0026224083333333337},
			{6.889999999999998e-06, 0.0026228816666666677},
			{6.71e-06, 0.0026230683333333346},
		}},
		"coloring/web/p4": {14868, 255, 21, [][2]float64{
			{0.0003810933333333332, 0.0058588600000000065},
			{0.00038009000000000003, 0.005859820000000005},
			{0.0003650533333333334, 0.005874900000000005},
			{0.0003694699999999999, 0.005870480000000005},
		}},
	}
	for _, a := range apps {
		for _, g := range graphs {
			key := fmt.Sprintf("%s/%s/p%d", a.name, g.name, g.p)
			rep, steps, err := a.run(g.el, g.p)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			w := want[key]
			if rep.TotalBytes() != w.bytes || rep.TotalMsgs() != w.msgs || steps != w.steps {
				t.Errorf("%s: %d bytes, %d msgs, %d steps; want %d, %d, %d",
					key, rep.TotalBytes(), rep.TotalMsgs(), steps, w.bytes, w.msgs, w.steps)
			}
			var ranks [][2]float64
			for _, r := range rep.Ranks {
				ranks = append(ranks, [2]float64{r.Compute, r.Comm})
			}
			if !slices.Equal(ranks, w.ranks) {
				t.Errorf("%s: per-rank compute, comm seconds %v; want %v", key, ranks, w.ranks)
			}
		}
	}
}
