package gen

import (
	"fmt"

	"mndmst/internal/graph"
)

// Kind classifies a workload profile's generator family.
type Kind int

const (
	// KindRoad is a high-diameter, low-degree near-planar network.
	KindRoad Kind = iota
	// KindWeb is a low-diameter power-law web crawl.
	KindWeb
)

// Profile describes one of the paper's Table 2 graphs stated at about
// 1/1000 of its size, so scale 1.0 yields the reproduction workload. V and
// EdgeFactor control the generated size; Skew only documents the
// original's max/avg degree ratio.
type Profile struct {
	Name       string
	Kind       Kind
	V          int32   // vertices at scale 1.0
	EdgeFactor float64 // undirected edges per vertex at scale 1.0
	PaperV     string  // original size, for reports
	PaperE     string
	// Locality is the fraction of local (short-range) edges for web
	// profiles; lower locality yields smaller components in indComp, the
	// behaviour the paper reports for gsh-2015-tpd (§5.2).
	Locality float64
	Seed     int64
}

// Profiles lists the six Table 2 graphs in paper order. Sizes are the
// paper's divided by ~1000 (vertices) with the same average degree.
var Profiles = []Profile{
	{Name: "road_usa", Kind: KindRoad, V: 24_000, EdgeFactor: 1.2, PaperV: "23.9M", PaperE: "57.7M", Seed: 101},
	{Name: "gsh-2015-tpd", Kind: KindWeb, V: 30_000, EdgeFactor: 19, PaperV: "30.8M", PaperE: "1.16B", Locality: 0.45, Seed: 102},
	{Name: "arabic-2005", Kind: KindWeb, V: 23_000, EdgeFactor: 27, PaperV: "22.7M", PaperE: "1.26B", Locality: 0.85, Seed: 103},
	{Name: "it-2004", Kind: KindWeb, V: 41_000, EdgeFactor: 27, PaperV: "41.2M", PaperE: "2.27B", Locality: 0.85, Seed: 104},
	{Name: "sk-2005", Kind: KindWeb, V: 50_000, EdgeFactor: 36, PaperV: "50.6M", PaperE: "3.62B", Locality: 0.85, Seed: 105},
	{Name: "uk-2007", Kind: KindWeb, V: 105_000, EdgeFactor: 31, PaperV: "105M", PaperE: "6.60B", Locality: 0.88, Seed: 106},
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gen: unknown profile %q", name)
}

// Generate materializes a profile's workload at the given scale (1.0 =
// the reproduction size; smaller values shrink both V and E
// proportionally, for fast tests).
func (p Profile) Generate(scale float64) *graph.EdgeList {
	v := int32(float64(p.V) * scale)
	if v < 16 {
		v = 16
	}
	m := int(float64(v) * p.EdgeFactor)
	switch p.Kind {
	case KindRoad:
		return RoadNetwork(int(v), p.Seed)
	default:
		loc := p.Locality
		if loc == 0 {
			loc = 0.85
		}
		return WebGraph(v, m, loc, p.Seed)
	}
}
