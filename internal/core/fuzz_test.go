package core

import (
	"context"
	"reflect"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

// FuzzFindMSF drives the whole pipeline on small odd graphs under a
// configuration tuple decoded from the input, and checks the forest
// against sequential Kruskal and that a second run repeats every result
// but the measured walls.
//
// Byte 0 sizes the vertex set (1–64) and byte 1 picks the rank count
// (1–16). Byte 2's bits set LeaderOnly, Contract, DataDriven,
// DiminishingTermination, the border-edge exception, GPU use on the
// Cray XC40 and Filter (which solves the light edges first once
// m ≥ 5n), where byte 3 % 3 picks GPUsPerNode (0–2) and MinGPUEdges is
// 0–15 from byte 3's high bits, with GPUShare 0 so the share is
// estimated. Byte 4 picks GroupSize (1–8), byte 5 MergeEdgeThreshold
// (0 = derived, else 1–63) and byte 6 RecursionMinEdges (0–31). Each
// further byte triple is an edge: its endpoints, taken modulo the vertex
// count, and a weight rank of 0–3, so ranks tie often and the edge id
// orders them; equal endpoints make self-loops, repeated pairs parallel
// edges, and unused vertices stay isolated.
func FuzzFindMSF(f *testing.F) {
	f.Add([]byte{9, 3, 0, 0, 4, 0, 0, 0, 1, 1, 1, 2, 0, 2, 3, 1, 3, 3, 2, 0, 1, 0, 4, 4, 3})
	f.Add([]byte{63, 15, 0xff, 0x5, 2, 1, 3, 0, 1, 0, 1, 2, 1, 2, 3, 2, 5, 5, 0, 40, 41, 3, 0, 40, 1})
	f.Add([]byte{0, 0, 0x20, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{31, 7, 0x23, 2, 3, 9, 7, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 9, 10, 0, 10, 9, 0, 20, 20, 2})
	// Filter on 3 vertices and 16 edges, on 5 ranks.
	f.Add([]byte{2, 4, 0x44, 0, 3, 0, 0, 0, 1, 0, 1, 2, 1, 0, 2, 2, 0, 0, 3, 1, 1, 0, 2, 2, 1, 0, 1, 3, 1, 2, 2,
		2, 0, 1, 0, 1, 2, 3, 0, 2, 0, 1, 1, 2, 2, 0, 1, 0, 1, 2, 3, 0})
	// Filter on 4 vertices and 20 edges: two light pairs joined by 12
	// heavy edges, which fit one rank on 3 ranks and, with
	// MergeEdgeThreshold 1, run the heavy pass on 2.
	pairs := []byte{0, 1, 0, 2, 3, 0, 0, 1, 0, 2, 3, 0, 0, 1, 0, 2, 3, 0, 0, 1, 0, 2, 3, 0,
		0, 2, 3, 1, 3, 2, 0, 3, 1, 1, 2, 3, 0, 2, 2, 1, 3, 1, 0, 3, 3, 1, 2, 2, 0, 2, 1, 1, 3, 3, 0, 3, 2, 1, 2, 1}
	f.Add(append([]byte{3, 2, 0x40, 0, 3, 0, 0}, pairs...))
	f.Add(append([]byte{3, 1, 0x40, 0, 3, 1, 0}, pairs...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		n := int32(data[0]%64) + 1
		p := int(data[1]%16) + 1
		flags := data[2]
		cfg := hypar.DefaultConfig()
		cfg.LeaderOnly = flags&1 != 0
		cfg.Contract = flags&2 != 0
		cfg.DataDriven = flags&4 != 0
		cfg.DiminishingTermination = flags&8 != 0
		if flags&16 != 0 {
			cfg.Excpt = boruvka.ExcptBorderEdge
		}
		useGPU := flags&32 != 0
		cfg.Filter = flags&64 != 0
		machine := amd()
		if useGPU {
			machine = cray()
			cfg.GPUsPerNode = int(data[3] % 3)
			cfg.MinGPUEdges = int(data[3] >> 4)
		}
		cfg.GroupSize = int(data[4]%8) + 1
		cfg.MergeEdgeThreshold = int64(data[5] % 64)
		cfg.RecursionMinEdges = int(data[6] % 32)

		el := &graph.EdgeList{N: n}
		for i := 7; i+2 < len(data); i += 3 {
			id := int32(len(el.Edges))
			el.Edges = append(el.Edges, graph.Edge{
				U: int32(data[i]) % n, V: int32(data[i+1]) % n,
				W: graph.MakeWeight(uint16(data[i+2]%4), id),
			})
		}

		var runs [2]*Result
		for i := range runs {
			res, err := Run(context.Background(), el, p, machine, cfg, useGPU)
			if err != nil {
				t.Fatalf("n=%d m=%d p=%d %+v gpu=%v: %v", n, len(el.Edges), p, cfg, useGPU, err)
			}
			if err := VerifyAgainstKruskal(el, res); err != nil {
				t.Fatalf("n=%d m=%d p=%d %+v gpu=%v: %v", n, len(el.Edges), p, cfg, useGPU, err)
			}
			runs[i] = res
		}
		if a, b := withoutWalls(runs[0]), withoutWalls(runs[1]); !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d m=%d p=%d %+v gpu=%v: two runs differ beyond measured time:\n%+v\n%+v", n, len(el.Edges), p, cfg, useGPU, a, b)
		}
	})
}

// withoutWalls copies res with the measured wall times of its report
// zeroed, leaving the fields a run must repeat exactly.
func withoutWalls(res *Result) Result {
	c := *res
	rep := cluster.Report{Ranks: make([]cluster.RankStats, len(res.Report.Ranks))}
	for i, rs := range res.Report.Ranks {
		rs.Wall = 0
		ph := make(map[string]cluster.PhaseStats, len(rs.Phases))
		for name, ps := range rs.Phases {
			ps.Wall = 0
			ph[name] = ps
		}
		rs.Phases = ph
		rep.Ranks[i] = rs
	}
	c.Report = &rep
	return c
}
