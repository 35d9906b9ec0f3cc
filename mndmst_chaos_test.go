package mndmst

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mndmst/internal/chaos"
	"mndmst/internal/cluster"
	"mndmst/internal/testutil"
)

// launchChaosCluster runs one FindMSFDistributed worker per rank over a
// loopback TCP cluster, each injecting chaosFor(worker slot). Results and
// errors are indexed by worker slot (rank assignment is dial-order), and
// the whole run is bounded by a watchdog.
func launchChaosCluster(t *testing.T, g *Graph, p int, chaosFor func(slot int) *ChaosConfig) ([]*Result, []error) {
	t.Helper()
	coord, err := StartCoordinator("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			cfg := ClusterConfig{
				Coordinator: coord.Addr(),
				PeerTimeout: 5 * time.Second,
				Chaos:       chaosFor(slot),
			}
			results[slot], errs[slot] = FindMSFDistributed(g, Options{}, cfg)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(110 * time.Second):
		t.Fatal("chaos cluster run deadlocked")
	}
	return results, errs
}

// TestFindMSFDistributedUnderBenignChaos drives the public distributed API
// with duplication, reordering, and delays injected into every worker's
// transport: the forest must equal sequential Kruskal and the simulated
// clocks must equal a fault-free in-process run. It runs once below the
// filter rule's density and once above it, where the ranks also sample,
// broadcast the light forest and run the heavy pass.
func TestFindMSFDistributedUnderBenignChaos(t *testing.T) {
	seed := testutil.Seed(t, 6061)
	for _, tc := range []struct {
		name string
		m    int
	}{{"unfiltered", 5*800 - 1}, {"filtered", 15 * 800}} {
		t.Run(tc.name, func(t *testing.T) {
			g := GenerateWebGraph(800, tc.m, 0.8, seed)
			const p = 4

			clean, err := FindMSF(g, Options{Nodes: p})
			if err != nil {
				t.Fatal(err)
			}
			results, errs := launchChaosCluster(t, g, p, func(int) *ChaosConfig {
				return &ChaosConfig{
					Seed:        seed,
					DupProb:     0.08,
					ReorderProb: 0.08,
					DelayProb:   0.1,
					DelayMax:    100 * time.Microsecond,
				}
			})
			var root *Result
			for slot := 0; slot < p; slot++ {
				if errs[slot] != nil {
					t.Fatalf("worker %d failed under benign chaos: %v", slot, errs[slot])
				}
				if results[slot].Root {
					root = results[slot]
				}
			}
			if root == nil {
				t.Fatal("no worker was assigned rank 0")
			}
			sameForest(t, g, root)
			if err := Verify(g, root); err != nil {
				t.Fatal(err)
			}
			if root.SimSeconds != clean.SimSeconds {
				t.Fatalf("benign chaos perturbed the simulated clock: %v vs %v", root.SimSeconds, clean.SimSeconds)
			}
		})
	}
}

// TestFindMSFDistributedCrashStopTyped crash-stops one worker mid-protocol
// and requires every call to return — the crashed worker with a
// CrashStopError in its chain, survivors with either success or a typed
// cluster error — within the watchdog, never a hang.
func TestFindMSFDistributedCrashStopTyped(t *testing.T) {
	seed := testutil.Seed(t, 6062)
	g := GenerateWebGraph(600, 3000, 0.8, seed)
	const p, crashSlot = 4, 1

	start := time.Now()
	results, errs := launchChaosCluster(t, g, p, func(slot int) *ChaosConfig {
		cc := &ChaosConfig{Seed: seed, RecvTimeout: 5 * time.Second}
		if slot == crashSlot {
			cc.CrashStep = 5
		}
		return cc
	})
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Fatalf("crash recovery took %v — not bounded", elapsed)
	}
	var cse *chaos.CrashStopError
	if !errors.As(errs[crashSlot], &cse) {
		t.Fatalf("crashed worker: want CrashStopError in chain, got %v", errs[crashSlot])
	}
	for slot := 0; slot < p; slot++ {
		if slot == crashSlot || errs[slot] == nil {
			continue
		}
		var rle *cluster.RankLostError
		var ae *cluster.AbortError
		if !errors.As(errs[slot], &rle) && !errors.As(errs[slot], &ae) {
			t.Fatalf("worker %d: crash surfaced untyped: %v", slot, errs[slot])
		}
	}
	// A survivor that did return a result must still be exact.
	seq := FindMSFSequential(g)
	for slot := 0; slot < p; slot++ {
		if errs[slot] == nil && results[slot] != nil && results[slot].Root {
			if results[slot].TotalWeight != seq.TotalWeight {
				t.Fatalf("crash corrupted a surviving rank's forest: %d vs %d",
					results[slot].TotalWeight, seq.TotalWeight)
			}
		}
	}
}

// TestFindMSFDistributedChaosReplays runs the same seeded chaos workload
// twice through the public API and demands identical results — the seed is
// the complete reproduction recipe.
func TestFindMSFDistributedChaosReplays(t *testing.T) {
	seed := testutil.Seed(t, 6063)
	g := GenerateWebGraph(500, 2500, 0.8, seed)
	const p = 2
	run := func() *Result {
		results, errs := launchChaosCluster(t, g, p, func(int) *ChaosConfig {
			return &ChaosConfig{Seed: seed, DupProb: 0.1, ReorderProb: 0.1}
		})
		for slot := 0; slot < p; slot++ {
			if errs[slot] != nil {
				t.Fatalf("worker %d: %v", slot, errs[slot])
			}
		}
		for _, r := range results {
			if r.Root {
				return r
			}
		}
		t.Fatal("no rank 0")
		return nil
	}
	a, b := run(), run()
	if a.TotalWeight != b.TotalWeight || a.Components != b.Components ||
		len(a.EdgeIDs) != len(b.EdgeIDs) || a.SimSeconds != b.SimSeconds {
		t.Fatalf("replay diverged: %+v vs %+v",
			fmt.Sprintf("w=%d c=%d e=%d t=%v", a.TotalWeight, a.Components, len(a.EdgeIDs), a.SimSeconds),
			fmt.Sprintf("w=%d c=%d e=%d t=%v", b.TotalWeight, b.Components, len(b.EdgeIDs), b.SimSeconds))
	}
}
