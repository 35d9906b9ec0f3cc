package mndmst

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFindMSFContextMatchesPlain checks the context entry point returns
// exactly the plain FindMSF result when the context never fires.
func TestFindMSFContextMatchesPlain(t *testing.T) {
	g := GenerateRoadNetwork(2_000, 7)
	opts := Options{Nodes: 4}
	want, err := FindMSF(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindMSFContext(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWeight != want.TotalWeight || len(got.EdgeIDs) != len(want.EdgeIDs) {
		t.Fatalf("context run differs: weight %d/%d, edges %d/%d",
			got.TotalWeight, want.TotalWeight, len(got.EdgeIDs), len(want.EdgeIDs))
	}
	if err := Verify(g, got); err != nil {
		t.Fatal(err)
	}
}

// TestFindMSFContextCanceled checks an already-dead context is rejected
// before any work starts, for both MSF entry points and the app wrappers.
func TestFindMSFContextCanceled(t *testing.T) {
	g := GenerateRoadNetwork(500, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindMSFContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindMSFContext error = %v, want context.Canceled", err)
	}
	if _, err := FindMSFBSPContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindMSFBSPContext error = %v, want context.Canceled", err)
	}
	if _, err := BFSContext(ctx, g, Options{}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("BFSContext error = %v, want context.Canceled", err)
	}
	if _, err := SSSPContext(ctx, g, Options{}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SSSPContext error = %v, want context.Canceled", err)
	}
	if _, err := PageRankContext(ctx, g, Options{}, 0.85, 1e-8, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("PageRankContext error = %v, want context.Canceled", err)
	}
	if _, err := ColoringContext(ctx, g, Options{}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ColoringContext error = %v, want context.Canceled", err)
	}
	if _, err := FindConnectedComponentsContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindConnectedComponentsContext error = %v, want context.Canceled", err)
	}
}

// deadlineGraph is the 40k-vertex, 900k-edge web graph the deadline tests
// cancel runs on. It is generated once per test binary: under -race and
// -count, generating it would cost more than the runs it dooms.
var deadlineGraph = sync.OnceValue(func() *Graph { return GenerateWebGraph(40_000, 900_000, 0.8, 11) })

// TestFindMSFContextDeadline checks a mid-flight deadline surfaces as
// DeadlineExceeded rather than a hang. The deadline aborts the run's
// cluster, so nothing of it finishes in the background.
func TestFindMSFContextDeadline(t *testing.T) {
	g := deadlineGraph()
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	start := time.Now() //lint:wallclock bounding a real cancellation latency, not simulated time
	_, err := FindMSFContext(ctx, g, Options{Nodes: 8})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second { //lint:wallclock bounding a real cancellation latency, not simulated time
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestCanceledRunsLeaveNothingRunning is the cancellation oracle: a
// deadline-doomed call returns only after every rank of its run has
// returned. After each call the goroutine count is back at its pre-call
// value (see goroutinesAfter), and after a GC the live heap is back within
// liveHeapSlack of the baseline taken with only the graph resident.
func TestCanceledRunsLeaveNothingRunning(t *testing.T) {
	const liveHeapSlack = 4 << 20
	g := deadlineGraph()
	opts := Options{Nodes: 8}
	calls := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"FindMSFContext", func(ctx context.Context) error { _, err := FindMSFContext(ctx, g, opts); return err }},
		{"FindMSFBSPContext", func(ctx context.Context) error { _, err := FindMSFBSPContext(ctx, g, opts); return err }},
		{"BFSContext", func(ctx context.Context) error { _, err := BFSContext(ctx, g, opts, 0); return err }},
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() uint64 {
		runtime.GC()
		metrics.Read(live)
		return live[0].Value.Uint64()
	}
	base := liveHeap()
	for i := 0; i < 20; i++ {
		call := calls[i%len(calls)]
		deadline := time.Duration(1+(i*7)%20) * time.Millisecond
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		err := call.run(ctx)
		after := goroutinesAfter(before)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s with a %v deadline: error = %v, want context.DeadlineExceeded", call.name, deadline, err)
		}
		if after != before {
			t.Fatalf("%s with a %v deadline returned with %d goroutines running, %d before the call", call.name, deadline, after, before)
		}
		if h := liveHeap(); h > base+liveHeapSlack {
			t.Fatalf("%s with a %v deadline left %d live heap bytes over the %d-byte baseline", call.name, deadline, h-base, base)
		}
	}
}

// goroutinesAfter reads the goroutine count right after a call that
// started from want goroutines. A rank goroutine that has returned is
// still counted until the scheduler reaps it, and a preemption between
// its last statement and its exit can hold it there for a moment, so the
// count may take a few yields to drop. The grace is capped at 50 ms; an
// abandoned run of the graph these tests use keeps its goroutines for
// well over 50 ms.
func goroutinesAfter(want int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(50 * time.Millisecond); n > want && time.Now().Before(end); { //lint:wallclock caps a scheduler grace period, not simulated time
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestGraphDigest pins the public digest surface: stable across calls,
// format-prefixed, distinct for distinct content.
func TestGraphDigest(t *testing.T) {
	a := GenerateRoadNetwork(1_000, 7)
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic")
	}
	if !strings.HasPrefix(a.Digest(), "sha256:") {
		t.Fatalf("digest %q lacks the scheme prefix", a.Digest())
	}
	b := GenerateRoadNetwork(1_000, 8)
	if a.Digest() == b.Digest() {
		t.Fatal("different graphs share a digest")
	}
	c := GenerateRoadNetwork(1_000, 7)
	if a.Digest() != c.Digest() {
		t.Fatal("regenerated identical graph digests differently")
	}
}

// TestOptionsFingerprint pins fingerprint semantics: default normalization,
// sensitivity to every result-relevant knob, and the exact strings, which
// are the serving layer's result-cache keys and must not drift.
func TestOptionsFingerprint(t *testing.T) {
	if got, want := (Options{}).Fingerprint(), (Options{Nodes: 1, GroupSize: 4}).Fingerprint(); got != want {
		t.Fatalf("zero options fingerprint %q != normalized default %q", got, want)
	}
	base := Options{Nodes: 4}.Fingerprint()
	distinct := []Options{
		{Nodes: 8},
		{Nodes: 4, Machine: CrayXC40},
		{Nodes: 4, Machine: CrayXC40, UseGPU: true},
		{Nodes: 4, GroupSize: 8},
		{Nodes: 4, Exception: BorderEdge},
		{Nodes: 4, DiminishingTermination: true},
		{Nodes: 4, TopologyDriven: true},
		{Nodes: 4, Contraction: true},
		{Nodes: 4, NodeSpeeds: []float64{1, 1, 2, 1}},
	}
	seen := map[string]bool{base: true}
	for _, o := range distinct {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Fatalf("options %+v collide on fingerprint %q", o, fp)
		}
		seen[fp] = true
	}
	pinned := []struct {
		o    Options
		want string
	}{
		{Options{}, "v1;nodes=1;machine=amd;gpus=0;group=4;excpt=0;dimin=false;topo=false;contract=false;gpushare=0"},
		{Options{Nodes: 4, UseGPU: true}, "v1;nodes=4;machine=amd;gpus=1;group=4;excpt=0;dimin=false;topo=false;contract=false;gpushare=0"},
		{Options{
			Nodes: 8, Machine: CrayXC40, UseGPU: true, GPUsPerNode: 2, GroupSize: 8, Exception: BorderEdge,
			DiminishingTermination: true, TopologyDriven: true, Contraction: true, GPUShare: 0.25,
			NodeSpeeds: []float64{1, 1.5, 2, 1, 1, 1, 1, 0.5},
		}, "v1;nodes=8;machine=cray;gpus=2;group=8;excpt=1;dimin=true;topo=true;contract=true;gpushare=0.25;" +
			"speed=1;speed=1.5;speed=2;speed=1;speed=1;speed=1;speed=1;speed=0.5"},
	}
	for _, c := range pinned {
		if got := c.o.Fingerprint(); got != c.want {
			t.Errorf("fingerprint drifted (result-cache keys would change):\n got %q\nwant %q", got, c.want)
		}
	}
}
