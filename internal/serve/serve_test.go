package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mndmst"
	"mndmst/internal/cluster"
)

// testGraphSpec is the tiny generated graph all seam tests share; the
// registry caches the decoded form after the first resolve.
var testGraphSpec = GraphSpec{Profile: "road_usa", Scale: 0.02}

// gate is a controllable execute seam: every call signals entry, blocks
// until released, then answers with the sequential ground truth.
type gate struct {
	entered  chan string // one send per execute call (the cache key basis)
	release  chan struct{}
	once     sync.Once
	mu       sync.Mutex
	runs     map[string]int // fingerprint → times the algorithm actually ran
	honorCtx bool           // when set, block on ctx instead of the release channel
}

func newGate() *gate {
	return &gate{
		entered: make(chan string, 1024),
		release: make(chan struct{}),
		runs:    make(map[string]int),
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) execute(ctx context.Context, gr *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error) {
	fpr := opts.Fingerprint()
	g.mu.Lock()
	g.runs[fpr]++
	g.mu.Unlock()
	g.entered <- fpr
	if g.honorCtx {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return mndmst.FindMSFSequential(gr), nil
}

func (g *gate) totalRuns() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.runs {
		n += c
	}
	return n
}

// newTestServer builds a server whose shutdown is joined at cleanup. When
// gt is non-nil its execute seam replaces the real algorithms.
func newTestServer(t *testing.T, cfg Config, gt *gate) *Server {
	t.Helper()
	s := New(cfg)
	if gt != nil {
		s.execute = gt.execute
	}
	t.Cleanup(func() {
		if gt != nil {
			gt.open()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitMatchesDirect is the service's ground-truth check: a job run
// through registry, queue, worker pool, and result cache must produce the
// bit-identical record a direct library call does.
func TestSubmitMatchesDirect(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, nil)
	for _, system := range []string{SystemMND, SystemBSP, SystemSeq} {
		req := JobRequest{
			Graph:        testGraphSpec,
			System:       system,
			Options:      OptionSpec{Nodes: 3},
			IncludeEdges: true,
		}
		job, err := s.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		<-job.Done()
		if job.State() != StateDone {
			t.Fatalf("%s: state %s, err %v", system, job.State(), job.Err())
		}

		g, err := mndmst.GenerateProfile(testGraphSpec.Profile, testGraphSpec.Scale)
		if err != nil {
			t.Fatal(err)
		}
		opts := mndmst.Options{Nodes: 3}
		var res *mndmst.Result
		switch system {
		case SystemMND:
			res, err = mndmst.FindMSF(g, opts)
		case SystemBSP:
			res, err = mndmst.FindMSFBSP(g, opts)
		case SystemSeq:
			res = mndmst.FindMSFSequential(g)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := NewRecord(g, system, opts, res)
		if got := *job.Record(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served record diverges from direct run:\n got %+v\nwant %+v", system, got, want)
		}
	}
}

// TestSingleflightDedupe submits N identical jobs that all hold a worker
// concurrently; exactly one computation may run, the rest must coalesce.
func TestSingleflightDedupe(t *testing.T) {
	const n = 4
	gt := newGate()
	s := newTestServer(t, Config{Workers: n}, gt)

	jobs := make([]*Job, n)
	for i := range jobs {
		job, err := s.Submit(JobRequest{Graph: testGraphSpec})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	// All n jobs occupy workers: one leads the computation, n-1 wait on
	// its flight inside the result cache. A job counts as running before
	// it reaches the cache, so wait for the flight's followers.
	waitFor(t, "n-1 jobs on the flight", func() bool { return s.Stats().ResultCacheCoalesced == n-1 })
	gt.open()
	for _, job := range jobs {
		<-job.Done()
		if job.State() != StateDone {
			t.Fatalf("%s: state %s, err %v", job.ID(), job.State(), job.Err())
		}
	}
	if got := gt.totalRuns(); got != 1 {
		t.Fatalf("%d executions for %d identical jobs (want 1)", got, n)
	}
	st := s.Stats()
	if st.Computations != 1 || st.ResultCacheCoalesced != n-1 {
		t.Fatalf("stats: %d computations, %d coalesced (want 1, %d)", st.Computations, st.ResultCacheCoalesced, n-1)
	}
	// All coalesced followers share the leader's record.
	for _, job := range jobs[1:] {
		if !reflect.DeepEqual(job.Record(), jobs[0].Record()) {
			t.Fatal("coalesced record diverges from leader's")
		}
	}
	// A repeat after completion is a plain cache hit.
	job, err := s.Submit(JobRequest{Graph: testGraphSpec})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := s.Stats(); st.Computations != 1 || st.ResultCacheHits != 1 {
		t.Fatalf("after repeat: %d computations, %d hits (want 1, 1)", st.Computations, st.ResultCacheHits)
	}
}

// TestQueueFullRejection fills the queue behind a blocked worker and
// checks the typed admission rejection.
func TestQueueFullRejection(t *testing.T) {
	const depth = 2
	gt := newGate()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: depth}, gt)

	// First job is picked up by the lone worker and blocks inside execute.
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	<-gt.entered
	// The next depth jobs fill the queue.
	for i := 0; i < depth; i++ {
		if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	_, err := s.Submit(JobRequest{Graph: testGraphSpec})
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit: %v (want QueueFullError)", err)
	}
	if full.Depth != depth {
		t.Fatalf("QueueFullError.Depth = %d, want %d", full.Depth, depth)
	}
	if st := s.Stats(); st.JobsRejected != 1 || st.Queued != depth {
		t.Fatalf("stats: %d rejected, %d queued (want 1, %d)", st.JobsRejected, st.Queued, depth)
	}
	// Nothing admitted was lost: once released, the admitted jobs drain.
	gt.open()
	waitFor(t, "admitted jobs to finish", func() bool {
		st := s.Stats()
		return st.JobsCompleted == depth+1
	})
}

// TestDeadlineCancelsQueuedJob: a job whose deadline expires while it
// waits behind a blocked worker must end canceled, never run.
func TestDeadlineCancelsQueuedJob(t *testing.T) {
	gt := newGate()
	s := newTestServer(t, Config{Workers: 1}, gt)

	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	<-gt.entered
	// Distinct fingerprint so a (hypothetical) run would be observable.
	job, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: 7}, TimeoutMillis: 30})
	if err != nil {
		t.Fatal(err)
	}
	<-job.ctx.Done() // deadline passed while queued
	gt.open()
	<-job.Done()
	if job.State() != StateCanceled {
		t.Fatalf("state %s (want canceled), err %v", job.State(), job.Err())
	}
	if !errors.Is(job.Err(), context.DeadlineExceeded) {
		t.Fatalf("err %v (want DeadlineExceeded)", job.Err())
	}
	gt.mu.Lock()
	ran := gt.runs[job.fpr]
	gt.mu.Unlock()
	if ran != 0 {
		t.Fatalf("expired queued job ran %d times", ran)
	}
	if st := s.Stats(); st.JobsCanceled != 1 {
		t.Fatalf("JobsCanceled = %d, want 1", st.JobsCanceled)
	}
}

// TestStatsCountJobBeforeDone: a job is counted before its Done channel
// closes, so Stats read right after <-Done never lags the job.
func TestStatsCountJobBeforeDone(t *testing.T) {
	gt := newGate()
	gt.open()
	s := newTestServer(t, Config{Workers: 2}, gt)
	for i := int64(1); i <= 200; i++ {
		job, err := s.Submit(JobRequest{Graph: testGraphSpec})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st := s.Stats(); st.JobsCompleted != i || st.Running != 0 {
			t.Fatalf("after job %d: %d completed, %d running (want %d, 0)", i, st.JobsCompleted, st.Running, i)
		}
	}
}

// TestDeadlineCancelsRunningJob: a deadline firing mid-computation moves
// the job to canceled with the context error.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	gt := newGate()
	gt.honorCtx = true
	s := newTestServer(t, Config{Workers: 1}, gt)

	job, err := s.Submit(JobRequest{Graph: testGraphSpec, TimeoutMillis: 30})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.State() != StateCanceled || !errors.Is(job.Err(), context.DeadlineExceeded) {
		t.Fatalf("state %s, err %v (want canceled, DeadlineExceeded)", job.State(), job.Err())
	}
	// The failed computation must not have poisoned the cache.
	if st := s.Stats(); st.ResultCacheEntries != 0 {
		t.Fatalf("%d cache entries after canceled run (want 0)", st.ResultCacheEntries)
	}
}

// TestMaxTimeoutCapsRequests: a client asking for more than the server
// cap gets the cap.
func TestMaxTimeoutCapsRequests(t *testing.T) {
	gt := newGate()
	gt.honorCtx = true
	s := newTestServer(t, Config{Workers: 1, MaxTimeout: 30 * time.Millisecond}, gt)
	job, err := s.Submit(JobRequest{Graph: testGraphSpec, TimeoutMillis: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("capped deadline did not fire")
	}
	if job.State() != StateCanceled {
		t.Fatalf("state %s (want canceled)", job.State())
	}
}

// TestSubmitValidation rejects malformed requests without admitting them.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, newGate())
	for name, req := range map[string]JobRequest{
		"no graph":         {},
		"two graph specs":  {Graph: GraphSpec{Profile: "road_usa", Text: "x.txt"}},
		"unknown profile":  {Graph: GraphSpec{Profile: "nope"}},
		"negative scale":   {Graph: GraphSpec{Profile: "road_usa", Scale: -1}},
		"unknown system":   {Graph: testGraphSpec, System: "magic"},
		"unknown machine":  {Graph: testGraphSpec, Options: OptionSpec{Machine: "vax"}},
		"bad exception":    {Graph: testGraphSpec, Options: OptionSpec{Exception: "sometimes"}},
		"speeds mismatch":  {Graph: testGraphSpec, Options: OptionSpec{Nodes: 2, NodeSpeeds: []float64{1, 2, 3}}},
		"negative timeout": {Graph: testGraphSpec, TimeoutMillis: -5},
		"path disabled":    {Graph: GraphSpec{Path: "g.mnd"}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if st := s.Stats(); st.JobsSubmitted != 0 {
		t.Fatalf("invalid requests were admitted: %d", st.JobsSubmitted)
	}
}

// TestRankLossRunsOnce: a job whose execution loses a rank runs exactly
// once and fails with the typed error. Nothing is cached, so a resubmit
// executes again.
func TestRankLossRunsOnce(t *testing.T) {
	lost := &cluster.RankLostError{Rank: 1, Op: "recv", Cause: errors.New("connection reset")}
	var calls atomic.Int64
	s := newTestServer(t, Config{Workers: 1}, nil)
	s.execute = func(context.Context, *mndmst.Graph, string, mndmst.Options) (*mndmst.Result, error) {
		calls.Add(1)
		return nil, lost
	}
	for n := int64(1); n <= 2; n++ {
		job, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: 2}})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		var rle *cluster.RankLostError
		if job.State() != StateFailed || !errors.As(job.Err(), &rle) || rle != lost {
			t.Fatalf("submit %d: state %s, err %v; want failed with the rank loss", n, job.State(), job.Err())
		}
		if got := calls.Load(); got != n {
			t.Fatalf("submit %d: %d executions, want %d", n, got, n)
		}
		if st := s.Stats(); st.Computations != 0 || st.JobsFailed != n {
			t.Fatalf("submit %d: computations %d, failed %d; want 0 and %d", n, st.Computations, st.JobsFailed, n)
		}
	}
}

// TestMissingGraphFileFails: a file spec that passes admission but names
// no file ends the job failed with the load error, without a computation.
func TestMissingGraphFileFails(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, GraphDir: t.TempDir()}, nil)
	job, err := s.Submit(JobRequest{Graph: GraphSpec{Path: "missing.mnd"}})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.State() != StateFailed || !errors.Is(job.Err(), fs.ErrNotExist) {
		t.Fatalf("state %s, err %v; want failed with a missing file", job.State(), job.Err())
	}
	if st := s.Stats(); st.JobsFailed != 1 || st.Computations != 0 {
		t.Fatalf("failed %d, computations %d; want 1 and 0", st.JobsFailed, st.Computations)
	}
}

// TestDefaultExecuteRefuses: the in-process executor honours a dead
// context on the sequential path and rejects an unknown system.
func TestDefaultExecuteRefuses(t *testing.T) {
	g, err := mndmst.GenerateProfile(testGraphSpec.Profile, testGraphSpec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := defaultExecute(ctx, g, SystemSeq, mndmst.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("seq under a canceled context: %v, want context.Canceled", err)
	}
	if _, err := defaultExecute(context.Background(), g, "magic", mndmst.Options{}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestDrainUnderLoad: Shutdown during a burst must leave every admitted
// job in exactly one terminal state, run nothing twice, and reject late
// submissions with ErrDraining.
func TestDrainUnderLoad(t *testing.T) {
	const n = 8
	gt := newGate()
	s := New(Config{Workers: 2, QueueDepth: n})
	s.execute = gt.execute

	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		// Distinct fingerprints: every job must genuinely run once.
		job, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, "drain to start", s.Draining)
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v (want ErrDraining)", err)
	}
	gt.open()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for _, job := range jobs {
		select {
		case <-job.Done():
		default:
			t.Fatalf("%s lost in drain (state %s)", job.ID(), job.State())
		}
		if job.State() != StateDone {
			t.Fatalf("%s: state %s, err %v", job.ID(), job.State(), job.Err())
		}
	}
	gt.mu.Lock()
	defer gt.mu.Unlock()
	for fpr, c := range gt.runs {
		if c != 1 {
			t.Fatalf("fingerprint %s ran %d times (want 1)", fpr, c)
		}
	}
	if len(gt.runs) != n {
		t.Fatalf("%d distinct runs (want %d)", len(gt.runs), n)
	}
	st := s.Stats()
	if st.JobsCompleted != n || st.JobsRejected != 1 {
		t.Fatalf("stats: %d completed, %d rejected (want %d, 1)", st.JobsCompleted, st.JobsRejected, n)
	}
}

// TestShutdownDeadlineCancelsJobs: when the drain grace period expires,
// unfinished jobs are canceled — not lost — and Shutdown still joins the
// workers.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	gt := newGate()
	gt.honorCtx = true
	s := New(Config{Workers: 2})
	s.execute = gt.execute

	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v (want DeadlineExceeded)", err)
	}
	for _, job := range jobs {
		select {
		case <-job.Done():
		default:
			t.Fatalf("%s not terminal after forced drain", job.ID())
		}
		if job.State() != StateCanceled {
			t.Fatalf("%s: state %s (want canceled)", job.ID(), job.State())
		}
	}
	// Idempotent: a second Shutdown returns immediately.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestJobHistoryBounded: finished jobs stay queryable until the bounded
// history evicts the oldest.
func TestJobHistoryBounded(t *testing.T) {
	gt := newGate()
	gt.open()
	s := newTestServer(t, Config{Workers: 1, JobHistory: 2}, gt)

	ids := make([]string, 4)
	for i := range ids {
		job, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		ids[i] = job.ID()
	}
	waitFor(t, "history eviction", func() bool {
		_, ok := s.Job(ids[0])
		return !ok
	})
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatal("newest finished job evicted")
	}
}

// TestStatusViews: the wire view honours IncludeEdges/IncludeTrace.
func TestStatusViews(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil)
	plain, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-plain.Done()
	if st := plain.Status(); st.Result == nil || st.Result.EdgeIDs != nil || st.Trace != nil {
		t.Fatalf("plain status leaked detail: %+v", st)
	}
	full, err := s.Submit(JobRequest{Graph: testGraphSpec, Options: OptionSpec{Nodes: 2}, IncludeEdges: true, IncludeTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	<-full.Done()
	st := full.Status()
	if st.Result == nil || len(st.Result.EdgeIDs) == 0 {
		t.Fatalf("include_edges ignored: %+v", st.Result)
	}
	if len(st.Trace) == 0 {
		t.Fatal("include_trace ignored")
	}
	if !st.CacheHit {
		t.Fatal("identical repeat not marked cache_hit")
	}
	// The cached trace must still be attached on the hit path.
	if fmt.Sprint(st.Trace) == "" {
		t.Fatal("empty trace")
	}
}
