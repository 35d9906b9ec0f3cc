package serve

// The serve-level transient-fault convergence oracle: seeded chaos
// schedules that fail the distributed execution on every faulty attempt
// must, through the server's retry engine, converge to the sequential-
// Kruskal forest within the attempt budget — bit-identically per seed —
// while permanent failures stop after exactly one execution and an
// exhausted budget on rank loss degrades to the local path. These are the
// TestRetryOracle* tests scripts/check.sh --chaos and the chaos CI job
// run under pinned and rotating seeds.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst"
	"mndmst/internal/chaos"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/mst"
	"mndmst/internal/retry"
	"mndmst/internal/testutil"
	"mndmst/internal/transport"
)

// runDistributedChaos executes the real distributed computation, all p
// ranks as goroutines over chaos-wrapped in-process transports, and
// returns rank 0's result and error.
func runDistributedChaos(el *graph.EdgeList, p int, ccfg chaos.Config) (*core.Result, error) {
	mems := transport.NewMem(p)
	eps := make([]transport.Transport, p)
	for i, m := range mems {
		eps[i] = m
	}
	wrapped := chaos.Wrap(eps, ccfg)
	results := make([]*core.Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer wrapped[r].Close()
			results[r], errs[r] = core.RunDistributed(context.Background(), el, wrapped[r], cost.AMDCluster(), hypar.DefaultConfig(), false)
		}(r)
	}
	wg.Wait()
	return results[0], errs[0]
}

// flakyExecutor is an execute seam running the genuine distributed
// computation under a per-attempt chaos schedule: the first failFor
// executions crash-stop rank p/2 at step 5 (the restarting-rank model —
// the transient fault heals on the next execution), later executions run
// the same schedule without the crash. The translation to mndmst.Result
// keeps only deterministic fields (no wall clock), so equal seeds yield
// byte-equal records.
type flakyExecutor struct {
	el      *graph.EdgeList
	p       int
	seed    int64
	failFor int

	mu    sync.Mutex
	calls int
}

func (f *flakyExecutor) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *flakyExecutor) execute(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.mu.Unlock()
	ccfg := chaos.Config{Seed: f.seed, RecvTimeout: 2 * time.Second}
	if call < f.failFor {
		ccfg.Crashes = []chaos.Crash{{Rank: f.p / 2, Step: 5}}
	}
	res, err := runDistributedChaos(f.el, f.p, ccfg)
	if err != nil {
		return nil, err
	}
	return &mndmst.Result{
		EdgeIDs:     res.Forest.EdgeIDs,
		TotalWeight: res.Forest.TotalWeight,
		Components:  res.Forest.Components,
		Root:        true,
	}, nil
}

// retryTestConfig is the deterministic server tuning the oracle runs
// under: one worker, fixed retry seed, near-instant backoff.
func retryTestConfig(seed int64) Config {
	return Config{
		Workers:        1,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		RetrySeed:      seed,
	}
}

// submitAndWait submits req and waits for its terminal state.
func submitAndWait(t *testing.T, s *Server, req JobRequest) *Job {
	t.Helper()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s never finished", job.ID())
	}
	return job
}

// oracleRun drives one full convergence engagement on a fresh server and
// returns the finished job, the executor, and the server's stats.
func oracleRun(t *testing.T, seed int64, el *graph.EdgeList, failFor, maxAttempts int) (*Job, *flakyExecutor, Stats, string) {
	t.Helper()
	exec := &flakyExecutor{el: el, p: 4, seed: seed, failFor: failFor}
	s := New(retryTestConfig(seed))
	s.execute = exec.execute
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	job := submitAndWait(t, s, JobRequest{
		Graph:        GraphSpec{Profile: "road_usa", Scale: 0.02},
		MaxAttempts:  maxAttempts,
		IncludeEdges: true,
	})
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return job, exec, s.Stats(), sb.String()
}

// TestRetryOracleTransientConverges is the tentpole acceptance test: a
// seeded crash-stop schedule that fails the distributed run on the first
// two attempts (proven below by the budget-1 case) converges through the
// server's retry engine to the sequential-Kruskal forest, counts its
// retries in stats and metrics, and is bit-identical across two fresh
// engagements of the same seed.
func TestRetryOracleTransientConverges(t *testing.T) {
	seed := testutil.Seed(t, 20250814)
	el := gen.ConnectedRandom(150, 500, seed)
	want := mst.Kruskal(el)

	job, exec, st, metrics := oracleRun(t, seed, el, 2, 3)
	if got := job.State(); got != StateDone {
		t.Fatalf("job state %s (err %v), want done", got, job.Err())
	}
	rec := job.Record()
	if rec == nil {
		t.Fatal("done job has no record")
	}
	if rec.TotalWeight != want.TotalWeight || rec.Components != want.Components {
		t.Fatalf("converged forest diverges from Kruskal: weight %d vs %d, components %d vs %d",
			rec.TotalWeight, want.TotalWeight, rec.Components, want.Components)
	}
	if len(rec.EdgeIDs) != len(want.EdgeIDs) {
		t.Fatalf("forest has %d edges, Kruskal %d", len(rec.EdgeIDs), len(want.EdgeIDs))
	}
	if rec.Degraded {
		t.Fatal("converged within budget but marked degraded")
	}
	if exec.Calls() != 3 {
		t.Fatalf("executor ran %d times, want 3 (2 faulty + 1 clean)", exec.Calls())
	}
	if job.Attempts() != 3 {
		t.Fatalf("job.Attempts() = %d, want 3", job.Attempts())
	}
	if st.JobsRetried != 2 {
		t.Fatalf("stats JobsRetried = %d, want 2", st.JobsRetried)
	}
	if st.JobsCompleted != 1 || st.JobsFailed != 0 {
		t.Fatalf("stats completed=%d failed=%d, want 1/0", st.JobsCompleted, st.JobsFailed)
	}
	if !strings.Contains(metrics, "\nmndmst_serve_jobs_retried_total 2\n") {
		t.Fatalf("metrics missing jobs_retried_total 2:\n%s", metrics)
	}
	if !strings.Contains(metrics, "\nmndmst_serve_job_attempts_count 1\n") {
		t.Fatalf("metrics missing job_attempts histogram:\n%s", metrics)
	}

	// Bit-identical convergence: a second fresh engagement of the same
	// seed must produce the byte-equal record.
	job2, _, _, _ := oracleRun(t, seed, el, 2, 3)
	rec2 := job2.Record()
	if rec2 == nil {
		t.Fatalf("second run state %s (err %v), want done", job2.State(), job2.Err())
	}
	if !reflect.DeepEqual(*rec, *rec2) {
		t.Fatalf("same seed, different records:\n%+v\n%+v", *rec, *rec2)
	}
}

// TestRetryOracleFailsWithoutRetry pins the premise: the same transient
// schedule with the retry budget at 1 (no retry) fails the job with a
// typed, transient-classifying cluster error — this is the "fails every
// run today" behaviour the tentpole recovers from. With failFor 2 the
// degraded-fallback execution is still inside the faulty window, so the
// distributed failure stands: one distributed call, one failed fallback,
// zero retries, nothing recorded as degraded.
func TestRetryOracleFailsWithoutRetry(t *testing.T) {
	seed := testutil.Seed(t, 20250814)
	el := gen.ConnectedRandom(150, 500, seed)

	job, exec, st, _ := oracleRun(t, seed, el, 2, 1)
	if got := job.State(); got != StateFailed {
		t.Fatalf("job state %s, want failed without retry budget", got)
	}
	err := job.Err()
	var rle *cluster.RankLostError
	var ae *cluster.AbortError
	var cse *chaos.CrashStopError
	if !errors.As(err, &rle) && !errors.As(err, &ae) && !errors.As(err, &cse) {
		t.Fatalf("failure is untyped: %v", err)
	}
	if !retry.Transient(err) {
		t.Fatalf("failure %v does not classify transient; the schedule no longer models a transient fault", err)
	}
	if exec.Calls() != 2 {
		t.Fatalf("executor ran %d times under budget 1, want 2 (1 distributed + 1 failed fallback)", exec.Calls())
	}
	if st.JobsRetried != 0 {
		t.Fatalf("stats JobsRetried = %d, want 0", st.JobsRetried)
	}
	if st.JobsDegraded != 0 {
		t.Fatalf("stats JobsDegraded = %d, want 0 (fallback failed)", st.JobsDegraded)
	}
}

// TestRetryOracleDegradesAfterExhaustion: when every distributed attempt
// dies of rank loss and the budget is spent, the job is answered by the
// local single-node path, the record is marked Degraded, the result is
// still the exact forest, and nothing degraded is cached.
func TestRetryOracleDegradesAfterExhaustion(t *testing.T) {
	seed := testutil.Seed(t, 20250815)
	el := gen.ConnectedRandom(150, 500, seed)
	want := mst.Kruskal(el)

	// failFor 2 = the whole budget: both distributed attempts crash; the
	// third execution is the server's local fallback, which runs clean.
	job, exec, st, metrics := oracleRun(t, seed, el, 2, 2)
	if got := job.State(); got != StateDone {
		t.Fatalf("job state %s (err %v), want done via degradation", got, job.Err())
	}
	rec := job.Record()
	if rec == nil || !rec.Degraded {
		t.Fatalf("record %+v not marked degraded", rec)
	}
	if rec.TotalWeight != want.TotalWeight || rec.Components != want.Components {
		t.Fatalf("degraded forest diverges from Kruskal: weight %d vs %d, components %d vs %d",
			rec.TotalWeight, want.TotalWeight, rec.Components, want.Components)
	}
	if exec.Calls() != 3 {
		t.Fatalf("executor ran %d times, want 2 distributed + 1 fallback", exec.Calls())
	}
	if st.JobsDegraded != 1 {
		t.Fatalf("stats JobsDegraded = %d, want 1", st.JobsDegraded)
	}
	if st.JobsRetried != 1 {
		t.Fatalf("stats JobsRetried = %d, want 1", st.JobsRetried)
	}
	if !strings.Contains(metrics, "mndmst_serve_jobs_degraded_total 1") {
		t.Fatalf("metrics missing jobs_degraded_total 1:\n%s", metrics)
	}
	// Degraded answers must not be cached: the result cache records no
	// computation for this engagement.
	if st.Computations != 0 {
		t.Fatalf("degraded result was cached as a computation (Computations = %d)", st.Computations)
	}
}

// TestRetryOraclePermanentFailsFast: a permanent failure (validation, not
// infrastructure) is executed exactly once — zero retries, zero degraded
// fallbacks, failed terminal state — however generous the budget.
func TestRetryOraclePermanentFailsFast(t *testing.T) {
	calls := 0
	permanent := errors.New("mndmst: node_speeds has 3 entries for 2 nodes")
	s := New(retryTestConfig(1))
	s.execute = func(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error) {
		calls++
		return nil, permanent
	}
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	job := submitAndWait(t, s, JobRequest{
		Graph:       GraphSpec{Profile: "road_usa", Scale: 0.02},
		MaxAttempts: 16,
	})
	if got := job.State(); got != StateFailed {
		t.Fatalf("job state %s, want failed", got)
	}
	if !errors.Is(job.Err(), permanent) {
		t.Fatalf("job error %v lost the permanent cause", job.Err())
	}
	if calls != 1 {
		t.Fatalf("permanent failure executed %d times, want exactly 1", calls)
	}
	st := s.Stats()
	if st.JobsRetried != 0 || st.JobsDegraded != 0 {
		t.Fatalf("permanent failure retried/degraded: %+v", st)
	}
}
