// Package serve turns the MND-MST library into a long-running job
// service — the layer that accepts, schedules, deduplicates, and answers
// repeated MSF requests the way an inference-serving stack fronts a
// model:
//
//   - a graph registry that loads .mnd containers, text edge lists, or
//     generator profiles on demand and caches the decoded graphs in a
//     byte-bounded LRU keyed by content digest, so jobs over the same
//     content share one in-memory copy however they named it;
//   - a bounded job queue with admission control: submissions beyond the
//     configured depth are rejected with a typed QueueFullError instead
//     of queuing unboundedly, and every job carries a deadline-bearing
//     context honoured both while queued and while running;
//   - a result cache keyed by (graph digest, options fingerprint, system)
//     with singleflight coalescing, so N concurrent identical requests
//     cost one computation and repeats are answered from memory;
//   - graceful drain: Shutdown stops admission, lets in-flight and queued
//     jobs finish (or cancels them when the drain context expires), and
//     guarantees no accepted job is lost or run twice.
//
// The HTTP surface (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/stats,
// GET /healthz) lives in http.go; cmd/mndmst-serve wires it to a socket
// and the process signal handlers.
//
// serve is a real-time layer by design: it reads the wall clock for
// deadlines and job accounting and owns its goroutine lifecycles, and is
// therefore exempt from the det-wallclock/go-hygiene simulation rules
// (like transport) while opting in to the err-drop delivery-path rule.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs;
	// submissions beyond it fail with QueueFullError (default 64).
	QueueDepth int
	// GraphCacheBytes bounds the decoded-graph LRU (default 256 MiB). The
	// most recently used graph is always retained, even oversized.
	GraphCacheBytes int64
	// ResultCacheEntries bounds the result cache (default 1024 entries).
	ResultCacheEntries int
	// DefaultTimeout is applied to jobs that request no deadline
	// (0 = jobs without a requested deadline run unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 = no cap).
	MaxTimeout time.Duration
	// GraphDir is the directory file-based graph specs (path/text) are
	// resolved under; "" disables file loading entirely.
	GraphDir string
	// JobHistory bounds how many finished job records stay queryable via
	// Job/GET /v1/jobs/{id} (default 4096; oldest evicted first).
	JobHistory int
	// Logf, when non-nil, receives diagnostic messages (delivery failures
	// on the HTTP path); nil discards them.
	Logf func(format string, args ...any)
	// Metrics is the registry the server instruments (queue depth, job
	// counters, cache traffic, job latency, last-run phase gauges). nil:
	// the server creates a private registry. Either way Metrics() returns
	// it and Handler serves it at GET /metrics.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.GraphCacheBytes <= 0 {
		c.GraphCacheBytes = 256 << 20
	}
	if c.ResultCacheEntries <= 0 {
		c.ResultCacheEntries = 1024
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	return c
}

// QueueFullError is the typed admission-control rejection: the job queue
// already holds Depth jobs. Clients should back off and retry.
type QueueFullError struct {
	// Depth is the configured queue bound that was hit.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: job queue full (depth %d); retry later", e.Depth)
}

// ErrDraining rejects submissions arriving after Shutdown began.
var ErrDraining = errors.New("serve: server is draining; not accepting jobs")

// ErrDrainCanceled marks a job killed because the drain deadline expired
// before it finished — the server's choice, not the client's. It is the
// cancellation cause on the job's context, so the terminal error and the
// stats can tell a drain kill from a client deadline, which both surface
// as ctx cancellation.
var ErrDrainCanceled = errors.New("serve: job canceled by server drain deadline")

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Every admitted job ends in exactly one of the
// three terminal states (done, failed, canceled).
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one admitted MSF computation request moving through the queue.
type Job struct {
	id     string
	req    JobRequest
	system string
	opts   mndmst.Options
	fpr    string // options fingerprint (cache key part)

	ctx    context.Context
	cancel context.CancelFunc
	// drainCancel cancels the job's context with ErrDrainCanceled as the
	// cause; Shutdown uses it when the drain deadline expires, so the
	// terminal accounting can tell the server's kill from the client's.
	drainCancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	cacheHit  bool
	coalesced bool
	record    *Record
	traceRecs []trace.Record
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state. The server counts
// the job (terminal state, latency, running gauge) before it closes Done,
// so a Stats call made after Done already includes it.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { //lint:testonly job inspection for the serve tests
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error of a failed or canceled job (nil
// otherwise, including while still in flight).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Record returns the result record of a done job (nil otherwise). The
// returned record always carries the forest edge ids; rendering layers
// strip them unless requested.
func (j *Job) Record() *Record { //lint:testonly job inspection for the serve tests
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.record
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// Server is the MST job service: registry + queue + worker pool + result
// cache. Create with New, serve HTTP via Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	registry *registry
	results  *resultCache
	metrics  *obs.Registry
	m        serverMetrics

	// execute runs one resolved computation; tests substitute it to make
	// job duration controllable. Set only before the first Submit.
	execute func(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error)

	mu       sync.Mutex
	draining bool
	// queue is buffered to QueueDepth and sent to or closed only under mu,
	// so len(queue) is the exact admitted-but-not-dequeued count.
	queue   chan *Job
	nextID  int64
	jobs    map[string]*Job
	history []string // finished job ids, oldest first

	// dequeues is a bounded ring of recent worker-dequeue times — the
	// observed service-rate sample Retry-After hints derive from.
	dequeues    []time.Time
	dequeueNext int // ring write index once the ring is full

	wg      sync.WaitGroup
	drained chan struct{} // closed once every worker has exited
}

// serverMetrics are the server's obs handles, resolved once in New so
// the job path never touches the registry lock. They are the server's
// only counters: Stats reads them back.
type serverMetrics struct {
	queueDepth     *obs.Gauge
	queueHighwater *obs.Gauge
	running        *obs.Gauge
	submitted      *obs.Counter
	jobs           map[JobState]*obs.Counter // terminal state: done | failed | canceled

	rejectQueueFull *obs.Counter // admission rejects, reason="queue_full"
	rejectDraining  *obs.Counter // admission rejects, reason="draining"

	jobSecondsCold *obs.Histogram // cache="cold": the algorithm actually ran
	jobSecondsHot  *obs.Histogram // cache="hot": answered from cache or coalesced

	drainCanceled *obs.Counter // jobs killed by the drain deadline
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	jobs := reg.CounterVec("mndmst_serve_jobs_total",
		"jobs reaching a terminal state, by state", "state")
	rejects := reg.CounterVec("mndmst_serve_admission_rejects_total",
		"submissions rejected by admission control, by reason", "reason")
	jobSeconds := reg.HistogramVec("mndmst_serve_job_seconds",
		"job execution seconds (queue wait excluded), split by result temperature", nil, "cache")
	return serverMetrics{
		queueDepth: reg.Gauge("mndmst_serve_queue_depth",
			"jobs admitted but not yet picked up by a worker"),
		queueHighwater: reg.Gauge("mndmst_serve_queue_depth_highwater",
			"peak queue depth observed since start"),
		running: reg.Gauge("mndmst_serve_running",
			"jobs currently executing"),
		submitted: reg.Counter("mndmst_serve_jobs_submitted_total",
			"jobs admitted past admission control"),
		jobs: map[JobState]*obs.Counter{
			StateDone:     jobs.With(string(StateDone)),
			StateFailed:   jobs.With(string(StateFailed)),
			StateCanceled: jobs.With(string(StateCanceled)),
		},
		rejectQueueFull: rejects.With("queue_full"),
		rejectDraining:  rejects.With("draining"),
		jobSecondsCold:  jobSeconds.With("cold"),
		jobSecondsHot:   jobSeconds.With("hot"),
		drainCanceled: reg.Counter("mndmst_serve_jobs_drain_canceled_total",
			"jobs canceled by an expired drain deadline rather than a client deadline"),
	}
}

// New starts a Server with cfg's worker pool running. The caller must
// eventually call Shutdown to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		registry: newRegistry(cfg.GraphDir, cfg.GraphCacheBytes, reg),
		results:  newResultCache(cfg.ResultCacheEntries, reg),
		metrics:  reg,
		m:        newServerMetrics(reg),
		execute:  defaultExecute,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		dequeues: make([]time.Time, 0, dequeueRingSize),
		drained:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// defaultExecute runs the requested algorithm in-process.
func defaultExecute(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error) {
	switch system {
	case SystemMND:
		return mndmst.FindMSFContext(ctx, g, opts)
	case SystemBSP:
		return mndmst.FindMSFBSPContext(ctx, g, opts)
	case SystemSeq:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return mndmst.FindMSFSequential(g), nil
	}
	return nil, fmt.Errorf("serve: unknown system %q", system)
}

// Submit validates and admits one job. It returns a typed error without
// admitting anything when the request is malformed, the queue is at its
// configured depth (QueueFullError), or the server is draining
// (ErrDraining). An admitted job is guaranteed to reach exactly one
// terminal state.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	system, opts, err := req.resolve()
	if err != nil {
		return nil, err
	}
	if _, err := req.Graph.canonicalKey(s.registry.dir); err != nil {
		return nil, err
	}
	timeout := time.Duration(req.TimeoutMillis) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejectDraining.Inc()
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.m.rejectQueueFull.Inc()
		return nil, &QueueFullError{Depth: s.cfg.QueueDepth}
	}
	s.nextID++
	// The job context stacks a cancel-cause base under the deadline layer:
	// a drain kill cancels the base with ErrDrainCanceled so
	// context.Cause names the server, while the client's own deadline
	// surfaces as the usual DeadlineExceeded.
	base, baseCancel := context.WithCancelCause(context.Background())
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	job := &Job{
		id:     fmt.Sprintf("j-%06d", s.nextID),
		req:    req,
		system: system,
		opts:   opts,
		fpr:    opts.Fingerprint(),
		ctx:    ctx,
		cancel: func() {
			cancel()
			baseCancel(nil)
		},
		drainCancel: func() { baseCancel(ErrDrainCanceled) },
		state:       StateQueued,
		submitted:   time.Now(),
		done:        make(chan struct{}),
	}
	s.jobs[job.id] = job
	s.m.submitted.Inc()
	// The send cannot block: the check above found the queue below its
	// capacity under this mutex, no other send can happen before it, and
	// close happens only under this same mutex.
	s.queue <- job
	depth := float64(len(s.queue))
	s.m.queueDepth.Set(depth)
	s.m.queueHighwater.SetMax(depth)
	return job, nil
}

// Job looks up a job by id. Finished jobs stay queryable until evicted
// from the bounded history.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.m.running.Add(1) // finishJob takes it back before Done closes
		s.mu.Lock()
		s.noteDequeue(time.Now())
		s.m.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
		s.runJob(job)
		s.retire(job)
	}
}

// runJob drives one admitted job to its terminal state: one execution
// under the job's context, answered from the result cache when it can be.
func (s *Server) runJob(job *Job) {
	defer job.cancel()
	if err := job.ctx.Err(); err != nil {
		s.finishCanceled(job, fmt.Errorf("serve: job %s canceled while queued: %w", job.id, err))
		return
	}
	job.setRunning()
	g, digest, err := s.registry.resolve(job.req.Graph)
	if err != nil {
		s.finishJob(job, StateFailed, nil, nil, false, false, err)
		return
	}
	// The deadline may have passed while the graph loaded: a dead job
	// is canceled, never answered from the cache.
	if err := job.ctx.Err(); err != nil {
		s.finishCanceled(job, err)
		return
	}
	key := digest + "|" + job.system + "|" + job.fpr
	ent, src, err := s.results.do(job.ctx, key, func() (*cacheEntry, error) {
		res, err := s.execute(job.ctx, g, job.system, job.opts)
		if err != nil {
			return nil, err
		}
		ent := &cacheEntry{rec: newRecord(g, digest, job.system, job.opts, res)}
		if res.Trace != nil {
			// Only cold computes update the last-run gauges: a cache
			// hit replays a stored answer, it is not a new run.
			res.Trace.Publish(s.metrics)
			ent.traceRecs = res.Trace.Records()
		}
		return ent, nil
	})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finishCanceled(job, err)
	case err != nil:
		s.finishJob(job, StateFailed, nil, nil, false, false, err)
	default:
		s.finishJob(job, StateDone, &ent.rec, ent.traceRecs, src == srcHit, src == srcCoalesced, nil)
	}
}

// finishCanceled finishes a canceled job, distinguishing a drain kill
// (the server's choice, recorded as such in the error and stats) from the
// client's own deadline or cancel.
func (s *Server) finishCanceled(job *Job, err error) {
	if errors.Is(context.Cause(job.ctx), ErrDrainCanceled) {
		err = fmt.Errorf("%w: %w", ErrDrainCanceled, err)
		s.m.drainCanceled.Inc()
	}
	s.finishJob(job, StateCanceled, nil, nil, false, false, err)
}

// finishJob moves the job to its terminal state exactly once and counts
// it. Every counter, gauge and histogram update lands before Done
// closes, so a reader that has seen Done also sees the job counted.
func (s *Server) finishJob(job *Job, state JobState, rec *Record, traceRecs []trace.Record, hit, coalesced bool, err error) {
	job.mu.Lock()
	job.state = state
	job.record = rec
	job.traceRecs = traceRecs
	job.cacheHit = hit
	job.coalesced = coalesced
	job.err = err
	job.finished = time.Now()
	started := job.started
	ran := job.finished.Sub(started)
	job.mu.Unlock()

	s.m.jobs[state].Inc()
	if !started.IsZero() { // jobs canceled while queued never ran
		h := s.m.jobSecondsCold
		if hit || coalesced {
			h = s.m.jobSecondsHot
		}
		h.Observe(ran.Seconds())
	}
	s.m.running.Add(-1)
	close(job.done)
}

// retire keeps the finished-job history bounded.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	s.history = append(s.history, job.id)
	for len(s.history) > s.cfg.JobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
	s.mu.Unlock()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: admission stops immediately (subsequent
// Submits fail with ErrDraining), queued and in-flight jobs run to
// completion, and the worker pool exits. If ctx expires first, every
// unfinished job's context is canceled — the jobs then reach the canceled
// state rather than being lost — and Shutdown still waits for the workers
// before returning ctx's error. Safe to call multiple times; the server
// cannot be restarted afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			// Cancel with the drain cause, not the plain cancel: the
			// terminal state must record that the server killed the job.
			j.drainCancel()
		}
		s.mu.Unlock()
		<-s.drained
		return ctx.Err()
	}
}

// Metrics returns the server's registry — cfg.Metrics when one was
// provided, otherwise the private registry New created. Handler serves
// it at GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.metrics } //lint:testonly metrics registry the serve tests read

// dequeueRingSize bounds the service-rate sample Retry-After hints use.
const dequeueRingSize = 32

// retryAfterCap bounds the hint so a stalled server never tells clients
// to go away for hours.
const retryAfterCap = 300

// noteDequeue records one worker pickup in the bounded ring. Caller
// holds s.mu.
func (s *Server) noteDequeue(t time.Time) {
	if len(s.dequeues) < dequeueRingSize {
		s.dequeues = append(s.dequeues, t)
		return
	}
	s.dequeues[s.dequeueNext] = t
	s.dequeueNext = (s.dequeueNext + 1) % dequeueRingSize
}

// retryAfter derives the 429 Retry-After hint in seconds from the current
// backlog and the ring of recent dequeue times: with n recent pickups
// spanning span seconds, the queue drains at (n-1)/span jobs per second,
// so a backlog of queued jobs should clear in about queued*span/(n-1)
// seconds. Floor 1 (near-empty queues and cold starts with no rate
// sample yet), capped at retryAfterCap.
func retryAfter(queued int, ring []time.Time) int {
	n := len(ring)
	if queued <= 0 || n < 2 {
		return 1
	}
	oldest, newest := ring[0], ring[0]
	for _, t := range ring[1:] {
		if t.Before(oldest) {
			oldest = t
		}
		if t.After(newest) {
			newest = t
		}
	}
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 1
	}
	rate := float64(n-1) / span // jobs per second
	secs := int(math.Ceil(float64(queued) / rate))
	if secs < 1 {
		return 1
	}
	if secs > retryAfterCap {
		return retryAfterCap
	}
	return secs
}

// Stats is the observable state of the server, served at /v1/stats. Its
// JSON shape (21 keys) is a contract: clients decode it by key.
type Stats struct {
	Draining bool `json:"draining"`
	Workers  int  `json:"workers"`
	QueueCap int  `json:"queue_cap"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsRejected  int64 `json:"jobs_rejected"`

	// JobsDrainCanceled counts jobs killed by an expired drain deadline
	// rather than a client deadline.
	JobsDrainCanceled int64 `json:"jobs_drain_canceled"`

	// Computations counts executions that actually ran the algorithm —
	// result-cache misses. ResultCacheHits are answered from memory;
	// ResultCacheCoalesced waited on an identical in-flight computation.
	Computations         int64 `json:"computations"`
	ResultCacheHits      int64 `json:"result_cache_hits"`
	ResultCacheCoalesced int64 `json:"result_cache_coalesced"`
	ResultCacheEntries   int   `json:"result_cache_entries"`

	GraphCacheHits      int64 `json:"graph_cache_hits"`
	GraphCacheLoads     int64 `json:"graph_cache_loads"`
	GraphCacheEvictions int64 `json:"graph_cache_evictions"`
	GraphsCached        int   `json:"graphs_cached"`
	GraphCacheBytes     int64 `json:"graph_cache_bytes"`
	GraphCacheCapBytes  int64 `json:"graph_cache_cap_bytes"`
}

// Stats reads the server's counters back from its metrics registry, so
// /v1/stats and /metrics are two views of one set of counters. Each field
// is read atomically, but the whole is not a cross-field snapshot: a job
// finishing mid-call may be counted in one field and not yet in another.
// A job whose Done channel has closed is counted in every field it
// touches. Servers sharing one Config.Metrics registry share its counters.
func (s *Server) Stats() Stats {
	m, c, r := &s.m, s.results, s.registry
	st := Stats{
		Draining:             s.Draining(),
		Workers:              s.cfg.Workers,
		QueueCap:             s.cfg.QueueDepth,
		Queued:               len(s.queue),
		Running:              int(m.running.Value()),
		JobsSubmitted:        m.submitted.Value(),
		JobsCompleted:        m.jobs[StateDone].Value(),
		JobsFailed:           m.jobs[StateFailed].Value(),
		JobsCanceled:         m.jobs[StateCanceled].Value(),
		JobsRejected:         m.rejectQueueFull.Value() + m.rejectDraining.Value(),
		JobsDrainCanceled:    m.drainCanceled.Value(),
		Computations:         c.misses.Value(),
		ResultCacheHits:      c.hits.Value(),
		ResultCacheCoalesced: c.coalesced.Value(),
		ResultCacheEntries:   c.len(),
		GraphCacheHits:       r.hits.Value(),
		GraphCacheLoads:      r.loads.Value(),
		GraphCacheEvictions:  r.evictions.Value(),
		GraphCacheCapBytes:   r.maxBytes,
	}
	st.GraphsCached, st.GraphCacheBytes = r.size()
	return st
}
