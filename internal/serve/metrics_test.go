package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst"
	"mndmst/internal/cluster"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// TestMetricsMatchStatsAndTrace is the observability acceptance check: a
// live server's /metrics exposition must parse as Prometheus text, its
// job latency histogram must split the cold and hot jobs, and its
// last-run gauges must agree with the Result a direct library run
// produces. /v1/stats needs no comparison with /metrics (it
// is read from the same counters), only its JSON shape is pinned.
func TestMetricsMatchStatsAndTrace(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2}, nil)

	// Two identical jobs: one cold compute, one cache hit.
	body := `{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2},"wait":true}`
	for i := 0; i < 2; i++ {
		resp, raw := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: %d: %s", i, resp.StatusCode, raw)
		}
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.JobsCompleted != 2 || st.Computations != 1 || st.ResultCacheHits != 1 {
		t.Fatalf("unexpected stats shape: %+v", st)
	}
	var raw map[string]any
	getJSON(t, ts.URL+"/v1/stats", &raw)
	shape := make(map[string]string, len(raw))
	jsonShape("", raw, shape)
	for k, v := range raw {
		if v, ok := v.(float64); ok && v != math.Trunc(v) {
			t.Errorf("/v1/stats %s = %g, want an integer", k, v)
		}
	}
	if !reflect.DeepEqual(shape, statsShape) {
		t.Errorf("/v1/stats shape:\n got %v\nwant %v", shape, statsShape)
	}
	got := scrape(t, ts.URL)
	if fams := serveFamilies(t, ts.URL); !reflect.DeepEqual(fams, serveFamilyList) {
		t.Errorf("/metrics serve families:\n got %v\nwant %v", fams, serveFamilyList)
	}

	// The job latency histogram saw one cold and one hot observation.
	if got[`mndmst_serve_job_seconds_count{cache="cold"}`] != 1 {
		t.Errorf("cold latency count = %g, want 1", got[`mndmst_serve_job_seconds_count{cache="cold"}`])
	}
	if got[`mndmst_serve_job_seconds_count{cache="hot"}`] != 1 {
		t.Errorf("hot latency count = %g, want 1", got[`mndmst_serve_job_seconds_count{cache="hot"}`])
	}

	// The cold compute published the run gauges; their simulated values
	// must match the Result of a direct, deterministic library run of the
	// same request. Measured walls differ run to run: they only must exist.
	g, err := mndmst.GenerateProfile("road_usa", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"mndmst_run_ranks":       2,
		"mndmst_run_sim_seconds": res.SimSeconds,
		"mndmst_run_bytes_sent":  float64(res.BytesSent),
		"mndmst_run_msgs":        float64(res.MessagesSent),
	} {
		if got[key] != want {
			t.Errorf("%s = %g, direct run says %g", key, got[key], want)
		}
	}
	if got["mndmst_run_wall_seconds"] <= 0 {
		t.Errorf("mndmst_run_wall_seconds = %g, want > 0", got["mndmst_run_wall_seconds"])
	}
	if len(res.Phases) == 0 {
		t.Fatal("direct run produced no phases")
	}
	for _, ph := range res.Phases {
		for key, want := range map[string]float64{
			fmt.Sprintf(`mndmst_run_phase_compute_seconds{phase=%q}`, ph.Phase): ph.Compute,
			fmt.Sprintf(`mndmst_run_phase_comm_seconds{phase=%q}`, ph.Phase):    ph.Comm,
		} {
			if got[key] != want {
				t.Errorf("%s = %g, direct run says %g", key, got[key], want)
			}
		}
		if key := fmt.Sprintf(`mndmst_run_phase_wall_seconds{phase=%q}`, ph.Phase); got[key] <= 0 {
			t.Errorf("%s = %g, want > 0", key, got[key])
		}
	}
}

// TestMetricsSharedRegistry: a caller-provided registry is served at
// /metrics and usable for its own series alongside the server's.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("my_app_info_total", "caller-owned series").Inc()
	s, ts := newHTTPServer(t, Config{Workers: 1, Metrics: reg}, nil)
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the provided registry")
	}
	got := scrape(t, ts.URL)
	if got["my_app_info_total"] != 1 {
		t.Fatalf("caller-owned series missing from /metrics: %v", got)
	}
}

// statsShape is the /v1/stats JSON contract: every key and its JSON kind.
// HTTP clients (e2ebench among them) decode it by key.
var statsShape = map[string]string{
	"draining": "bool", "workers": "number", "queue_cap": "number",
	"queued": "number", "running": "number",
	"jobs_submitted": "number", "jobs_completed": "number",
	"jobs_failed": "number", "jobs_canceled": "number",
	"jobs_rejected": "number", "jobs_drain_canceled": "number",
	"computations": "number", "result_cache_hits": "number",
	"result_cache_coalesced": "number", "result_cache_entries": "number",
	"graph_cache_hits": "number", "graph_cache_loads": "number",
	"graph_cache_evictions": "number", "graphs_cached": "number",
	"graph_cache_bytes": "number", "graph_cache_cap_bytes": "number",
}

// serveFamilyList is every mndmst_serve_* family /metrics exposes, in
// exposition order.
var serveFamilyList = []string{
	"mndmst_serve_admission_rejects_total",
	"mndmst_serve_graph_cache_evictions_total",
	"mndmst_serve_graph_cache_hits_total",
	"mndmst_serve_graph_cache_loads_total",
	"mndmst_serve_job_seconds",
	"mndmst_serve_jobs_drain_canceled_total",
	"mndmst_serve_jobs_submitted_total",
	"mndmst_serve_jobs_total",
	"mndmst_serve_queue_depth",
	"mndmst_serve_queue_depth_highwater",
	"mndmst_serve_result_cache_coalesced_total",
	"mndmst_serve_result_cache_evictions_total",
	"mndmst_serve_result_cache_hits_total",
	"mndmst_serve_result_cache_misses_total",
	"mndmst_serve_running",
}

// serveFamilies lists the mndmst_serve_* families named by the # TYPE
// lines of the server's /metrics exposition.
func serveFamilies(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fams []string
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "mndmst_serve_") {
			fams = append(fams, f[2])
		}
	}
	return fams
}

// TestRetryAfterDerived is the regression test for the hardcoded
// Retry-After "1": the hint must scale with the observed backlog-to-rate
// ratio, so a saturated slow server answers with a larger hint than a
// near-empty one.
func TestRetryAfterDerived(t *testing.T) {
	// Near-empty, no rate sample yet: the floor.
	if got := retryAfter(0, nil); got != 1 {
		t.Fatalf("empty-queue hint = %d, want 1", got)
	}

	// 4 queued jobs draining at one dequeue per 2 seconds must hint
	// roughly 8 seconds, whatever order the ring holds the times in.
	base := time.Now()
	ring := make([]time.Time, 5)
	for i := range ring {
		ring[len(ring)-1-i] = base.Add(time.Duration(i) * 2 * time.Second)
	}
	saturated := retryAfter(4, ring)
	if saturated != 8 {
		t.Fatalf("saturated hint = %d, want 8 (4 queued / 0.5 per sec)", saturated)
	}

	// The same rate with an empty queue drops back to the floor: the
	// saturated hint must exceed the near-empty one.
	nearEmpty := retryAfter(0, ring)
	if nearEmpty != 1 {
		t.Fatalf("near-empty hint = %d, want 1", nearEmpty)
	}
	if saturated <= nearEmpty {
		t.Fatalf("saturated hint %d not greater than near-empty hint %d", saturated, nearEmpty)
	}

	// A stalled server (huge backlog, slow rate) is capped, not unbounded.
	if got := retryAfter(100000, ring); got != retryAfterCap {
		t.Fatalf("stalled hint = %d, want cap %d", got, retryAfterCap)
	}
}

// TestRetryAfterHeader: the 429 response carries the derived hint.
func TestRetryAfterHeader(t *testing.T) {
	gt := newGate()
	s, ts := newHTTPServer(t, Config{Workers: 1, QueueDepth: 1}, gt)

	body := `{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2}}`
	// One job blocks the worker, one fills the queue; the third is a 429.
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	<-gt.entered
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > retryAfterCap {
		t.Fatalf("Retry-After %q: not an integer in [1, %d] (err %v)",
			resp.Header.Get("Retry-After"), retryAfterCap, err)
	}
}

// TestStatsRaceWithCompletion drives /v1/stats and job-status polling
// concurrently with job completions. Run under -race this is the
// regression test for unlocked reads of per-job fields on the status
// path (the satellite audit found Status/State/Err/Record all correctly
// locked; this keeps it that way).
func TestStatsRaceWithCompletion(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 4, QueueDepth: 64}, nil)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	poll := func(url string) {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("poll %s: %v", url, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("poll %s: %v", url, err)
			}
			resp.Body.Close()
		}
	}

	const jobs = 12
	ids := make(chan string, jobs)
	var clients sync.WaitGroup
	for i := 0; i < jobs; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			// Distinct scales defeat the result cache so completions keep
			// mutating job state while the pollers read it.
			body := fmt.Sprintf(
				`{"graph":{"profile":"road_usa","scale":0.0%d},"options":{"nodes":2},"include_trace":true,"wait":true}`,
				1+i%3)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			var js JobStatus
			if err := decodeBody(resp, &js); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if js.State != string(StateDone) {
				t.Errorf("job ended %s: %s", js.State, js.Error)
			}
			ids <- js.ID
		}(i)
	}

	// Stats and metrics pollers race every completion above; job-status
	// pollers chase individual jobs as soon as their ids are known.
	pollers.Add(2)
	go poll(ts.URL + "/v1/stats")
	go poll(ts.URL + "/metrics")
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			case id := <-ids:
				code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil)
				if code != http.StatusOK {
					t.Errorf("job %s: %d", id, code)
				}
			default:
			}
		}
	}()

	clients.Wait()
	close(stop)
	pollers.Wait()
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

// TestPublishRecordsAggregation pins the Publish aggregation semantics:
// seconds are maxima across ranks (makespan), traffic is summed.
func TestPublishRecordsAggregation(t *testing.T) {
	rep := &cluster.Report{Ranks: []cluster.RankStats{
		{Rank: 0, Total: 2.0, Wall: 0.5, BytesSent: 100, MsgsSent: 10, Phases: map[string]cluster.PhaseStats{
			"merge": {Compute: 1.0, Comm: 0.5, BytesSent: 60, Msgs: 6},
		}},
		{Rank: 1, Total: 3.0, Wall: 0.25, BytesSent: 50, MsgsSent: 5, Phases: map[string]cluster.PhaseStats{
			"merge": {Compute: 1.5, Comm: 0.25, BytesSent: 40, Msgs: 4},
		}},
	}}
	reg := obs.NewRegistry()
	trace.Publish(reg, rep)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mndmst_run_ranks":                                2,
		"mndmst_run_sim_seconds":                          3.0,
		"mndmst_run_wall_seconds":                         0.5,
		"mndmst_run_bytes_sent":                           150,
		"mndmst_run_msgs":                                 15,
		`mndmst_run_phase_compute_seconds{phase="merge"}`: 1.5,
		`mndmst_run_phase_comm_seconds{phase="merge"}`:    0.5,
		`mndmst_run_phase_bytes_sent{phase="merge"}`:      100,
		`mndmst_run_phase_msgs{phase="merge"}`:            10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	// Publishing on a nil registry is a no-op, not a panic.
	trace.Publish(nil, rep)
}
