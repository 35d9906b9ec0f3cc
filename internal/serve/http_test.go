package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// newHTTPServer wires a test Server to an httptest listener.
func newHTTPServer(t *testing.T, cfg Config, gt *gate) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg, gt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPConcurrentClients hammers the API with concurrent waiting
// clients over a mix of repeated and distinct requests: every response
// must be correct and identical requests must share computations. Run
// under -race this is the service's main concurrency check.
func TestHTTPConcurrentClients(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 4, QueueDepth: 256}, nil)

	const clients = 8
	const perClient = 3
	type answer struct {
		status int
		js     JobStatus
	}
	answers := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answers[c] = make([]answer, perClient)
			for i := 0; i < perClient; i++ {
				// Two distinct request shapes interleaved across clients.
				nodes := 2 + (c+i)%2
				body := fmt.Sprintf(
					`{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":%d},"include_edges":true,"wait":true}`, nodes)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				a := answer{status: resp.StatusCode}
				err = json.NewDecoder(resp.Body).Decode(&a.js)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: decode: %v", c, err)
					return
				}
				answers[c][i] = a
			}
		}(c)
	}
	wg.Wait()

	byFingerprint := make(map[string]*Record)
	total := 0
	for c := range answers {
		for _, a := range answers[c] {
			total++
			if a.status != http.StatusOK || a.js.State != string(StateDone) || a.js.Result == nil {
				t.Fatalf("bad answer: %+v", a)
			}
			fpr := a.js.Result.OptionsFingerprint
			if prev, ok := byFingerprint[fpr]; ok {
				if !reflect.DeepEqual(*prev, *a.js.Result) {
					t.Fatalf("identical requests answered differently:\n%+v\n%+v", *prev, *a.js.Result)
				}
			} else {
				byFingerprint[fpr] = a.js.Result
			}
		}
	}
	if len(byFingerprint) != 2 {
		t.Fatalf("%d distinct fingerprints (want 2)", len(byFingerprint))
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.JobsCompleted != int64(total) {
		t.Fatalf("%d completed (want %d)", st.JobsCompleted, total)
	}
	if st.Computations != 2 {
		t.Fatalf("%d computations for 2 distinct requests (want 2)", st.Computations)
	}
	if st.ResultCacheHits+st.ResultCacheCoalesced != int64(total-2) {
		t.Fatalf("hits %d + coalesced %d != %d", st.ResultCacheHits, st.ResultCacheCoalesced, total-2)
	}
	_ = s
}

// TestHTTPAsyncLifecycle: submit without wait, follow the Location
// header, poll to completion.
func TestHTTPAsyncLifecycle(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2}, nil)

	resp, body := postJob(t, ts, `{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/v1/jobs/j-") {
		t.Fatalf("Location %q", loc)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" {
		t.Fatalf("no job id in %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var got JobStatus
		if code := getJSON(t, ts.URL+loc, &got); code != http.StatusOK {
			t.Fatalf("poll: %d", code)
		}
		if got.State == string(StateDone) {
			if got.Result == nil || got.Result.ForestEdges == 0 {
				t.Fatalf("done without result: %+v", got)
			}
			if got.Result.EdgeIDs != nil {
				t.Fatal("edge ids leaked without include_edges")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPErrorMapping: each failure class maps to its documented status
// code and machine-readable error code.
func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1}, nil)

	check := func(body string, wantStatus int, wantCode string) {
		t.Helper()
		resp, raw := postJob(t, ts, body)
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if resp.StatusCode != wantStatus || eb.Code != wantCode {
			t.Fatalf("got %d %q, want %d %q (%s)", resp.StatusCode, eb.Code, wantStatus, wantCode, raw)
		}
	}
	check(`{`, http.StatusBadRequest, "bad_json")
	check(`{"bogus":1}`, http.StatusBadRequest, "bad_json") // unknown fields are rejected
	check(`{"graph":{"profile":"road_usa"},"max_attempts":3}`, http.StatusBadRequest, "bad_json")
	check(`{"graph":{}}`, http.StatusBadRequest, "bad_request")
	check(`{"graph":{"profile":"road_usa"},"system":"magic"}`, http.StatusBadRequest, "bad_request")
	check(`{"graph":{"path":"../escape.mnd"}}`, http.StatusBadRequest, "bad_request")

	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	// Wrong method falls out of the Go 1.22 method patterns.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs: %d", resp.StatusCode)
	}
}

// TestHTTPQueueFull: admission overflow surfaces as 429 with Retry-After.
func TestHTTPQueueFull(t *testing.T) {
	gt := newGate()
	_, ts := newHTTPServer(t, Config{Workers: 1, QueueDepth: 1}, gt)

	// Occupy the worker, then the single queue slot.
	if resp, body := postJob(t, ts, `{"graph":{"profile":"road_usa","scale":0.02}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	<-gt.entered
	if resp, body := postJob(t, ts, `{"graph":{"profile":"road_usa","scale":0.02}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d %s", resp.StatusCode, body)
	}
	resp, raw := postJob(t, ts, `{"graph":{"profile":"road_usa","scale":0.02}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != "queue_full" {
		t.Fatalf("error body %s (err %v)", raw, err)
	}
}

// TestHTTPDraining: after Shutdown begins, submissions get 503/draining
// and healthz flips to 503 so load balancers stop routing here.
func TestHTTPDraining(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1}, nil)

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while serving: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJob(t, ts, `{"graph":{"profile":"road_usa","scale":0.02}}`)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != "draining" {
		t.Fatalf("submit while draining: %d %s", resp.StatusCode, raw)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", code)
	}
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || !st.Draining {
		t.Fatalf("stats while draining: %d %+v", code, st)
	}
}

// TestHTTPWaitersSurviveDrain: wait=true long polls admitted before the
// drain resolve with their results, not an error.
func TestHTTPWaitersSurviveDrain(t *testing.T) {
	gt := newGate()
	s, ts := newHTTPServer(t, Config{Workers: 1}, gt)

	type outcome struct {
		status int
		js     JobStatus
		err    error
	}
	res := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"graph":{"profile":"road_usa","scale":0.02},"wait":true}`))
		if err != nil {
			res <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		o := outcome{status: resp.StatusCode}
		o.err = json.NewDecoder(resp.Body).Decode(&o.js)
		res <- o
	}()
	<-gt.entered // the waiter's job is running

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, "drain to start", s.Draining)
	gt.open()
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	o := <-res
	if o.err != nil || o.status != http.StatusOK || o.js.State != string(StateDone) {
		t.Fatalf("waiter during drain: %+v", o)
	}
}
