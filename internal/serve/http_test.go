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

// TestJobReplyCompact pins the job reply on the wire: a waiting submit
// and a later GET of the same job each answer with one line of compact
// JSON that decodes to the job's own status, edge ids included, under a
// fixed key set.
func TestJobReplyCompact(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1}, nil)

	resp, posted := postJob(t, ts,
		`{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2},"include_edges":true,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, posted)
	}
	var js JobStatus
	if err := json.Unmarshal(posted, &js); err != nil {
		t.Fatal(err)
	}
	job, ok := s.Job(js.ID)
	if !ok {
		t.Fatalf("job %q not found", js.ID)
	}
	want := job.Status()
	if want.State != string(StateDone) || want.Result == nil || len(want.Result.EdgeIDs) == 0 {
		t.Fatalf("want a done job with edge ids, got %+v", want)
	}
	getResp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fetched bytes.Buffer
	_, err = fetched.ReadFrom(getResp.Body)
	getResp.Body.Close()
	if err != nil || getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %d, %v", getResp.StatusCode, err)
	}

	for route, raw := range map[string][]byte{"POST /v1/jobs": posted, "GET /v1/jobs/{id}": fetched.Bytes()} {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(raw, compact.Bytes()) {
			t.Errorf("%s reply is not one line of compact JSON:\n%.300s", route, raw)
		}
		var got JobStatus
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reply decodes to\n%+v\nwant the job's status\n%+v", route, got, want)
		}
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		shape := make(map[string]string)
		jsonShape("", obj, shape)
		if !reflect.DeepEqual(shape, jobStatusShape) {
			t.Errorf("%s reply shape:\n got %v\nwant %v", route, shape, jobStatusShape)
		}
	}
}

// jobStatusShape is the JSON contract of a done, cold job's reply with
// include_edges: every key and its JSON kind, a result key as
// "result.<key>". cache_hit, coalesced, error and trace are left out
// while unset. Clients decode replies by key.
var jobStatusShape = map[string]string{
	"id": "string", "state": "string",
	"queue_seconds": "number", "run_seconds": "number", "result": "object",
	"result.graph_digest": "string", "result.vertices": "number",
	"result.edges": "number", "result.system": "string",
	"result.options_fingerprint": "string", "result.forest_edges": "number",
	"result.components": "number", "result.total_weight": "number",
	"result.sim_seconds": "number", "result.compute_seconds": "number",
	"result.comm_seconds": "number", "result.bytes_sent": "number",
	"result.messages_sent": "number", "result.edge_ids": "array",
}

// jsonShape records every key of obj under prefix with its JSON kind,
// and the keys of a nested object under "key.".
func jsonShape(prefix string, obj map[string]any, shape map[string]string) {
	for k, v := range obj {
		switch v := v.(type) {
		case map[string]any:
			shape[prefix+k] = "object"
			jsonShape(prefix+k+".", v, shape)
		case []any:
			shape[prefix+k] = "array"
		case string:
			shape[prefix+k] = "string"
		case float64:
			shape[prefix+k] = "number"
		case bool:
			shape[prefix+k] = "bool"
		default:
			shape[prefix+k] = fmt.Sprintf("%T", v)
		}
	}
}

// BenchmarkJobReply times the reply layer alone: writeJSON encoding a
// done job whose result carries a forest of 13 000 edge ids, the size of
// a serve-mix road-pool answer.
func BenchmarkJobReply(b *testing.B) {
	const forest = 13000
	ids := make([]int32, forest)
	for i := range ids {
		ids[i] = int32(i + i/5) // a road grid has about 1.2 edges per vertex
	}
	st := JobStatus{
		ID: "j-000001", State: string(StateDone), QueueSeconds: 1.25e-5, RunSeconds: 0.0041,
		Result: &Record{
			GraphDigest: "sha256:" + strings.Repeat("5e", 32), Vertices: forest + 1, Edges: 15600,
			System: SystemMND, OptionsFingerprint: "v1;nodes=4;machine=amd",
			ForestEdges: forest, Components: 1, TotalWeight: 2242719863,
			SimSeconds: 0.0041, ComputeSeconds: 0.0032, CommSeconds: 0.0009,
			BytesSent: 418816, MessagesSent: 96, EdgeIDs: ids,
		},
	}
	s := &Server{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.writeJSON(httptest.NewRecorder(), http.StatusOK, st)
	}
}
