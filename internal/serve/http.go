package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mndmst/internal/obs"
)

// maxBodyBytes bounds a job-submission body; requests are tiny.
const maxBodyBytes = 1 << 20

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs        submit a job (JobRequest body); 202 with the job
//	                     status, or — with "wait": true — 200 with the
//	                     finished status. 400 malformed, 429 queue full,
//	                     503 draining.
//	GET  /v1/jobs/{id}   job status; 404 unknown or evicted.
//	GET  /v1/stats       server counters.
//	GET  /metrics        Prometheus text exposition of Metrics().
//	GET  /healthz        200 while serving, 503 while draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON delivers one JSON response as a single line of compact JSON.
// Indenting would put every forest edge id on its own line, more than
// doubling a reply's bytes and its encode time. A failed write means the
// client vanished mid-response; the job itself is unaffected, so the
// error is only logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("serve: deliver response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, errorBody{Code: code, Error: err.Error()})
}

// decodeJobRequest parses one submission body: strict field checking, so
// a typoed option name is a 400 instead of a silently-default job. The
// caller bounds the reader (MaxBytesReader on the HTTP path).
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", err)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		var full *QueueFullError
		switch {
		case errors.As(err, &full):
			// Hint derived from the observed dequeue rate and the current
			// backlog, so a saturated slow server tells clients to stay
			// away longer than a briefly-full fast one.
			s.mu.Lock()
			secs := retryAfter(len(s.queue), s.dequeues)
			s.mu.Unlock()
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.writeError(w, http.StatusTooManyRequests, "queue_full", err)
		case errors.Is(err, ErrDraining):
			s.writeError(w, http.StatusServiceUnavailable, "draining", err)
		default:
			s.writeError(w, http.StatusBadRequest, "bad_request", err)
		}
		return
	}
	if req.Wait {
		select {
		case <-job.Done():
			s.writeJSON(w, http.StatusOK, job.Status())
		case <-r.Context().Done():
			// Client gone; the job continues and stays queryable by id.
			s.logf("serve: client abandoned wait on %s: %v", job.ID(), r.Context().Err())
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	s.writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	job, ok := s.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown_job",
			errors.New("serve: unknown (or evicted) job id "+id))
		return
	}
	s.writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.metrics.WritePrometheus(w); err != nil {
		// Scraper hung up mid-response; nothing else to do.
		s.logf("serve: deliver metrics: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
