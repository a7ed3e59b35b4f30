// Package agent provides the network edge of a FlowCon worker (the
// worker node of Figure 2): an HTTP agent exposing a live container
// runtime, and the client that submitters and load tests use. FlowCon
// itself is not behind this surface: cmd/flowcon-worker runs it in the
// worker process, on the node directly.
//
// The wire protocol is deliberately small and JSON over HTTP/1.1,
// versioned under /v1. Every error response carries the JSON envelope
// {"error": ..., "code": ...}; the code is a stable machine-readable
// slug the client maps back to the runtime package's sentinel errors.
//
//	GET    /v1/ping                      liveness + capacity/memory + admission state
//	GET    /v1/containers                snapshot of all containers
//	DELETE /v1/containers/{id}           remove an exited container, freeing its name
//	POST   /v1/jobs                      submit a job {name, model, cpu_limit}:
//	                                     201 running, 202 queued, 429 queue full,
//	                                     503 draining; a cpu_limit outside (0,1]
//	                                     is 409 bad_limit whether the job would
//	                                     have launched or queued (0 = default 1.0)
//	GET    /v1/jobs/{name}               job status (queued/running/exited/failed)
//	POST   /v1/jobs/{name}/cancel        cancel: dequeue a queued job or stop a
//	                                     running one
//
// The jobs routes are the only lifecycle: every container starts as a
// submission through the admission queue (so the running cap and Drain
// hold), and one stops early only by a cancel. The containers routes
// read the pool and remove exited containers by id.
package agent

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/dlmodel"
	"repro/internal/livedock"
	"repro/internal/runtime"
)

// Stable error codes carried in the envelope's "code" field. The client
// maps them back to the runtime package's sentinels, so errors.Is works
// across the wire.
const (
	CodeNotFound   = "not_found"
	CodeNotRunning = "not_running"
	CodeRunning    = "running"
	CodeNameInUse  = "name_in_use"
	CodeBadLimit   = "bad_limit"
	CodeQueueFull  = "queue_full"
	CodeDraining   = "draining"
	CodeBadRequest = "bad_request"
	CodeInternal   = "internal"
)

// ContainerInfo is the wire form of a container snapshot.
type ContainerInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Model       string  `json:"model,omitempty"`
	State       string  `json:"state"`
	CPULimit    float64 `json:"cpu_limit"`
	CPUAlloc    float64 `json:"cpu_alloc"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	MemoryBytes float64 `json:"memory_bytes,omitempty"`
	StartedAt   float64 `json:"started_at"`
	FinishedAt  float64 `json:"finished_at,omitempty"`
	Done        bool    `json:"done"`
}

// PingResponse reports agent liveness and node aggregates.
type PingResponse struct {
	OK       bool    `json:"ok"`
	Capacity float64 `json:"capacity"`
	Running  int     `json:"running"`
	// MemoryCapacity/MemoryUsed mirror the runtime aggregates (0 when
	// memory is unmodelled).
	MemoryCapacity float64 `json:"memory_capacity,omitempty"`
	MemoryUsed     float64 `json:"memory_used,omitempty"`
	// Queued is the admission-queue depth; Draining reports whether the
	// agent has stopped accepting submissions (shutdown in progress).
	Queued   int  `json:"queued"`
	Draining bool `json:"draining,omitempty"`
}

// SubmitRequest asks the managed jobs surface to run a catalog model.
type SubmitRequest struct {
	Name     string  `json:"name"`
	Model    string  `json:"model"`
	CPULimit float64 `json:"cpu_limit,omitempty"`
}

// JobStatus is the wire form of one managed job.
type JobStatus struct {
	Name string `json:"name"`
	// ID is the container id once the job is running ("" while queued).
	ID    string `json:"id,omitempty"`
	Model string `json:"model,omitempty"`
	// State is "queued", "running", "exited", or "failed" (a queued job
	// whose deferred launch failed).
	State       string  `json:"state"`
	CPULimit    float64 `json:"cpu_limit,omitempty"`
	CPUAlloc    float64 `json:"cpu_alloc,omitempty"`
	CPUSeconds  float64 `json:"cpu_seconds,omitempty"`
	MemoryBytes float64 `json:"memory_bytes,omitempty"`
	StartedAt   float64 `json:"started_at,omitempty"`
	FinishedAt  float64 `json:"finished_at,omitempty"`
	Done        bool    `json:"done"`
	// Error carries the launch failure for state "failed".
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// queuedJob is one admission-queue entry: a validated submission waiting
// for a slot.
type queuedJob struct {
	name    string
	model   string
	profile dlmodel.Profile
	limit   float64
}

// Server exposes a livedock node over HTTP. Create with NewServer and
// mount via Handler.
type Server struct {
	node     *livedock.Node
	capacity float64
	mux      *http.ServeMux

	mu sync.Mutex
	// maxRunning caps concurrently running containers; /v1/jobs is the
	// only way one starts (0 = unlimited, every submission launches
	// immediately).
	maxRunning int
	// queueDepth bounds the admission queue; a submission past it gets
	// 429 and the client backs off.
	queueDepth int
	queue      []queuedJob
	// launching counts admitted launches still in flight: a slot is
	// reserved under mu before the node is called and returned when the
	// launch comes back, so concurrent admissions cannot share one.
	launching int
	// failed records queued jobs whose deferred launch failed, so a
	// status poll explains what happened instead of 404ing.
	failed map[string]string
	// draining rejects new submissions with 503 while shutdown stops the
	// running containers.
	draining bool

	// met is the live telemetry state served by /v1/metrics and
	// /v1/healthz (see metrics.go).
	met *serverMetrics
}

// NewServer wraps the node (of the given capacity, echoed in /v1/ping).
// Admission is unlimited until SetAdmissionLimits.
func NewServer(node *livedock.Node, capacity float64) *Server {
	if node == nil {
		panic("agent: nil node")
	}
	s := &Server{
		node:     node,
		capacity: capacity,
		mux:      http.NewServeMux(),
		failed:   make(map[string]string),
		met:      newServerMetrics(),
	}
	s.mux.HandleFunc("GET /v1/ping", s.handlePing)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/containers", s.handleList)
	s.mux.HandleFunc("DELETE /v1/containers/{id}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{name}", s.handleJobStatus)
	s.mux.HandleFunc("POST /v1/jobs/{name}/cancel", s.handleJobCancel)
	// Exits free capacity: admit queued jobs the moment a slot opens.
	node.OnExit(func(runtime.Container) {
		s.met.countExit()
		s.admitQueued()
	})
	return s
}

// SetAdmissionLimits bounds the managed jobs surface: at most maxRunning
// jobs run concurrently (0 = unlimited) and at most queueDepth
// submissions wait for a slot (beyond it, 429). Call before serving.
func (s *Server) SetAdmissionLimits(maxRunning, queueDepth int) {
	if maxRunning < 0 || queueDepth < 0 {
		panic("agent: negative admission limit")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxRunning = maxRunning
	s.queueDepth = queueDepth
}

// Drain stops accepting job submissions (503 with code "draining");
// everything already queued or running proceeds. The graceful-shutdown
// sequence is Drain, stop the containers, exit.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// Handler returns the agent's http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handlePing(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	queued, draining := len(s.queue), s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, PingResponse{
		OK:             true,
		Capacity:       s.capacity,
		Running:        s.node.RunningCount(),
		MemoryCapacity: s.node.MemoryCapacity(),
		MemoryUsed:     s.node.MemoryUsed(),
		Queued:         queued,
		Draining:       draining,
	})
}

// infoOf converts a runtime view to its wire form.
func infoOf(c runtime.Container) ContainerInfo {
	return ContainerInfo{
		ID:          c.ID,
		Name:        c.Name,
		Model:       c.Model,
		State:       c.State.String(),
		CPULimit:    c.CPULimit,
		CPUAlloc:    c.CPUAlloc,
		CPUSeconds:  c.CPUSeconds,
		MemoryBytes: c.MemoryBytes,
		StartedAt:   c.StartedAt,
		FinishedAt:  c.FinishedAt,
		Done:        c.Done,
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	views := s.node.PS(true)
	out := make([]ContainerInfo, len(views))
	for i, c := range views {
		out[i] = infoOf(c)
	}
	writeJSON(w, http.StatusOK, out)
}

// launch runs a catalog model (the profile its key resolved to) on the
// node.
func (s *Server) launch(name, model string, profile dlmodel.Profile, limit float64) (runtime.Container, error) {
	return s.node.Launch(runtime.LaunchSpec{
		Name:     name,
		Model:    model,
		Workload: dlmodel.NewJob(name, profile),
		CPULimit: limit,
	})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.node.Remove(r.PathValue("id")); err != nil {
		s.writeRuntimeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleSubmit is the managed admission path: launch if a slot is free,
// queue if the queue has room, 429 otherwise, 503 while draining. The
// request is fully validated before it can queue, so a queued job can
// only fail later for a reason that arose later (its name taken
// meanwhile).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := s.met.clock()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Name == "" || req.Model == "" {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("name and model are required"))
		return
	}
	// The mux cleans "." and ".." out of a path, so no status or cancel
	// request could address a job named either.
	if req.Name == "." || req.Name == ".." {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("job name %q cannot be addressed by a path", req.Name))
		return
	}
	profile, ok := dlmodel.Find(req.Model)
	if !ok {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.countRejection(CodeDraining)
		s.writeErr(w, http.StatusServiceUnavailable, CodeDraining,
			fmt.Errorf("agent is draining: %w", runtime.ErrDraining))
		return
	}
	for _, q := range s.queue {
		if q.name == req.Name {
			s.mu.Unlock()
			s.writeErr(w, http.StatusConflict, CodeNameInUse,
				fmt.Errorf("job %q is already queued: %w", req.Name, runtime.ErrNameInUse))
			return
		}
	}
	delete(s.failed, req.Name)
	// The node's own answer to an immediate launch, given where the node
	// would have given it, so queueing cannot hide a bad limit.
	if _, err := livedock.LaunchLimit(req.CPULimit); err != nil {
		s.mu.Unlock()
		s.writeRuntimeErr(w, err)
		return
	}
	if s.fullLocked() {
		if len(s.queue) >= s.queueDepth {
			depth := s.queueDepth
			s.mu.Unlock()
			s.met.countRejection(CodeQueueFull)
			s.writeErr(w, http.StatusTooManyRequests, CodeQueueFull,
				fmt.Errorf("%d jobs already queued: %w", depth, runtime.ErrQueueFull))
			return
		}
		s.queue = append(s.queue, queuedJob{name: req.Name, model: req.Model, profile: profile, limit: req.CPULimit})
		s.mu.Unlock()
		s.met.observeSubmit(s.met.clock().Sub(start), true)
		writeJSON(w, http.StatusAccepted, JobStatus{Name: req.Name, Model: req.Model, State: "queued"})
		return
	}
	s.launching++
	s.mu.Unlock()
	v, err := s.launch(req.Name, req.Model, profile, req.CPULimit)
	s.mu.Lock()
	s.launching--
	s.mu.Unlock()
	// A submit that arrived while this launch was in flight may have
	// counted it twice (reserved, and running once the node had it) and
	// queued behind a slot that is in fact free. Admit it once this
	// submitter has its latency reading and its answer.
	defer s.admitQueued()
	if err != nil {
		s.writeRuntimeErr(w, err)
		return
	}
	s.met.observeSubmit(s.met.clock().Sub(start), false)
	writeJSON(w, http.StatusCreated, jobStatusOf(req.Name, req.Model, v))
}

// fullLocked reports whether every admission slot is taken, by a running
// container or by a launch in flight. Callers hold mu.
func (s *Server) fullLocked() bool {
	return s.maxRunning > 0 && s.node.RunningCount()+s.launching >= s.maxRunning
}

// admitQueued launches queued jobs while slots are free. The lock is
// released around each launch: a launch can settle the node and retire
// more containers, whose exit hooks re-enter admitQueued.
func (s *Server) admitQueued() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 && !s.fullLocked() {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.launching++
		s.mu.Unlock()
		_, err := s.launch(next.name, next.model, next.profile, next.limit)
		s.mu.Lock()
		s.launching--
		if err != nil {
			s.failed[next.name] = err.Error()
		}
	}
}

// jobStatusOf converts a running/exited container view to job status.
func jobStatusOf(name, model string, c runtime.Container) JobStatus {
	return JobStatus{
		Name:        name,
		ID:          c.ID,
		Model:       model,
		State:       c.State.String(),
		CPULimit:    c.CPULimit,
		CPUAlloc:    c.CPUAlloc,
		CPUSeconds:  c.CPUSeconds,
		MemoryBytes: c.MemoryBytes,
		StartedAt:   c.StartedAt,
		FinishedAt:  c.FinishedAt,
		Done:        c.Done,
	}
}

// jobByName resolves a job across the queue, the failure log, and the
// node pool.
func (s *Server) jobByName(name string) (JobStatus, bool) {
	s.mu.Lock()
	for _, q := range s.queue {
		if q.name == name {
			s.mu.Unlock()
			return JobStatus{Name: name, Model: q.model, State: "queued"}, true
		}
	}
	if msg, ok := s.failed[name]; ok {
		s.mu.Unlock()
		return JobStatus{Name: name, State: "failed", Error: msg}, true
	}
	s.mu.Unlock()
	c, err := s.node.Lookup(name)
	if err != nil {
		return JobStatus{}, false
	}
	return jobStatusOf(name, c.Model, c), true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.jobByName(name)
	if !ok {
		s.writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("job %q: %w", name, runtime.ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobCancel dequeues a queued job or stops its running container.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	for i, q := range s.queue {
		if q.name == name {
			s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, JobStatus{Name: name, Model: q.model, State: "exited"})
			return
		}
	}
	s.mu.Unlock()
	c, err := s.node.Lookup(name)
	if err != nil {
		s.writeRuntimeErr(w, err)
		return
	}
	if err := s.node.Stop(c.ID); err != nil {
		s.writeRuntimeErr(w, err)
		return
	}
	if c, err = s.node.Lookup(name); err != nil {
		s.writeRuntimeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobStatusOf(name, c.Model, c))
}

// writeJSON writes a JSON response with status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the JSON error envelope and counts it in the per-code
// error metrics.
func (s *Server) writeErr(w http.ResponseWriter, status int, code string, err error) {
	s.met.countError(code)
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// writeRuntimeErr maps a runtime-layer error to its HTTP status and code.
func (s *Server) writeRuntimeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, runtime.ErrNotFound):
		s.writeErr(w, http.StatusNotFound, CodeNotFound, err)
	case errors.Is(err, runtime.ErrNotRunning):
		s.writeErr(w, http.StatusConflict, CodeNotRunning, err)
	case errors.Is(err, runtime.ErrRunning):
		s.writeErr(w, http.StatusConflict, CodeRunning, err)
	case errors.Is(err, runtime.ErrNameInUse):
		s.writeErr(w, http.StatusConflict, CodeNameInUse, err)
	case errors.Is(err, runtime.ErrBadLimit):
		s.writeErr(w, http.StatusConflict, CodeBadLimit, err)
	default:
		s.writeErr(w, http.StatusInternalServerError, CodeInternal, err)
	}
}
