package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/livedock"
)

// The live load: a closed loop, because the real callers (flowcon-manager,
// agent.Client) wait for each reply, with as many clients as the reference
// box has cores. Nothing finishes inside a repetition, so occupancy climbs
// from 0 to liveSubmitters*liveJobs running containers and the node's
// per-launch reallocation cost is inside the latency.
const (
	liveSubmitters = 2
	liveJobs       = 2000
)

// liveStats is what only the live workload reports.
type liveStats struct {
	pollP50Us, pollP99Us       float64 // client-observed GET /v1/jobs/{name}
	handlerP50Us, handlerP99Us float64 // server-side POST /v1/jobs (traced repetitions only)
	runningAtEnd               int
}

// liveSubmitRun boots a fresh worker behind real loopback TCP, drives it
// with agent.RunLoadTest, and tears it down.
func liveSubmitRun(env repEnv) repOutcome {
	jobs := liveJobs
	if env.quick {
		jobs = 50
	}
	node := livedock.NewNode(1.0)
	handler := agent.NewServer(node, 1.0).Handler()
	var mw *timingMiddleware
	if env.trace != nil {
		mw = &timingMiddleware{next: handler}
		handler = mw
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Each repetition gets its own transport so connections (one per
	// submitter) are opened inside it and closed with it.
	transport := &http.Transport{MaxIdleConnsPerHost: liveSubmitters}
	defer transport.CloseIdleConnections()
	client := agent.NewClient(ts.URL, &http.Client{Transport: transport, Timeout: 30 * time.Second})

	rep := agent.RunLoadTest(context.Background(), client, agent.LoadOptions{
		Submitters:       liveSubmitters,
		JobsPerSubmitter: jobs,
		NamePrefix:       fmt.Sprintf("s%d-r%d", env.seed, env.index),
	})

	want := liveSubmitters * jobs
	out := repOutcome{
		wall:   rep.Elapsed.Seconds(),
		p50Ms:  float64(rep.P50) / 1e6,
		p99Ms:  float64(rep.P99) / 1e6,
		ops:    rep.Phases.Submit.Count,
		jobs:   rep.Submitted,
		passes: 1,
		// One operation is a submit or a status-poll round trip; the
		// per-submitter connect pings are counted by RunLoadTest as well.
		attempted: 2*want + liveSubmitters,
		failed:    rep.Errors,
		counts:    counts{Jobs: rep.Submitted, Runs: 1},
		live: &liveStats{
			pollP50Us:    float64(rep.Phases.StatusPoll.P50) / 1e3,
			pollP99Us:    float64(rep.Phases.StatusPoll.P99) / 1e3,
			runningAtEnd: node.RunningCount(),
		},
	}
	if rep.Errors > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d load-test errors, first: %v", rep.Errors, rep.FirstError))
	}
	if rep.Submitted != want {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d submissions accepted", rep.Submitted, want))
		out.failed = max(out.failed, want-rep.Submitted)
	}
	if mw != nil {
		out.live.handlerP50Us, out.live.handlerP99Us = mw.submitPercentiles()
	}
	return out
}

// timingMiddleware is the server-side half of the live attribution: it
// times the agent's handler for every POST /v1/jobs, so the client-seen
// latency splits into handler time and everything else (transport, JSON,
// client).
type timingMiddleware struct {
	next http.Handler
	mu   sync.Mutex
	us   []float64
}

func (m *timingMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/v1/jobs") {
		m.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	m.next.ServeHTTP(w, r)
	d := float64(time.Since(t0)) / 1e3
	m.mu.Lock()
	m.us = append(m.us, d)
	m.mu.Unlock()
}

func (m *timingMiddleware) submitPercentiles() (p50, p99 float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sort.Float64s(m.us)
	p50, _ = percentile(m.us, 0.50)
	p99, _ = percentile(m.us, 0.99)
	return p50, p99
}
