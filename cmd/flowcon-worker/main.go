// Command flowcon-worker runs a live worker agent: an in-process container
// runtime (synthetic DL jobs advancing in wall-clock time) exposed over
// the versioned /v1 HTTP protocol and governed by FlowCon in the same
// process — the worker node of the paper's Figure 2.
//
// Usage:
//
//	flowcon-worker [-addr :7070] [-capacity 1.0] [-settle 250ms]
//	               [-max-running 0] [-queue-depth 16]
//	               [-alpha 0.03] [-itval 30s]
//	               [-log-level info] [-log-format text]
//
// FlowCon is the simulator's flowcon.Controller (-alpha, -itval) on the
// node's start and exit hooks, on a sim.Engine that realtime.Pacer runs
// with the wall clock. At -log-level debug each Algorithm 1 run is logged
// with its trigger, interval, and every container's list and limit.
//
// -max-running bounds concurrently running containers (0 = unlimited);
// POST /v1/jobs is the only route that starts one, so the cap holds on
// every route. Overflow queues up to -queue-depth deep, and beyond that
// submissions get 429.
//
// The worker serves live telemetry on /v1/metrics (Prometheus text) and
// /v1/healthz (readiness + backpressure); see docs/OBSERVABILITY.md.
// Logging is structured (log/slog) behind the shared -log-level /
// -log-format pair; per-request access logs appear at debug level.
//
// On SIGINT/SIGTERM the worker shuts down gracefully: it stops accepting
// submissions (503), stops every running container, finishes in-flight
// HTTP requests, and exits cleanly. Its last line, "flowcon-worker:
// stopped", reports algorithm1_runs, limit_updates and the paced loop's
// lateness.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	capacity := flag.Float64("capacity", 1.0, "normalized CPU capacity of this node")
	settle := flag.Duration("settle", 250*time.Millisecond, "background accounting period")
	maxRunning := flag.Int("max-running", 0, "max concurrently running containers, on every route (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 16, "admission queue depth before /v1/jobs returns 429")
	alpha := flag.Float64("alpha", 0.03, "FlowCon growth-efficiency threshold α, in (0,1)")
	itval := flag.Duration("itval", 30*time.Second, "FlowCon executor interval (itval)")
	logLevel, logFormat := telemetry.LogFlags(flag.CommandLine)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-worker:", err)
		os.Exit(2)
	}
	if err := checkFlags(*capacity, *settle, *maxRunning, *queueDepth, *alpha, *itval); err != nil {
		logger.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	node := livedock.NewNode(*capacity)
	node.OnExit(func(c runtime.Container) {
		logger.Info("container exited", "id", c.ID, "name", c.Name)
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The controller and its engine belong to the pacer's goroutine from
	// here on; the node's hooks reach them through Post.
	engine := sim.NewEngine()
	pacer := realtime.NewPacer(engine)
	var tracer flowcon.Tracer
	if logger.Enabled(ctx, slog.LevelDebug) {
		tracer = runLog{logger}
	}
	ctrl := flowcon.NewController(flowcon.Config{Alpha: *alpha, InitialInterval: itval.Seconds()}, engine, node, tracer)
	realtime.Listen(node, ctrl, pacer.Post)
	ctrl.Start()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacer.Run(ctx)
	}()

	// Background settle loop bounds completion-detection latency: a settle
	// retires finished containers, and their exit hooks wake FlowCon.
	go func() {
		ticker := time.NewTicker(*settle)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				node.Settle()
			}
		}
	}()

	srv := agent.NewServer(node, *capacity)
	srv.SetAdmissionLimits(*maxRunning, *queueDepth)
	httpSrv := &http.Server{Addr: *addr, Handler: logRequests(logger, srv.Handler())}

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Info("flowcon-worker: shutting down")
		// Graceful sequence: refuse new submissions, stop the containers,
		// then let in-flight HTTP requests finish.
		srv.Drain()
		for _, c := range node.PS(false) {
			if err := node.Stop(c.ID); err != nil {
				logger.Warn("stopping container", "id", c.ID, "err", err)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
	}()

	logger.Info("flowcon-worker listening", "addr", *addr, "capacity", *capacity, "alpha", *alpha, "itval", *itval)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	<-done
	<-paced
	logger.Info("flowcon-worker: stopped", "algorithm1_runs", ctrl.Runs(), "limit_updates", ctrl.LimitUpdates(),
		"max_lateness_ms", float64(pacer.Lateness())/float64(time.Millisecond))
}

// checkFlags refuses settings the worker cannot run with, before anything
// starts: a positive finite capacity, a positive settle period (a ticker
// panics on anything else), non-negative admission limits, and FlowCon's α inside (0,1) and
// interval positive (flowcon.NewController panics on anything else). The
// float tests are positive range tests, so NaN fails them.
func checkFlags(capacity float64, settle time.Duration, maxRunning, queueDepth int, alpha float64, itval time.Duration) error {
	if !(capacity > 0 && capacity <= math.MaxFloat64) {
		return fmt.Errorf("-capacity %g must be positive and finite", capacity)
	}
	if settle <= 0 {
		return fmt.Errorf("-settle %v must be positive", settle)
	}
	if maxRunning < 0 || queueDepth < 0 {
		return fmt.Errorf("-max-running %d and -queue-depth %d must be non-negative", maxRunning, queueDepth)
	}
	if !(alpha > 0 && alpha < 1) || itval <= 0 {
		return fmt.Errorf("-alpha %g must lie in (0,1) and -itval %v must be positive", alpha, itval)
	}
	return nil
}

// runLog is the controller's flowcon.Tracer at debug level: one line per
// Algorithm 1 run.
type runLog struct{ logger *slog.Logger }

func (r runLog) RecordRun(e flowcon.TraceEntry) {
	attrs := []any{"trigger", e.Trigger, "at_s", float64(e.At), "interval_s", e.Interval}
	for _, c := range e.Containers {
		attrs = append(attrs, slog.Group(c.ID, "list", c.List.String(), "limit", c.Limit))
	}
	r.logger.Debug("algorithm 1", attrs...)
}

// logRequests is a minimal access log at debug level — quiet by default,
// -log-level debug turns it on.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		logger.Debug("request", "method", r.Method, "path", r.URL.Path)
	})
}
