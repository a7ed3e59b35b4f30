package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// settings are checkFlags's arguments.
type settings struct {
	capacity               float64
	maxRunning, queueDepth int
	alpha                  float64
	itval                  time.Duration
}

func TestCheckFlags(t *testing.T) {
	defaults := settings{capacity: 1, queueDepth: 16, alpha: 0.03, itval: 30 * time.Second}
	for _, tc := range []struct {
		name    string
		edit    func(*settings)
		wantErr string // substring; "" means valid
	}{
		{name: "defaults", edit: func(*settings) {}},
		{name: "fractional capacity", edit: func(s *settings) { s.capacity, s.maxRunning = 0.5, 4 }},
		{name: "zero capacity", edit: func(s *settings) { s.capacity = 0 }, wantErr: "-capacity"},
		{name: "negative capacity", edit: func(s *settings) { s.capacity = -1 }, wantErr: "-capacity"},
		{name: "NaN capacity", edit: func(s *settings) { s.capacity = math.NaN() }, wantErr: "-capacity"},
		{name: "+Inf capacity", edit: func(s *settings) { s.capacity = math.Inf(1) }, wantErr: "-capacity"},
		{name: "negative max-running", edit: func(s *settings) { s.maxRunning = -1 }, wantErr: "-max-running"},
		{name: "negative queue-depth", edit: func(s *settings) { s.queueDepth = -1 }, wantErr: "-queue-depth"},
		{name: "alpha near the edges", edit: func(s *settings) { s.alpha = 0.999 }},
		{name: "zero alpha", edit: func(s *settings) { s.alpha = 0 }, wantErr: "-alpha"},
		{name: "negative alpha", edit: func(s *settings) { s.alpha = -0.1 }, wantErr: "-alpha"},
		{name: "alpha one", edit: func(s *settings) { s.alpha = 1 }, wantErr: "-alpha"},
		{name: "alpha above one", edit: func(s *settings) { s.alpha = 1.5 }, wantErr: "-alpha"},
		{name: "NaN alpha", edit: func(s *settings) { s.alpha = math.NaN() }, wantErr: "-alpha"},
		{name: "sub-second itval", edit: func(s *settings) { s.itval = time.Millisecond }},
		{name: "zero itval", edit: func(s *settings) { s.itval = 0 }, wantErr: "-itval"},
		{name: "negative itval", edit: func(s *settings) { s.itval = -time.Second }, wantErr: "-itval"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := defaults
			tc.edit(&s)
			err := checkFlags(s.capacity, s.maxRunning, s.queueDepth, s.alpha, s.itval)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("checkFlags = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("checkFlags = %v, want an error naming %s", err, tc.wantErr)
			case err == nil:
				// What check passes, the controller accepts.
				flowcon.NewController(flowcon.Config{Alpha: s.alpha, InitialInterval: s.itval.Seconds()},
					sim.NewEngine(), livedock.NewNode(s.capacity), nil)
			}
		})
	}
}

// runFeed is a flowcon.Tracer that hands each Algorithm 1 run to the
// test, dropping it when nobody is reading.
type runFeed chan flowcon.TraceEntry

func (f runFeed) RecordRun(e flowcon.TraceEntry) {
	select {
	case f <- e:
	default:
	}
}

// Shutdown stops the controller before the containers: stopping N running
// containers once the pacer loop has returned runs no Algorithm 1, while
// under a live loop each stop would run one more departure over the pool
// being torn down. The node and pacer share one frozen fake clock, so the loop
// wakes only for posted hooks.
func TestShutdownStopsControllerFirst(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return epoch }
	node := livedock.NewNodeWithClock(1.0, clock)
	engine := sim.NewEngine()
	pacer := realtime.NewPacerWithClock(engine, node, clock)
	runs := make(runFeed, 1)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.03, InitialInterval: 30}, engine, node, runs)
	pacer.Listen(ctrl)
	ctrl.Start()
	srv := agent.NewServer(node, 1.0)

	const n = 4
	for i := range n {
		name := fmt.Sprintf("job-%d", i)
		if _, err := node.Launch(runtime.LaunchSpec{Name: name, Workload: dlmodel.NewJob(name, dlmodel.GRU())}); err != nil {
			t.Fatal(err)
		}
	}
	pacer.Step() // the arrivals' runs
	before := ctrl.Runs()
	if before == 0 {
		t.Fatal("no arrival ran Algorithm 1")
	}
	<-runs // the feed holds the first of them

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacer.Run(ctx)
	}()
	done := make(chan struct{})
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	go func() {
		defer close(done)
		shutdown(logger, srv, paced, node, &http.Server{})
	}()
	// Until the loop returns, a departure run would reach the feed here.
	select {
	case e := <-runs:
		t.Fatalf("Algorithm 1 ran (trigger %s) while the worker shut down", e.Trigger)
	case <-time.After(200 * time.Millisecond):
	}
	cancel()
	<-done
	if got := node.RunningCount(); got != 0 {
		t.Fatalf("%d containers still running after shutdown", got)
	}
	if got := ctrl.Runs(); got != before {
		t.Fatalf("stopping %d containers ran Algorithm 1 %d more times", n, got-before)
	}
}
