package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/sim"
)

// settings are checkFlags's arguments.
type settings struct {
	capacity               float64
	settle                 time.Duration
	maxRunning, queueDepth int
	alpha                  float64
	itval                  time.Duration
}

func TestCheckFlags(t *testing.T) {
	defaults := settings{capacity: 1, settle: 250 * time.Millisecond, queueDepth: 16, alpha: 0.03, itval: 30 * time.Second}
	for _, tc := range []struct {
		name    string
		edit    func(*settings)
		wantErr string // substring; "" means valid
	}{
		{name: "defaults", edit: func(*settings) {}},
		{name: "fractional capacity", edit: func(s *settings) { s.capacity, s.settle, s.maxRunning = 0.5, time.Nanosecond, 4 }},
		{name: "zero capacity", edit: func(s *settings) { s.capacity = 0 }, wantErr: "-capacity"},
		{name: "negative capacity", edit: func(s *settings) { s.capacity = -1 }, wantErr: "-capacity"},
		{name: "NaN capacity", edit: func(s *settings) { s.capacity = math.NaN() }, wantErr: "-capacity"},
		{name: "+Inf capacity", edit: func(s *settings) { s.capacity = math.Inf(1) }, wantErr: "-capacity"},
		{name: "zero settle", edit: func(s *settings) { s.settle = 0 }, wantErr: "-settle"},
		{name: "negative settle", edit: func(s *settings) { s.settle = -time.Second }, wantErr: "-settle"},
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
			err := checkFlags(s.capacity, s.settle, s.maxRunning, s.queueDepth, s.alpha, s.itval)
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
