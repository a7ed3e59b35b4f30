package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const settle = 250 * time.Millisecond
	for _, tc := range []struct {
		name                   string
		capacity               float64
		settle                 time.Duration
		maxRunning, queueDepth int
		wantErr                string // substring; "" means valid
	}{
		{name: "defaults", capacity: 1, settle: settle, queueDepth: 16},
		{name: "fractional capacity", capacity: 0.5, settle: time.Nanosecond, maxRunning: 4},
		{name: "zero capacity", capacity: 0, settle: settle, wantErr: "-capacity"},
		{name: "negative capacity", capacity: -1, settle: settle, wantErr: "-capacity"},
		{name: "NaN capacity", capacity: math.NaN(), settle: settle, wantErr: "-capacity"},
		{name: "+Inf capacity", capacity: math.Inf(1), settle: settle, wantErr: "-capacity"},
		{name: "zero settle", capacity: 1, settle: 0, wantErr: "-settle"},
		{name: "negative settle", capacity: 1, settle: -time.Second, wantErr: "-settle"},
		{name: "negative max-running", capacity: 1, settle: settle, maxRunning: -1, wantErr: "-max-running"},
		{name: "negative queue-depth", capacity: 1, settle: settle, queueDepth: -1, wantErr: "-queue-depth"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.capacity, tc.settle, tc.maxRunning, tc.queueDepth)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("checkFlags = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("checkFlags = %v, want an error naming %s", err, tc.wantErr)
			}
		})
	}
}
