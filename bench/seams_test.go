package main

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// TestSeamsAreTransparent runs the registered `fixed` scenario (the
// paper's §5.3 schedule) bare and with every seam wrapped. The wrapped
// run must simulate exactly the same thing, and the wrappers must have
// seen the calls.
func TestSeamsAreTransparent(t *testing.T) {
	sc, ok := experiment.ScenarioByName("fixed")
	if !ok {
		t.Fatal("scenario fixed is not registered")
	}
	bare, err := experiment.RunE(sc.Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	s := &seams{}
	spec := sc.Spec(1)
	s.wrap(&spec)
	wrapped, err := experiment.RunE(spec)
	if err != nil {
		t.Fatal(err)
	}

	if wrapped.Makespan != bare.Makespan {
		t.Errorf("makespan %v wrapped, %v bare", wrapped.Makespan, bare.Makespan)
	}
	if !reflect.DeepEqual(wrapped.CompletionTimes(), bare.CompletionTimes()) {
		t.Errorf("completion times differ:\n wrapped %v\n bare    %v", wrapped.CompletionTimes(), bare.CompletionTimes())
	}
	if w, b := wrapped.Collector.AlgorithmRuns(), bare.Collector.AlgorithmRuns(); w != b || b == 0 {
		t.Errorf("algorithm runs: %d wrapped, %d bare", w, b)
	}
	if wrapped.Policy != bare.Policy {
		t.Errorf("policy name %q wrapped, %q bare", wrapped.Policy, bare.Policy)
	}

	// The wrapper's own tallies agree with the simulator's.
	if s.setLimitOK != bare.LimitUpdates {
		t.Errorf("wrapper counted %d limit updates, the controller %d", s.setLimitOK, bare.LimitUpdates)
	}
	if s.recordRun.calls != bare.Collector.AlgorithmRuns() || s.stats.calls != s.recordRun.calls {
		t.Errorf("record_run %d, stats %d, algorithm runs %d", s.recordRun.calls, s.stats.calls, bare.Collector.AlgorithmRuns())
	}
	if s.place.calls < len(bare.Jobs) {
		t.Errorf("placement wrapper saw %d calls for %d jobs", s.place.calls, len(bare.Jobs))
	}
	if s.cycle.calls < s.recordRun.calls {
		t.Errorf("%d cycles cannot hold %d algorithm runs", s.cycle.calls, s.recordRun.calls)
	}
	if s.cycleSelf() < 0 || s.cycleSelf() > s.cycle.ns {
		t.Errorf("cycle self time %v outside [0, %v]", s.cycleSelf(), s.cycle.ns)
	}
}

// TestSeamsWrapArrivalStream uses a streamed scenario, so the arrival
// wrapper is exercised too.
func TestSeamsWrapArrivalStream(t *testing.T) {
	sc, ok := experiment.ScenarioByName("poisson")
	if !ok {
		t.Fatal("scenario poisson is not registered")
	}
	bare, err := experiment.RunE(sc.Spec(3))
	if err != nil {
		t.Fatal(err)
	}
	s := &seams{}
	spec := sc.Spec(3)
	s.wrap(&spec)
	wrapped, err := experiment.RunE(spec)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Makespan != bare.Makespan || !reflect.DeepEqual(wrapped.CompletionTimes(), bare.CompletionTimes()) {
		t.Errorf("streamed run changed under the wrappers: makespan %v vs %v", wrapped.Makespan, bare.Makespan)
	}
	// One pull per job plus the one that finds the stream dry.
	if s.next.calls != bare.Submitted+1 {
		t.Errorf("arrival wrapper saw %d pulls for %d jobs", s.next.calls, bare.Submitted)
	}
}

func TestPeakContainersPerNode(t *testing.T) {
	res, err := experiment.RunE(denseNodeSpec(1, true))
	if err != nil {
		t.Fatal(err)
	}
	peak := peakContainersPerNode(res.Jobs)
	if peak < 2 || peak > len(res.Jobs) {
		t.Errorf("peak %d for %d jobs on 2 workers", peak, len(res.Jobs))
	}
	if got := peakContainersPerNode(nil); got != 0 {
		t.Errorf("peak of no jobs = %d", got)
	}
}
