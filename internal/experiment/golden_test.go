package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenFixedTrace renders the Section 5.3 fixed schedule's event trace:
// the registered "fixed" scenario (FlowCon α=5%, itval=20) run to
// completion, serialized as JSONL events (submit/start/limit/finish).
func goldenFixedTrace(t *testing.T) []byte {
	t.Helper()
	s, ok := ScenarioByName("fixed")
	if !ok {
		t.Fatal("fixed scenario missing from registry")
	}
	subs, err := workload.Collect(s.StreamWorkload(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec(1)
	// Limit events come from the dense tier's LimitSeries; the summary
	// default would silently drop them from the golden.
	spec.TraceLevel = metrics.TierDense
	res, err := RunE(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEventTrace(&buf, subs, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The fixed schedule's event trace must match the checked-in golden byte
// for byte. This pins the whole deterministic stack — sim event ordering,
// cluster placement, the monitor's measurements, and Algorithm 1's limit
// plans — so any drift in those layers fails loudly here. After an
// intentional behaviour change, regenerate with:
//
//	go test ./internal/experiment -run TestFixedScheduleGoldenTrace -update
func TestFixedScheduleGoldenTrace(t *testing.T) {
	got := goldenFixedTrace(t)
	path := filepath.Join("testdata", "fixed_schedule.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fixed-schedule event trace drifted from %s.\n"+
			"If the change is intentional, regenerate with -update and review the diff.\n"+
			"got %d bytes, want %d bytes", path, len(got), len(want))
	}
}

// The golden trace is regenerated identically run over run (no hidden
// wall-clock or map-order dependence in the trace writer itself).
func TestEventTraceDeterministic(t *testing.T) {
	a := goldenFixedTrace(t)
	b := goldenFixedTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("event trace differs between two identical runs")
	}
}

// The workload-level trace of the fixed schedule also round-trips through
// RecordStream/Replay and re-runs to the same event trace — the end-to-end
// guarantee that a recorded scenario replays into an identical simulation.
func TestReplayedScheduleReproducesEventTrace(t *testing.T) {
	s, ok := ScenarioByName("fixed")
	if !ok {
		t.Fatal("fixed scenario missing")
	}
	subs, err := workload.Collect(s.StreamWorkload(1))
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if _, err := workload.RecordStream(&trace, workload.SliceStream(subs)); err != nil {
		t.Fatal(err)
	}
	replayed, err := workload.Replay(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	run := func(subs []workload.Submission) []byte {
		spec := s.Spec(1)
		spec.TraceLevel = metrics.TierDense
		spec.Arrivals = workload.SliceStream(subs)
		res, err := RunE(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteEventTrace(&buf, subs, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(subs), run(replayed)) {
		t.Fatal("replayed schedule simulated differently from the original")
	}
}
