package experiment

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The megacluster family is heavy: reachable by name, listed by
// AllScenarios, but never swept by "-scenario all". The light
// production-day member rides the sweep set.
func TestMegaclusterFamilyRegistry(t *testing.T) {
	for _, name := range []string{"megacluster", "megacluster-5k", "megacluster-smoke"} {
		s, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if !s.Heavy {
			t.Errorf("%s must be marked Heavy", name)
		}
		if err := s.validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, s := range Scenarios() {
		if s.Heavy {
			t.Errorf("heavy scenario %q leaked into the sweep set", s.Name)
		}
	}
	listed := false
	for _, s := range AllScenarios() {
		if s.Name == "megacluster" {
			listed = true
		}
	}
	if !listed {
		t.Error("AllScenarios omits heavy scenarios")
	}
	pd, ok := ScenarioByName("production-day")
	if !ok || pd.Heavy {
		t.Errorf("production-day must ride the sweep set (ok=%v heavy=%v)", ok, pd.Heavy)
	}
}

// failingStream yields one valid submission, then reports a mid-stream
// failure — the runner must abort and surface the error.
type failingStream struct{ sent bool }

func (f *failingStream) Next() (workload.Submission, bool) {
	if f.sent {
		return workload.Submission{}, false
	}
	f.sent = true
	return workload.Submission{Name: "a", Profile: workload.FixedSchedule()[0].Profile, At: 0}, true
}

func (f *failingStream) Err() error { return errors.New("trace disk unplugged") }

// The Arrivals input form rejects misuse a materialized schedule cannot
// express: ambiguous double schedules, empty or failing streams, and
// arrival times the engine could not order.
func TestStreamingSpecValidation(t *testing.T) {
	profile := workload.FixedSchedule()[0].Profile
	base := func() Spec {
		return Spec{Name: "stream-validation", NewPolicy: FlowConPolicy(0.05, 20)}
	}
	run := func(mutate func(*Spec)) error {
		spec := base()
		mutate(&spec)
		_, err := RunE(spec)
		return err
	}
	cases := map[string]struct {
		mutate func(*Spec)
		want   string
	}{
		"both schedules": {func(s *Spec) {
			s.Submissions = workload.FixedSchedule()
			s.Arrivals = workload.SliceStream(workload.FixedSchedule())
		}, "both Submissions and Arrivals"},
		"empty stream": {func(s *Spec) {
			s.Arrivals = workload.SliceStream(nil)
		}, "empty"},
		"failing stream": {func(s *Spec) {
			s.Arrivals = &failingStream{}
		}, "trace disk unplugged"},
		"invalid first time": {func(s *Spec) {
			s.Arrivals = workload.SliceStream([]workload.Submission{
				{Name: "a", Profile: profile, At: math.NaN()}})
		}, "invalid time"},
		"backwards stream": {func(s *Spec) {
			s.Arrivals = workload.SliceStream([]workload.Submission{
				{Name: "a", Profile: profile, At: 10},
				{Name: "b", Profile: profile, At: 5}})
		}, "backwards"},
		"nan mid-stream": {func(s *Spec) {
			s.Arrivals = workload.SliceStream([]workload.Submission{
				{Name: "a", Profile: profile, At: 10},
				{Name: "b", Profile: profile, At: math.NaN()}})
		}, "backwards"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := run(tc.mutate)
			if err == nil {
				t.Fatalf("%s accepted", name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A schedule cut off by the horizon must not report itself complete: the
// tail was never admitted, even though every job the runner did admit
// finished. Both input forms give the same answer — Submitted counts the
// arrivals that fired.
func TestResultIncompleteWhenArrivalPastHorizon(t *testing.T) {
	profile := workload.FixedSchedule()[2].Profile
	subs := []workload.Submission{
		{Name: "now", Profile: profile, At: 0},
		{Name: "never", Profile: profile, At: 60000},
	}
	cases := map[string]func(*Spec){
		"materialized": func(s *Spec) { s.Submissions = subs },
		"streamed":     func(s *Spec) { s.Arrivals = workload.SliceStream(subs) },
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Name: "past-horizon", NewPolicy: FlowConPolicy(0.05, 20), Horizon: 1000}
			input(&spec)
			res, err := RunE(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Submitted != 1 || len(res.Jobs) != 1 {
				t.Fatalf("Submitted=%d placed=%d, want 1/1 (the tail never arrived)", res.Submitted, len(res.Jobs))
			}
			if res.Completed {
				t.Fatal("run with an unadmitted schedule tail reported Completed")
			}
		})
	}
}

// A materialized schedule listed out of arrival order runs exactly like
// its sorted form, and the runner leaves the caller's slice alone — grids
// share one slice across concurrently running specs.
func TestUnsortedSubmissionsRunLikeSorted(t *testing.T) {
	sorted := workload.RandomFive(7)
	unsorted := slices.Clone(sorted)
	slices.Reverse(unsorted)
	listed := slices.Clone(unsorted)
	run := func(subs []workload.Submission) *Result {
		res, err := RunE(Spec{Name: "order", NewPolicy: FlowConPolicy(0.05, 20), Submissions: subs, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(sorted), run(unsorted)
	if !reflect.DeepEqual(got.Jobs, want.Jobs) || got.Makespan != want.Makespan {
		t.Fatalf("unsorted schedule ran differently:\n%+v\nvs sorted\n%+v", got.Jobs, want.Jobs)
	}
	if !reflect.DeepEqual(unsorted, listed) {
		t.Fatal("RunE reordered the caller's Submissions slice")
	}
}
