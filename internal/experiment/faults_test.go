package experiment

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// crashAt is the one-line fault plan most tests here need: worker idx
// crashes at virtual time at and stays down.
func crashAt(idx int, at float64) *faults.Plan {
	return &faults.Plan{Script: []faults.ScriptedFault{{At: at, Kind: faults.KindCrash, Worker: idx}}}
}

func TestFailureInjectionRecovers(t *testing.T) {
	res := Run(Spec{
		Name:        "failure",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
		Faults:      crashAt(0, 120),
	})
	if !res.Completed {
		t.Fatal("workload did not survive the worker failure")
	}
	if res.Requeued == 0 {
		t.Fatal("failure at t=120 requeued no jobs")
	}
	// Every job record ends on the surviving worker or finished before
	// the crash on worker-0.
	restarts := 0
	for _, j := range res.Jobs {
		restarts += j.Restarts
	}
	if restarts != res.Requeued {
		t.Fatalf("restarts %d != requeued %d", restarts, res.Requeued)
	}
}

func TestFailureDelaysAffectedJobs(t *testing.T) {
	base := Spec{
		Name:        "nofail",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
	}
	clean := Run(base)
	failed := base
	failed.Name = "fail"
	failed.Faults = crashAt(0, 120)
	crashed := Run(failed)
	if !crashed.Completed {
		t.Fatal("did not complete")
	}
	// Lost training work must extend the makespan.
	if crashed.Makespan <= clean.Makespan {
		t.Fatalf("failure did not extend makespan: %v vs %v", crashed.Makespan, clean.Makespan)
	}
}

func TestFailureIndexValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range failure index did not panic")
		}
	}()
	Run(Spec{
		Name:        "bad",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule(),
		Faults:      crashAt(5, 10),
	})
}

func TestAdmissionQueueUnderContainerCap(t *testing.T) {
	res := Run(Spec{
		Name:                   "capped",
		NewPolicy:              NAPolicy(20),
		Submissions:            workload.RandomFive(7),
		MaxContainersPerWorker: 2,
	})
	if !res.Completed {
		t.Fatal("capped run did not complete")
	}
	// With at most 2 concurrent jobs the makespan cannot beat the
	// unconstrained run's.
	free := Run(Spec{
		Name:        "free",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.RandomFive(7),
	})
	if res.Makespan < free.Makespan-1e-9 {
		t.Fatalf("capped makespan %v beat unconstrained %v", res.Makespan, free.Makespan)
	}
}

func TestBinPackPlacementSpec(t *testing.T) {
	res := Run(Spec{
		Name:        "binpack",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
		Placement:   cluster.BinPackMemory,
	})
	if !res.Completed {
		t.Fatal("binpack run did not complete")
	}
	// All five jobs fit in 16GB, so bin packing keeps them on one worker.
	used := map[string]bool{}
	for _, j := range res.Jobs {
		used[j.Worker] = true
	}
	if len(used) != 1 {
		t.Fatalf("binpack used %d workers, want 1", len(used))
	}
}

func TestMemoryOverridesSpec(t *testing.T) {
	// Tiny node memory forces serial admission; disabling memory does not.
	serial := Run(Spec{
		Name:                 "tiny-memory",
		NewPolicy:            NAPolicy(20),
		Submissions:          workload.FixedSchedule(),
		MemoryBytesPerWorker: 1500 << 20, // fits one job at a time
	})
	if !serial.Completed {
		t.Fatal("memory-capped run did not complete")
	}
	parallel := Run(Spec{
		Name:                 "no-memory-model",
		NewPolicy:            NAPolicy(20),
		Submissions:          workload.FixedSchedule(),
		MemoryBytesPerWorker: -1,
	})
	if !parallel.Completed {
		t.Fatal("memory-free run did not complete")
	}
	// Serial admission can't start MNIST-TF at its 80s submission.
	s, _ := serial.Job("MNIST (Tensorflow)")
	p, _ := parallel.Job("MNIST (Tensorflow)")
	if s.StartedAt <= p.StartedAt {
		t.Fatalf("memory cap did not delay admission: %v vs %v", s.StartedAt, p.StartedAt)
	}
}

func TestCheckpointingSpeedsRecovery(t *testing.T) {
	base := Spec{
		Name:        "ckpt",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
		Faults:      crashAt(0, 150),
	}
	scratch := Run(base)
	withCkpt := base
	withCkpt.Recovery = &cluster.RecoveryPolicy{CheckpointEverySec: 20}
	resumed := Run(withCkpt)
	if !scratch.Completed || !resumed.Completed {
		t.Fatal("runs did not complete")
	}
	if resumed.Makespan >= scratch.Makespan {
		t.Fatalf("checkpointing did not shorten recovery: %v vs %v",
			resumed.Makespan, scratch.Makespan)
	}
	if resumed.Requeued == 0 {
		t.Fatal("no jobs were requeued despite the crash")
	}
}

// Two workers crashing at the same instant fail in script order on every
// run, so the survivors' reschedule order — and with it every job record
// and the span log — is reproducible. (A map-keyed crash schedule could
// not promise that: Go randomizes map iteration.)
func TestSimultaneousCrashesAreDeterministic(t *testing.T) {
	run := func() (*Result, []telemetry.Span) {
		tr := telemetry.NewTracer(0)
		res := Run(Spec{
			Name:                   "double-crash",
			NewPolicy:              FlowConPolicy(0.05, 20),
			Submissions:            workload.RandomN(9, 11),
			Workers:                3,
			MaxContainersPerWorker: 4,
			Faults: &faults.Plan{Script: []faults.ScriptedFault{
				{At: 100, Kind: faults.KindCrash, Worker: 1},
				{At: 100, Kind: faults.KindCrash, Worker: 0},
			}},
			Tracer: tr,
		})
		spans := tr.Spans(res.Name)
		for i := range spans {
			spans[i].Wall = "" // host clock, not part of the contract
		}
		return res, spans
	}
	want, wantSpans := run()
	if !want.Completed || want.Requeued < 2 {
		t.Fatalf("test premise broken: completed=%v requeued=%d (both crashed workers should lose jobs)",
			want.Completed, want.Requeued)
	}
	for i := 1; i < 20; i++ {
		got, gotSpans := run()
		if !reflect.DeepEqual(got.Jobs, want.Jobs) {
			t.Fatalf("run %d: job records diverged:\n%+v\nvs\n%+v", i, got.Jobs, want.Jobs)
		}
		if !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Fatalf("run %d: span log diverged", i)
		}
	}
}
