package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/flowcon"
	"repro/internal/plot"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runAblations prints the design-choice ablation table over the ten-job
// workload — the same studies the benchmark harness reports as metrics,
// in human-readable form.
func runAblations() {
	tenJobs := func(newPolicy func(flowcon.Tracer) sched.Policy) experiment.Spec {
		return experiment.Spec{
			Name:        "ablation",
			NewPolicy:   newPolicy,
			Submissions: workload.RandomN(10, experiment.SeedRandomTen),
		}
	}

	type row struct {
		name, finding string
	}
	var rows []row

	base := experiment.Run(tenJobs(experiment.FlowConPolicy(0.10, 20)))
	na := experiment.Run(tenJobs(experiment.NAPolicy(20)))
	rows = append(rows, row{"FlowCon 10%,20 (baseline)",
		fmt.Sprintf("makespan %.1fs, %d algorithm runs, %d updates", base.Makespan, base.AlgorithmRuns, base.LimitUpdates)})
	rows = append(rows, row{"NA",
		fmt.Sprintf("makespan %.1fs (FlowCon %.1f%% better)", na.Makespan, (na.Makespan-base.Makespan)/na.Makespan*100)})

	noBackoff := experiment.Run(tenJobs(experiment.FlowConPolicyNoBackoff(0.10, 20)))
	rows = append(rows, row{"no exponential back-off",
		fmt.Sprintf("%d runs vs %d — back-off saves %.0f%% of runs at equal makespan",
			noBackoff.AlgorithmRuns, base.AlgorithmRuns,
			100*(1-float64(base.AlgorithmRuns)/float64(noBackoff.AlgorithmRuns)))})

	noListeners := experiment.Run(tenJobs(experiment.FlowConPolicyNoListeners(0.10, 20)))
	rows = append(rows, row{"no Algorithm 2 listeners",
		fmt.Sprintf("makespan %.1fs; arrivals wait up to itval for resources", noListeners.Makespan)})

	for _, beta := range []float64{1, 4} {
		res := experiment.Run(tenJobs(experiment.FlowConPolicyBeta(0.10, 20, beta)))
		rows = append(rows, row{fmt.Sprintf("CL floor beta=%g", beta),
			fmt.Sprintf("makespan %.1fs", res.Makespan)})
	}

	slaq := experiment.Run(tenJobs(experiment.SLAQPolicy(20)))
	rows = append(rows, row{"SLAQ-like baseline",
		fmt.Sprintf("makespan %.1fs", slaq.Makespan)})
	ts := experiment.Run(tenJobs(experiment.TimeSlicePolicy(2, 60)))
	rows = append(rows, row{"Gandiva-style time slicing",
		fmt.Sprintf("makespan %.1fs", ts.Makespan)})

	idealSpec := tenJobs(experiment.FlowConPolicy(0.10, 20))
	idealSpec.ContentionOverhead = -1
	idealFC := experiment.Run(idealSpec)
	idealSpec = tenJobs(experiment.NAPolicy(20))
	idealSpec.ContentionOverhead = -1
	idealNA := experiment.Run(idealSpec)
	rows = append(rows, row{"ideal loss-free node",
		fmt.Sprintf("FlowCon gain %.2f%% — makespan edge needs real contention",
			(idealNA.Makespan-idealFC.Makespan)/idealNA.Makespan*100)})

	crashSpec := tenJobs(experiment.FlowConPolicy(0.10, 20))
	crashSpec.Workers = 2
	crashSpec.Faults = &faults.Plan{Script: []faults.ScriptedFault{{At: 300, Kind: faults.KindCrash, Worker: 0}}}
	crashed := experiment.Run(crashSpec)
	crashSpec.Recovery = &cluster.RecoveryPolicy{CheckpointEverySec: 30}
	resumed := experiment.Run(crashSpec)
	rows = append(rows, row{"worker crash at t=300 (2 workers)",
		fmt.Sprintf("scratch restart %.1fs vs checkpointed %.1fs (%d jobs rescheduled)",
			crashed.Makespan, resumed.Makespan, crashed.Requeued)})

	binpackSpec := tenJobs(experiment.FlowConPolicy(0.10, 20))
	binpackSpec.Workers = 2
	binpackSpec.Placement = cluster.BinPackMemory
	binpack := experiment.Run(binpackSpec)
	spreadSpec := tenJobs(experiment.FlowConPolicy(0.10, 20))
	spreadSpec.Workers = 2
	spread := experiment.Run(spreadSpec)
	rows = append(rows, row{"placement (2 workers)",
		fmt.Sprintf("spread %.1fs vs memory binpack %.1fs", spread.Makespan, binpack.Makespan)})

	fmt.Println("Ablations on the ten-job random workload (seed", experiment.SeedRandomTen, ")")
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{r.name, r.finding}
	}
	plot.Table(os.Stdout, []string{"variant", "finding"}, cells)
}
