// Faulttolerance runs the five-model random workload on a two-worker
// cluster, crashes one worker mid-run, and shows the manager rescheduling
// the lost jobs onto the survivor while FlowCon keeps re-balancing —
// an extension beyond the paper's single-node evaluation.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"os"

	"repro"
	"repro/internal/faults"
)

func main() {
	subs := repro.RandomFive(repro.SeedRandomFive)

	clean := repro.Run(repro.Spec{
		Name:        "two-workers",
		NewPolicy:   repro.FlowConPolicy(0.03, 30),
		Submissions: subs,
		Workers:     2,
	})
	crashed := repro.Run(repro.Spec{
		Name:        "two-workers-crash",
		NewPolicy:   repro.FlowConPolicy(0.03, 30),
		Submissions: subs,
		Workers:     2,
		// worker-0 dies at t=150s
		Faults: &faults.Plan{Script: []faults.ScriptedFault{{At: 150, Kind: faults.KindCrash, Worker: 0}}},
	})

	fmt.Println("Two FlowCon workers, five jobs; worker-0 crashes at t=150s.")
	fmt.Println()
	fmt.Printf("  %-8s %-22s %10s %10s %9s\n", "job", "model", "healthy", "crashed", "restarts")
	for _, j := range crashed.Jobs {
		h, _ := clean.Job(j.Name)
		fmt.Printf("  %-8s %-22s %10.1f %10.1f %9d\n",
			j.Name, j.Model, h.CompletionTime(), j.CompletionTime(), j.Restarts)
	}
	fmt.Println()
	fmt.Printf("  makespan: healthy %.1fs, with crash %.1fs (+%.1f%%)\n",
		clean.Makespan, crashed.Makespan,
		(crashed.Makespan-clean.Makespan)/clean.Makespan*100)
	fmt.Printf("  jobs rescheduled after the crash: %d\n", crashed.Requeued)
	fmt.Println()

	// Persist the traces for offline comparison.
	f, err := os.CreateTemp("", "flowcon-crash-*.json")
	if err == nil {
		defer f.Close()
		if err := crashed.Collector.Export().WriteJSON(f); err == nil {
			fmt.Printf("  full traces archived to %s\n", f.Name())
		}
	}
}
