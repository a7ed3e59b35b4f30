// Quickstart: run the paper's fixed three-job schedule under FlowCon and
// under plain Docker fair sharing (NA), and compare completion times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	subs := repro.FixedSchedule()

	fc := repro.Run(repro.Spec{
		Name:        "quickstart-flowcon",
		NewPolicy:   repro.FlowConPolicy(0.05, 20), // α=5%, itval=20s
		Submissions: subs,
		// The CPU-trace chart below re-plots raw samples, which only the
		// dense tier samples and retains.
		TraceLevel: repro.TierDense,
	})
	na := repro.Run(repro.Spec{
		Name:        "quickstart-na",
		NewPolicy:   repro.NAPolicy(20),
		Submissions: subs,
	})

	repro.ReportPair(os.Stdout, fc, na, "FlowCon vs NA on the fixed schedule (Section 5.3)")

	fmt.Println()
	fmt.Println("How it happened — CPU shares over time under FlowCon:")
	repro.ReportCPUTrace(os.Stdout, fc, "CPU usage, FlowCon (alpha=5%, itval=20)")

	fmt.Println()
	fmt.Printf("FlowCon ran Algorithm 1 %d times and issued %d docker-update calls.\n",
		fc.AlgorithmRuns, fc.LimitUpdates)
}
