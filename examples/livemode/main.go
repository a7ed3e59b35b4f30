// Livemode runs FlowCon as live middleware inside one process: a
// wall-clock container runtime hosts time-scaled training jobs while the
// realtime driver polls, classifies, and re-balances them — the paper's
// deployment shape without the simulator (and without needing two
// terminals like cmd/flowcon-worker + cmd/flowcon-manager).
//
// The demo compresses the fixed schedule 20x (VAE at t=0, MNIST-PT at 2s,
// MNIST-TF at 4s; itval=1s) so it finishes in ~25 seconds of wall time.
//
//	go run ./examples/livemode
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/dlmodel"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
)

// scaled returns the profile with its epoch budget compressed by factor,
// so the live demo finishes quickly while keeping the same growth shape
// per second of wall time.
func scaled(p repro.Profile, factor float64) repro.Profile {
	p.TotalWork /= factor
	switch c := p.Curve.(type) {
	case repro.ExpCurve:
		c.K *= factor
		p.Curve = c
	case repro.LogisticCurve:
		c.S *= factor
		c.W0 /= factor
		p.Curve = c
	}
	return p
}

func main() {
	const speedup = 20.0
	node := livedock.NewNode(1.0)
	driver := realtime.NewDriver(repro.FlowConConfig{
		Alpha:           0.05,
		Beta:            2,
		InitialInterval: 20 / speedup, // 1s of wall time
	}, node)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go driver.Run(ctx, 100*time.Millisecond)

	launch := func(name string, p repro.Profile) {
		job := dlmodel.NewJob(name, scaled(p, speedup))
		if _, err := node.Launch(runtime.LaunchSpec{Name: name, Workload: job}); err != nil {
			fmt.Println("launch:", err)
		}
		fmt.Printf("%6.1fs  launched %s\n", time.Since(start).Seconds(), name)
	}

	go func() {
		launch("vae", repro.VAEPyTorch())
		time.Sleep(2 * time.Second)
		launch("mnist-pt", repro.MNISTPyTorch())
		time.Sleep(2 * time.Second)
		launch("mnist-tf", repro.MNISTTensorFlow())
	}()

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("done.")
			return
		case <-ticker.C:
			node.Settle()
			snap := node.PS(true)
			running := 0
			fmt.Printf("%6.1fs  ", time.Since(start).Seconds())
			for _, c := range snap {
				list := "--"
				if l, ok := driver.ListOf(c.ID); ok {
					list = l.String()
				}
				fmt.Printf("[%s %s %s lim=%.2f cpu=%.1fs] ", c.Name, c.State, list, c.CPULimit, c.CPUSeconds)
				if c.State == runtime.Running {
					running++
				}
			}
			fmt.Println()
			if len(snap) == 3 && running == 0 {
				fmt.Println("all jobs finished.")
				return
			}
		}
	}
}

var start = time.Now()
