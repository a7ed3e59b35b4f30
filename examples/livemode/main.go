// Livemode runs FlowCon as live middleware inside one process, wired as
// cmd/flowcon-worker wires it: the simulator's flowcon.Controller, on an
// engine realtime.Pacer advances with the wall clock, governs a
// wall-clock runtime hosting time-scaled training jobs.
//
// The demo compresses the fixed schedule 20x (VAE at t=0, MNIST-PT at 2s,
// MNIST-TF at 4s; itval=1s) so it finishes in ~25 seconds of wall time,
// printing every Algorithm 1 run and, every two seconds, the pool.
//
//	go run ./examples/livemode
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/sim"
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

// tracerFunc adapts a function to flowcon.Tracer.
type tracerFunc func(flowcon.TraceEntry)

func (f tracerFunc) RecordRun(e flowcon.TraceEntry) { f(e) }

func main() {
	const speedup = 20.0
	node := livedock.NewNode(1.0)
	engine := sim.NewEngine()
	pacer := realtime.NewPacer(engine)
	// Each Algorithm 1 run prints on the pacer's goroutine; the node,
	// which is safe for concurrent use, names the containers.
	printRun := tracerFunc(func(e flowcon.TraceEntry) {
		names := map[string]string{}
		for _, c := range node.PS(true) {
			names[c.ID] = c.Name
		}
		fmt.Printf("%6.1fs  algorithm 1 (%s):", float64(e.At), e.Trigger)
		for _, c := range e.Containers {
			fmt.Printf(" [%s %s lim=%.2f]", names[c.ID], c.List, c.Limit)
		}
		fmt.Println()
	})
	ctrl := flowcon.NewController(repro.FlowConConfig{
		Alpha:           0.05,
		Beta:            2,
		InitialInterval: 20 / speedup, // 1s of wall time
	}, engine, node, printRun)
	realtime.Listen(node, ctrl, pacer.Post)
	ctrl.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go pacer.Run(ctx)

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
				fmt.Printf("[%s %s lim=%.2f alloc=%.2f cpu=%.1fs] ", c.Name, c.State, c.CPULimit, c.CPUAlloc, c.CPUSeconds)
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
