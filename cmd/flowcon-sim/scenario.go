package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/migrate"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runScenarioList prints the whole registry, heavy scenarios included.
func runScenarioList() {
	experiment.ReportScenarioList(os.Stdout, experiment.AllScenarios())
}

// resolveScenarios expands a comma-separated -scenario value into
// scenario definitions, exiting on unknown names. "all" is the sweep
// set: every registered scenario except the heavy megacluster family,
// which runs only when named explicitly.
func resolveScenarios(arg string) []experiment.Scenario {
	if strings.EqualFold(arg, "all") {
		return experiment.Scenarios()
	}
	var scens []experiment.Scenario
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, ok := experiment.ScenarioByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "flowcon-sim: unknown scenario %q (try -scenario-list)\n", name)
			os.Exit(2)
		}
		scens = append(scens, s)
	}
	if len(scens) == 0 {
		fmt.Fprintln(os.Stderr, "flowcon-sim: -scenario needs at least one name")
		os.Exit(2)
	}
	return scens
}

// runFlags holds the flag values of the -scenario and -replay modes.
// The run-shaping ones (-rebalance, -migration-cost, -trace-out) reach a
// run only through edit; -record picks what run records.
type runFlags struct {
	rebalance     bool
	migrationCost float64 // seconds; 0 = calibrated default
	traceOut      string
	record        string
}

// edit applies the run-shaping flags to one expanded Spec. It is a pure
// function of the flag values and the Spec. -migration-cost reprices the
// drains and any rebalancer; -rebalance attaches the GE-aware rebalancer
// where the scenario defines none; -trace-out gives the run its own
// tracer (specs run concurrently in sweeps, so rings must not be
// shared; tracing is a pure observer).
func (f runFlags) edit(spec *experiment.Spec) {
	cost := cluster.MigrationCost{}
	if f.migrationCost > 0 {
		cost = cluster.DefaultMigrationCost()
		cost.FreezeSec = f.migrationCost / 2
		cost.ThawSec = f.migrationCost / 2
		spec.MigrationCost = cost
		if spec.Rebalance != nil {
			// Copy before repricing: expanded Specs share the
			// registry's pointer.
			cfg := *spec.Rebalance
			cfg.Cost = cost
			spec.Rebalance = &cfg
		}
	}
	if f.rebalance && spec.Rebalance == nil {
		spec.Rebalance = &migrate.Config{Cost: cost}
	}
	if f.traceOut != "" {
		spec.Tracer = telemetry.NewTracer(0)
	}
}

// writeTraceOut exports every run's lifecycle spans into one JSONL file,
// runs in spec order, each span labeled with its run name.
func writeTraceOut(path string, outs []experiment.ScenarioOutcome) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		os.Exit(1)
	}
	spans := 0
	for _, o := range outs {
		for _, res := range o.Results() {
			if res.Tracer == nil {
				continue
			}
			if err := res.Tracer.WriteJSONL(f, res.Name); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
				os.Exit(1)
			}
			spans += res.Tracer.Len()
			if d := res.Tracer.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "flowcon-sim: %s: ring wrapped, oldest %d span(s) dropped\n", res.Name, d)
			}
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		os.Exit(1)
	}
	// Stderr, not stdout: -trace-out must leave the determinism-gated
	// scenario output untouched (make determinism compares it).
	fmt.Fprintf(os.Stderr, "wrote %d lifecycle span(s) to %s\n", spans, path)
}

// run executes the scenarios across the sweep pool, every expanded Spec
// edited by the flags, and renders the summary table. -scenario and
// -replay both run here; note, when set, is printed just before the
// table. With -record dir it first writes each (scenario, seed) schedule
// as a replayable JSONL trace, drained from a throwaway stream; the run
// pulls a fresh stream, which generates the identical sequence for the
// seed, so a trace always reproduces the run it sits next to.
// With -trace-out every run records lifecycle spans, exported as one
// JSONL file after the sweep.
func (f runFlags) run(scens []experiment.Scenario, seeds []int64, note string) {
	if f.record != "" {
		if err := os.MkdirAll(f.record, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
			os.Exit(1)
		}
		for _, s := range scens {
			for _, seed := range seeds {
				path := filepath.Join(f.record, fmt.Sprintf("%s-seed%d.jsonl", s.Name, seed))
				if err := recordStreamTrace(path, s.StreamWorkload(seed)); err != nil {
					fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("recorded %d trace(s) into %s\n", len(scens)*len(seeds), f.record)
	}
	outs, err := experiment.RunScenarios(context.Background(), scens, seeds, experiment.SweepOptions{}, f.edit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		os.Exit(1)
	}
	if note != "" {
		fmt.Println(note)
	}
	experiment.ReportScenario(os.Stdout, outs)
	if f.traceOut != "" {
		writeTraceOut(f.traceOut, outs)
	}
}

// recordStreamTrace drains an arrival stream straight into a JSONL trace
// file, one submission at a time. A stream that fails mid-way leaves no
// partial trace behind.
func recordStreamTrace(path string, s workload.ArrivalStream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := workload.RecordStream(f, s); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// replayScenario loads a recorded (or hand-written) JSONL trace as a
// one-off scenario under the default FlowCon setting, plus the note run
// prints before its table.
func replayScenario(path string, workers int) (experiment.Scenario, string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		os.Exit(1)
	}
	subs, err := workload.Replay(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		os.Exit(1)
	}
	return experiment.Scenario{
		Name:           "replay:" + filepath.Base(path),
		Description:    "replayed trace " + path,
		StreamWorkload: func(int64) workload.ArrivalStream { return workload.SliceStream(subs) },
		Workers:        workers,
	}, fmt.Sprintf("replayed %s: %d jobs", path, len(subs))
}
