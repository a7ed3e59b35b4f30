// Command benchcompare gates microbenchmark regressions: it diffs two
// BENCH_sim.json documents and fails when any curated key benchmark
// regressed by more than threshold percent ns/op.
//
// Usage:
//
//	benchcompare -old BENCH_sim.json -new fresh.json
//
// Both files are schema-2 history documents (see internal/benchfile).
// A side's runs are its trailing entries of its latest commit, and each
// key gates on their median: `make bench-compare-base` records three
// alternated runs a side, so one noisy run cannot fail a key. Only the
// curated key list is gated —
// the full ladder is noisy at smoke benchtimes, while the keys below are
// the O(n)-per-op hot paths whose regressions compound at cluster scale.
// A key missing from either side is reported but does not fail the gate
// (benchmark sets evolve across PRs).
//
// ns/op comparisons are only meaningful when both documents were recorded
// on the same machine, so the one gate is `make bench-compare-base`: it
// records the merge base's numbers and the head's numbers on the same
// runner and compares those (scripts/bench-compare-base.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/benchfile"
)

// threshold is the largest ns/op regression, in percent, a key may show.
const threshold = 25.0

// keys are the gated hot paths: the per-event engine cost, the daemon's
// settle/reallocate ladder top, one Algorithm 1 plan applied by the
// daemon (128 updates, one fill), one full Algorithm 1 cycle, the
// migration round trip, one dense-tier rate-log step (the observer: one
// reallocation's reports for every running container, plus one tick),
// one arrival on a live node
// already running 4000 containers (the /v1/jobs submit path), one status
// poll on that node (GET /v1/jobs/{name}), and one default placement scan
// over 1000 workers (the manager's per-arrival serial step) — the
// benchmarks the ROADMAP's perf baseline tracks across PRs.
var keys = []string{
	"ScheduleCancel/256",
	"Settle/256",
	"Reallocate/256",
	"PlanApply/256",
	"Algorithm1/256",
	"CheckpointRestore/256",
	"Migrate/256",
	"RateLog/256",
	"NodeLaunch/4000",
	// A poll settles the node and reads one container: O(1) in occupancy
	// under virtual-time accounting, where it used to touch every running
	// container.
	"NodeLookup/4000",
	"LeastLoaded/1000",
}

func main() {
	oldPath := flag.String("old", "BENCH_sim.json", "baseline document")
	newPath := flag.String("new", "", "freshly generated document (required)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -new is required")
		os.Exit(2)
	}
	var sides [2][]benchfile.Entry
	for i, path := range []string{*oldPath, *newPath} {
		var err error
		if sides[i], err = loadRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare:", err)
			os.Exit(1)
		}
	}
	oldRuns, newRuns := sides[0], sides[1]
	fmt.Printf("comparing %s (baseline %s, median of %d runs) vs %s (%s, median of %d), threshold +%.0f%%\n",
		*oldPath, oldRuns[0].Commit, len(oldRuns), *newPath, newRuns[0].Commit, len(newRuns), threshold)
	if failed := compare(os.Stdout, oldRuns, newRuns); failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d key benchmark(s) regressed more than %.0f%%\n", failed, threshold)
		os.Exit(1)
	}
	fmt.Println("no key benchmark regressed beyond the threshold")
}

// compare prints one line per key and returns how many keys' median
// regressed by more than threshold percent. A key missing from every run
// of either side, or with a zero baseline, is skipped rather than failed.
func compare(w io.Writer, oldRuns, newRuns []benchfile.Entry) (failed int) {
	oldNs, newNs := medianNs(oldRuns), medianNs(newRuns)
	for _, k := range keys {
		o, okO := oldNs[k]
		n, okN := newNs[k]
		switch {
		case !okO || !okN:
			fmt.Fprintf(w, "  %-24s skipped (missing from %s)\n", k, missingSide(okO, okN))
		case o <= 0:
			fmt.Fprintf(w, "  %-24s skipped (baseline 0 ns/op)\n", k)
		default:
			delta := (n - o) / o * 100
			verdict := "ok"
			if delta > threshold {
				verdict = "REGRESSED"
				failed++
			}
			fmt.Fprintf(w, "  %-24s %10.1f -> %10.1f ns/op  %+6.1f%%  %s\n", k, o, n, delta, verdict)
		}
	}
	return failed
}

// medianNs is each benchmark's median ns/op over the runs holding it.
func medianNs(runs []benchfile.Entry) map[string]float64 {
	all := map[string][]float64{}
	for _, e := range runs {
		for _, b := range e.Benchmarks {
			all[b.Name] = append(all[b.Name], b.NsPerOp)
		}
	}
	m := make(map[string]float64, len(all))
	for name, ns := range all {
		slices.Sort(ns)
		m[name] = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
	}
	return m
}

// loadRuns returns the trailing entries of a document's latest commit.
func loadRuns(path string) ([]benchfile.Entry, error) {
	rep, err := benchfile.Load(path)
	if err != nil {
		return nil, err
	}
	latest, err := rep.Latest()
	if err != nil {
		return nil, err
	}
	var runs []benchfile.Entry
	for i := len(rep.Entries) - 1; i >= 0 && rep.Entries[i].Commit == latest.Commit; i-- {
		runs = append(runs, rep.Entries[i])
	}
	return runs, nil
}

func missingSide(okOld, okNew bool) string {
	switch {
	case !okOld && !okNew:
		return "both"
	case !okOld:
		return "baseline"
	default:
		return "fresh run"
	}
}
