// Command benchcompare gates benchmark regressions: it diffs two
// BENCH_sim.json documents and fails when any curated key benchmark
// regressed by more than the threshold.
//
// Usage:
//
//	benchcompare -old BENCH_sim.json -new fresh.json [-threshold 25] [-keys a,b,...]
//
// Both files are schema-2 history documents (see internal/benchfile); the
// latest entry of each is compared. Only the curated key list is gated —
// the full ladder is noisy at smoke benchtimes, while the keys below are
// the O(n)-per-op hot paths whose regressions compound at cluster scale.
// A key missing from either side is reported but does not fail the gate
// (benchmark sets evolve across PRs).
//
// ns/op comparisons are only meaningful when both documents were recorded
// on the same machine. The committed BENCH_sim.json baseline comes from a
// developer box, so CI does not compare against it directly — the
// benchmark-smoke job regenerates both the merge-base's numbers and the
// head's numbers on the same runner and compares those (see the workflow).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchfile"
)

// defaultKeys are the gated hot paths: the per-event engine cost, the
// daemon's settle/reallocate ladder top, one Algorithm 1 plan applied by
// the daemon (128 updates, one fill), one full Algorithm 1 cycle, the
// migration round trip, one metrics sampler pass (the observer, which
// runs every sampling period on every node), and one arrival on a live
// node already running 4000 containers (the /v1/jobs submit path) — the
// benchmarks the ROADMAP's perf baseline tracks across PRs.
var defaultKeys = []string{
	"ScheduleCancel/256",
	"Settle/256",
	"Reallocate/256",
	"PlanApply/256",
	"Algorithm1/256",
	"CheckpointRestore/256",
	"Migrate/256",
	"SamplerPass/256",
	"NodeLaunch/4000",
}

func nsByName(e benchfile.Entry) map[string]float64 {
	m := make(map[string]float64, len(e.Benchmarks))
	for _, b := range e.Benchmarks {
		m[b.Name] = b.NsPerOp
	}
	return m
}

func main() {
	oldPath := flag.String("old", "BENCH_sim.json", "baseline document")
	newPath := flag.String("new", "", "freshly generated document (required)")
	threshold := flag.Float64("threshold", 25, "max allowed ns/op regression in percent")
	keysFlag := flag.String("keys", "", "comma-separated key benchmarks (default: curated hot-path list)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -new is required")
		os.Exit(2)
	}
	if *threshold <= 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: -threshold must be positive")
		os.Exit(2)
	}
	keys := defaultKeys
	if *keysFlag != "" {
		keys = nil
		for _, k := range strings.Split(*keysFlag, ",") {
			if k = strings.TrimSpace(k); k != "" {
				keys = append(keys, k)
			}
		}
	}

	oldE, err := loadLatest(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	newE, err := loadLatest(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	oldNs, newNs := nsByName(oldE), nsByName(newE)

	fmt.Printf("comparing %s (baseline %s) vs %s (%s), threshold +%.0f%%\n",
		*oldPath, oldE.Commit, *newPath, newE.Commit, *threshold)
	failed := 0
	for _, k := range keys {
		o, okO := oldNs[k]
		n, okN := newNs[k]
		switch {
		case !okO || !okN:
			fmt.Printf("  %-24s skipped (missing from %s)\n", k, missingSide(okO, okN))
		case o <= 0:
			fmt.Printf("  %-24s skipped (baseline 0 ns/op)\n", k)
		default:
			delta := (n - o) / o * 100
			verdict := "ok"
			if delta > *threshold {
				verdict = "REGRESSED"
				failed++
			}
			fmt.Printf("  %-24s %10.1f -> %10.1f ns/op  %+6.1f%%  %s\n", k, o, n, delta, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d key benchmark(s) regressed more than %.0f%%\n", failed, *threshold)
		os.Exit(1)
	}
	fmt.Println("no key benchmark regressed beyond the threshold")
}

func loadLatest(path string) (benchfile.Entry, error) {
	rep, err := benchfile.Load(path)
	if err != nil {
		return benchfile.Entry{}, err
	}
	return rep.Latest()
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
