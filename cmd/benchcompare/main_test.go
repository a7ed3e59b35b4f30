package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfile"
)

// entryOf builds a history entry holding the given ns/op per benchmark.
func entryOf(ns map[string]float64) benchfile.Entry {
	var e benchfile.Entry
	for name, v := range ns {
		e.Benchmarks = append(e.Benchmarks, benchfile.Benchmark{Name: name, NsPerOp: v})
	}
	return e
}

func TestCompareGatesKeyRegressions(t *testing.T) {
	base := entryOf(map[string]float64{"Settle/256": 1000, "Reallocate/256": 2000})
	for _, tc := range []struct {
		name   string
		fresh  map[string]float64
		failed int
	}{
		{"+900% fails", map[string]float64{"Settle/256": 10000, "Reallocate/256": 2000}, 1},
		{"+10% passes", map[string]float64{"Settle/256": 1100, "Reallocate/256": 2200}, 0},
		{"at the threshold passes", map[string]float64{"Settle/256": 1250, "Reallocate/256": 2000}, 0},
		{"faster passes", map[string]float64{"Settle/256": 10, "Reallocate/256": 20}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(io.Discard, []benchfile.Entry{base}, []benchfile.Entry{entryOf(tc.fresh)}); got != tc.failed {
				t.Errorf("compare failed %d keys, want %d", got, tc.failed)
			}
		})
	}
}

// A key present on only one side — in either direction — is reported as
// skipped and never counted as a regression.
func TestCompareSkipsMissingKeys(t *testing.T) {
	onlyOld := entryOf(map[string]float64{"Settle/256": 1000})
	onlyNew := entryOf(map[string]float64{"Reallocate/256": 1e9})
	var out strings.Builder
	if got := compare(&out, []benchfile.Entry{onlyOld}, []benchfile.Entry{onlyNew}); got != 0 {
		t.Fatalf("compare failed %d keys on disjoint entries, want 0", got)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			lines[f[0]] = line
		}
	}
	for key, side := range map[string]string{
		"Settle/256":     "fresh run",
		"Reallocate/256": "baseline",
		"Algorithm1/256": "both",
	} {
		if want := "skipped (missing from " + side + ")"; !strings.HasSuffix(lines[key], want) {
			t.Errorf("%s line = %q, want it to end %q", key, lines[key], want)
		}
	}
}

// Each key gates on the median of each side's runs: one noisy run on
// either side, like a lone +26 % reading of untouched code, neither fails
// the gate nor hides a regression every other run shows.
func TestCompareGatesOnTheMedian(t *testing.T) {
	runs := func(ns ...float64) []benchfile.Entry {
		var es []benchfile.Entry
		for _, v := range ns {
			es = append(es, entryOf(map[string]float64{"Migrate/256": v}))
		}
		return es
	}
	for _, tc := range []struct {
		name       string
		base, head []benchfile.Entry
		failed     int
	}{
		{"one slow head run passes", runs(1000, 1000, 1000), runs(1000, 1300, 1010), 0},
		{"one fast base run passes", runs(1000, 700, 1000), runs(1100, 1100, 1100), 0},
		{"two slow head runs fail", runs(1000, 1000, 1000), runs(1300, 1000, 1300), 1},
		{"one run a side gates as before", runs(1000), runs(1300), 1},
		{"an even count takes the middle pair's mean", runs(1000, 1000), runs(1000, 1400), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(io.Discard, tc.base, tc.head); got != tc.failed {
				t.Errorf("compare failed %d keys, want %d", got, tc.failed)
			}
		})
	}
}

// A side's runs are the trailing entries of its latest commit; an older
// commit's entries in the same history are not among them.
func TestLoadRunsTakesTheLatestCommit(t *testing.T) {
	rep := benchfile.Report{SchemaVersion: benchfile.SchemaVersion}
	for _, commit := range []string{"aaa", "bbb", "ccc", "ccc", "ccc"} {
		e := entryOf(map[string]float64{"Settle/256": 1})
		e.Commit = commit
		rep.Entries = append(rep.Entries, e)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Commit != "ccc" || got[2].Commit != "ccc" {
		t.Fatalf("loadRuns = %d entries, want the 3 of commit ccc", len(got))
	}
}
