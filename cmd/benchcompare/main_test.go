package main

import (
	"io"
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
			if got := compare(io.Discard, base, entryOf(tc.fresh)); got != tc.failed {
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
	if got := compare(&out, onlyOld, onlyNew); got != 0 {
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
