package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable(), which under `go test` is this file's
// binary, and the child configuration in the environment routes it into
// childMain exactly as main does.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		childMain(raw)
	}
	os.Exit(m.Run())
}

func quickOptions(t *testing.T, args ...string) options {
	t.Helper()
	opts, err := parseArgs(append([]string{"-quick"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	opts.scratch = t.TempDir()
	return opts
}

// TestQuickRunsEveryWorkload drives the whole pipeline — parent, one
// re-executed child per workload, warm-up, a measured repetition, the
// traced pass with profile fold, sharded repetition and isolated drives —
// at sizes that finish in a couple of seconds.
func TestQuickRunsEveryWorkload(t *testing.T) {
	opts := quickOptions(t, "-seed", "7", "-trace")
	var out bytes.Buffer
	if code := run(opts, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	text := out.String()
	for _, w := range workloads() {
		if !strings.Contains(text, "workload "+w.name+":") {
			t.Errorf("no table for workload %s", w.name)
		}
	}
	for _, m := range endToEnd {
		if n := strings.Count(text, "\n  "+m.Name+" "); n != len(workloads()) {
			t.Errorf("end-to-end metric %s printed %d times, want once per workload", m.Name, n)
		}
	}
	if !strings.Contains(text, "nproc=") || !strings.Contains(text, "GOMAXPROCS=") || !strings.Contains(text, "seed=7") {
		t.Errorf("environment stamp incomplete: %s", strings.SplitN(text, "\n", 2)[0])
	}
	if strings.Contains(text, "DIFFERED") {
		t.Error("exact-repeat counts differed between repetitions")
	}
}

// TestContractLine checks the driver's form on one workload: argument
// spelling, and the exact shape of the last line of output, untraced and
// traced.
func TestContractLine(t *testing.T) {
	type line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		opts := quickOptions(t, "--workload", "dense-node", "--seed", "11", "--seconds", "0", "--trace", tc.trace)
		var out bytes.Buffer
		if code := run(opts, &out); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", tc.trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got line
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %s: last line is not the contract object: %v\n%s", tc.trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: verdict fields wrong in %s", tc.trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(got.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := got.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) {
				t.Errorf("trace %s: metric %s missing or malformed: %+v", tc.trace, d.Name, m)
				continue
			}
			if tc.trace == "0" && *m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %g, must never be 0", d.Name, *m.Value)
			}
		}
		if tc.trace == "1" {
			sum := 0.0
			for name, m := range got.Metrics {
				if strings.HasSuffix(name, ".cpu_share") {
					sum += *m.Value
				}
			}
			// A quick repetition can end before the profiler's first
			// 10 ms tick; then there is nothing to share out.
			if math.Abs(sum-1) > 0.02 && sum != 0 {
				t.Errorf("cpu shares sum to %g", sum)
			}
		}
	}
}

func TestParseArgs(t *testing.T) {
	opts, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.workloads) != 5 || opts.seed != 1 || opts.trace || opts.seconds != 15 {
		t.Errorf("defaults: %+v", opts)
	}
	for _, args := range [][]string{{"-trace"}, {"--trace", "1"}, {"-trace", "true"}, {"-trace=1"}} {
		if opts, err := parseArgs(args, io.Discard); err != nil || !opts.trace {
			t.Errorf("%v: trace = %v, err = %v", args, opts.trace, err)
		}
	}
	if opts, err := parseArgs([]string{"--trace", "0", "--seed", "5"}, io.Discard); err != nil || opts.trace || opts.seed != 5 {
		t.Errorf("--trace 0 --seed 5: %+v, %v", opts, err)
	}
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", ","}, {"stray"}, {"-seed", "x"}} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("%v should be rejected", args)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the driver-facing description at
// the repository root equal to what this package emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	want := workloads()
	if len(doc.Workloads) != len(want) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(want))
	}
	for i, w := range want {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name/unit", m.Name)
		}
		seen[m.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}
