package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the internal/ packages CPU samples are charged to, in report
// order. Frames of any other package of this module (the benchmark's own,
// interface-only packages such as internal/runtime) are looked through.
var layers = []string{
	"sim", "simdocker", "resource", "flowcon", "sched", "cluster", "metrics",
	"stats", "workload", "dlmodel", "experiment", "agent", "livedock",
}

// The two buckets for samples no layer owns.
const (
	layerGC      = "gc"
	layerRuntime = "runtime_other"
)

const internalPrefix = "repro/internal/"

// layerOf returns the layer a frame belongs to, or "".
func layerOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// isGCFrame reports whether a frame is the collector's own work: the
// background mark/sweep/scavenge workers, and the assist, start and
// write-barrier paths a mutator is pulled into.
func isGCFrame(frame string) bool {
	return strings.HasPrefix(frame, "runtime.gc") ||
		strings.HasPrefix(frame, "runtime.bgsweep") ||
		strings.HasPrefix(frame, "runtime.bgscavenge")
}

// chargeStack picks the bucket for one sampled stack, innermost frame
// first. GC stacks go to gc even when a layer's allocation triggered the
// assist, so GC pressure is one number. Otherwise the innermost layer
// frame owns the sample: standard-library time (map assigns, sorts,
// JSON) lands on the layer that asked for it, which is that layer's self
// time in the span sense — its duration minus its callees in other layers.
func chargeStack(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return layerGC
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return layerRuntime
}

// foldTraces reads `go tool pprof -traces` text and returns each bucket's
// share of the sampled CPU time (summing to 1) and the total in seconds.
// A well-formed listing without samples — a run shorter than the
// profiler's 10 ms tick — folds to no shares at all.
func foldTraces(r io.Reader) (shares map[string]float64, totalS float64, err error) {
	sums := make(map[string]float64)
	var (
		frames []string
		value  float64
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			sums[chargeStack(frames)] += value
			totalS += value
		}
		frames, value = nil, 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			// First line of a block: "<value><unit>   <innermost frame>".
			if len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			value, err = parseDuration(fields[0])
			if err != nil {
				return nil, 0, err
			}
			fields = fields[1:]
		}
		frames = append(frames, fields[0]) // drops a trailing "(inline)"
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if !inBody {
		return nil, 0, fmt.Errorf("pprof traces: no sample section in the listing")
	}
	shares = make(map[string]float64, len(sums))
	for k, v := range sums {
		if totalS > 0 {
			shares[k] = v / totalS
		}
	}
	return shares, totalS, nil
}

// parseDuration reads pprof's sample values ("10ms", "1.25s", "250us").
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"mins", 60}, {"min", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof traces: unreadable sample value %q", s)
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// profileShares folds a CPU profile of this executable by layer, using
// the toolchain's own pprof to symbolize and print the stacks.
func profileShares(profPath string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares, _, err := foldTraces(bytes.NewReader(out))
	return shares, err
}
