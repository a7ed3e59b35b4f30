package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// archiveDigests pins the first 8 bytes of sha256(Export().WriteJSON) for
// every sweep-sized scenario × tier × seed, keyed "scenario/tier/seed".
// They were last re-pinned for archive schema 3 (run-level quantiles
// replace per-job p50/p95/p99; go1.24.0 linux/amd64), with per-job
// moments, job records and dense series decoding identically from the
// schema 2 archives. They must only change with a change that says which
// simulated statistic moved and why: `make parity` sees stdout, which
// prints no archived moment or quantile; this sees every one.
var archiveDigests = map[string]string{
	"bursty/summary/1":            "68faf9dd55063cb3",
	"bursty/summary/2":            "ca03be6483f6ce71",
	"bursty/dense/1":              "669fb0c2a7c0abab",
	"bursty/dense/2":              "45e6e8a624ec7749",
	"chaos-day/summary/1":         "8ceebbaea6fef3b4",
	"chaos-day/summary/2":         "6034b7629fbcad2e",
	"chaos-day/dense/1":           "b23fb5d7277ab5fb",
	"chaos-day/dense/2":           "28386e57c7c4515b",
	"chaos-day-scratch/summary/1": "1a8fbc3099bbbead",
	"chaos-day-scratch/summary/2": "b6c6d1a56baad614",
	"chaos-day-scratch/dense/1":   "3232802f3d326ab3",
	"chaos-day-scratch/dense/2":   "dbc207ef37fccb0b",
	"cluster-scale/summary/1":     "c1b88cbbeb10010d",
	"cluster-scale/summary/2":     "c2926dc12bff522d",
	"cluster-scale/dense/1":       "45c3931cf22ac4e4",
	"cluster-scale/dense/2":       "920a20263866d291",
	"diurnal/summary/1":           "e5a8b03740de4b27",
	"diurnal/summary/2":           "6364d2a72c4be1af",
	"diurnal/dense/1":             "00341d77a4202747",
	"diurnal/dense/2":             "84be562901cfc10a",
	"fixed/summary/1":             "7490385cd43ef6cb",
	"fixed/summary/2":             "7490385cd43ef6cb",
	"fixed/dense/1":               "98368eba7303ce1d",
	"fixed/dense/2":               "98368eba7303ce1d",
	"flashcrowd/summary/1":        "4afbe22a81c88b8c",
	"flashcrowd/summary/2":        "cc5c05b31f96e93d",
	"flashcrowd/dense/1":          "a2c15fc0dfeff1e7",
	"flashcrowd/dense/2":          "4b1043b15a824e17",
	"hotspot/summary/1":           "61fec5a4c25d40a4",
	"hotspot/summary/2":           "1b85d59e070e1984",
	"hotspot/dense/1":             "7f451ad2090b51a6",
	"hotspot/dense/2":             "44453d3efe9ed9be",
	"hotspot-rebalance/summary/1": "e2e55a19d87d3a74",
	"hotspot-rebalance/summary/2": "de1d022565b3a321",
	"hotspot-rebalance/dense/1":   "fc85f514845d731f",
	"hotspot-rebalance/dense/2":   "4d9803e4c3bd1ac6",
	"poisson/summary/1":           "11227ebb9a37dc09",
	"poisson/summary/2":           "99fad17c1ab0d140",
	"poisson/dense/1":             "11dc51e332243f78",
	"poisson/dense/2":             "5e00bcdab5e79dcf",
	"production-day/summary/1":    "7a033b0beb63be87",
	"production-day/summary/2":    "c99afa0c10720b09",
	"production-day/dense/1":      "4b1aaabbc564a6fa",
	"production-day/dense/2":      "41501a45b5bd902d",
	"rolling-drain/summary/1":     "ff4d3f15fa030580",
	"rolling-drain/summary/2":     "c4d1876cd7c59f2b",
	"rolling-drain/dense/1":       "9b0f703905cba761",
	"rolling-drain/dense/2":       "b3b206d1da3005d6",
	"uniform5/summary/1":          "a933e76a3461a6e5",
	"uniform5/summary/2":          "52b2aa4e88d3632a",
	"uniform5/dense/1":            "ea8255c88bb703c6",
	"uniform5/dense/2":            "50dd1816007e8960",
}

func TestArchiveDigestsPinned(t *testing.T) {
	seeds := []int64{1, 2}
	trimmed := testing.Short() || raceEnabled
	if trimmed {
		seeds = seeds[:1]
	}
	checked := 0
	for _, sc := range Scenarios() {
		for _, tier := range []metrics.Tier{metrics.TierSummary, metrics.TierDense} {
			for _, seed := range seeds {
				key := fmt.Sprintf("%s/%s/%d", sc.Name, tier, seed)
				want, ok := archiveDigests[key]
				if !ok {
					t.Errorf("%s: no pinned digest (new scenario? add it)", key)
					continue
				}
				spec := sc.Spec(seed)
				spec.TraceLevel = tier
				res, err := RunE(spec)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				h := sha256.New()
				if err := res.Collector.Export().WriteJSON(h); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want {
					t.Errorf("%s: archive digest %s, want %s", key, got, want)
				}
				checked++
			}
		}
	}
	if !trimmed && checked != len(archiveDigests) {
		t.Errorf("checked %d archives, %d digests pinned (stale entries?)", checked, len(archiveDigests))
	}
}
