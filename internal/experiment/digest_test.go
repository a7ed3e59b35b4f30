package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// archiveDigests pins the first 8 bytes of sha256(Export().WriteJSON) for
// every sweep-sized scenario × tier × seed, keyed "scenario/tier/seed".
// They were generated at the commit before the collector and sketch were
// restructured (PR 12, go1.24.0 linux/amd64) and must only change with a
// PR that says which simulated statistic moved and why: `make parity`
// sees stdout, which prints no per-job quantile; this sees every one.
var archiveDigests = map[string]string{
	"bursty/summary/1":            "0c1e32d7d95d218a",
	"bursty/summary/2":            "7717e7e8ffab2f6b",
	"bursty/dense/1":              "3645f914138c664b",
	"bursty/dense/2":              "08494695d65b9726",
	"chaos-day/summary/1":         "30823c06d1dc5f28",
	"chaos-day/summary/2":         "b41ff6467d0029a3",
	"chaos-day/dense/1":           "85cbb1846cd5ccdb",
	"chaos-day/dense/2":           "c96d366734ae1915",
	"chaos-day-scratch/summary/1": "1659e4489d1875c9",
	"chaos-day-scratch/summary/2": "efee348be722777d",
	"chaos-day-scratch/dense/1":   "7f35c26bb69f362f",
	"chaos-day-scratch/dense/2":   "6808f1b196b9510c",
	"cluster-scale/summary/1":     "7724e1e5d64d049a",
	"cluster-scale/summary/2":     "4d1c8918a5b50054",
	"cluster-scale/dense/1":       "1e0243ea5669b5d1",
	"cluster-scale/dense/2":       "5f9437589ef962eb",
	"diurnal/summary/1":           "319034877100f3c6",
	"diurnal/summary/2":           "6e3bf1198bc0aad0",
	"diurnal/dense/1":             "5af6e18ad130c1bd",
	"diurnal/dense/2":             "776c3c694ec5da09",
	"fixed/summary/1":             "043cbd257e8cdfe6",
	"fixed/summary/2":             "043cbd257e8cdfe6",
	"fixed/dense/1":               "bbe879920ab71194",
	"fixed/dense/2":               "bbe879920ab71194",
	"flashcrowd/summary/1":        "65fe606e7246b258",
	"flashcrowd/summary/2":        "fbde02b1da3ff66a",
	"flashcrowd/dense/1":          "119d2e1527b7da46",
	"flashcrowd/dense/2":          "70a0c25aaca56e2f",
	"hotspot/summary/1":           "fa882d880c90a498",
	"hotspot/summary/2":           "1b62b3c4a3a506ea",
	"hotspot/dense/1":             "d0755f5eb2f5a0ce",
	"hotspot/dense/2":             "5a947640ad2f3121",
	"hotspot-rebalance/summary/1": "d9efeb909e40229a",
	"hotspot-rebalance/summary/2": "a072a98085df6f5d",
	"hotspot-rebalance/dense/1":   "b9c9002d45ab95ce",
	"hotspot-rebalance/dense/2":   "dcc400b5c148cfc5",
	"poisson/summary/1":           "26bcec30e4fbc23b",
	"poisson/summary/2":           "7fa1762496e21e63",
	"poisson/dense/1":             "52788ceebc55d355",
	"poisson/dense/2":             "a72210165efa5abb",
	"production-day/summary/1":    "6ac432e38e9c7927",
	"production-day/summary/2":    "10ba04f4aa28f01e",
	"production-day/dense/1":      "7b9290fb88c6eada",
	"production-day/dense/2":      "e5ddef14ebfacef7",
	"rolling-drain/summary/1":     "746d8ba5ce1f9a1d",
	"rolling-drain/summary/2":     "261380bb132868cc",
	"rolling-drain/dense/1":       "01b54a27c496ca74",
	"rolling-drain/dense/2":       "f63ebebb2bd93252",
	"uniform5/summary/1":          "3cb3bd7f1e9b32da",
	"uniform5/summary/2":          "836955151795c169",
	"uniform5/dense/1":            "13eb3cf0146a2428",
	"uniform5/dense/2":            "cf3ccafa5743e59a",
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
