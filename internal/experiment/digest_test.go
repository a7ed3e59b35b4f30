package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// archiveDigests pins the first 8 bytes of sha256(Export().WriteJSON) for
// every sweep-sized scenario × tier × seed, keyed "scenario/tier/seed".
// They were last re-pinned for archive schema 4 (go1.24.0 linux/amd64),
// which dropped the per-job summaries and run quantiles: an archive is
// the full-precision job records, the makespan and, in the dense tier,
// the raw series. The values were computed at the schema-3 parent commit
// by encoding that shape from each run's collector, so they also show
// that no record or series moved. They must only change with a change
// that says which simulated outcome moved and why: `make parity` sees
// stdout, which prints no full-precision record; this sees every one.
var archiveDigests = map[string]string{
	"bursty/summary/1":            "b1918519d9d27034",
	"bursty/summary/2":            "1d32db89c6ce3a6f",
	"bursty/dense/1":              "9532affaea6236b2",
	"bursty/dense/2":              "b6312027e1e42710",
	"chaos-day/summary/1":         "4a23721f6d9ee238",
	"chaos-day/summary/2":         "678c8be6861109e8",
	"chaos-day/dense/1":           "a5abeed6c54e44c6",
	"chaos-day/dense/2":           "2d85c5ada07f87a6",
	"chaos-day-scratch/summary/1": "3bdd80b50e985d81",
	"chaos-day-scratch/summary/2": "4c934bf617f34433",
	"chaos-day-scratch/dense/1":   "66579ab7542a4d3c",
	"chaos-day-scratch/dense/2":   "cfaab1ec21f12190",
	"cluster-scale/summary/1":     "1fd5369e1aeddb3c",
	"cluster-scale/summary/2":     "7fbd76abb3749db5",
	"cluster-scale/dense/1":       "3ad2fdcb8b4e2674",
	"cluster-scale/dense/2":       "35ab0dd2f6f7b731",
	"diurnal/summary/1":           "81181f235a60373a",
	"diurnal/summary/2":           "552c13b28aca2f60",
	"diurnal/dense/1":             "a36c66cd89f7f381",
	"diurnal/dense/2":             "6a73394e7a912a93",
	"fixed/summary/1":             "32e797bbfe05bbe0",
	"fixed/summary/2":             "32e797bbfe05bbe0",
	"fixed/dense/1":               "789d7e64bf6b9100",
	"fixed/dense/2":               "789d7e64bf6b9100",
	"flashcrowd/summary/1":        "dc70c020cee4a47a",
	"flashcrowd/summary/2":        "df5ed36e0ccd574a",
	"flashcrowd/dense/1":          "8b24260a01bf3b1b",
	"flashcrowd/dense/2":          "5c9c879eb92a2dda",
	"hotspot/summary/1":           "3f3bbf348ac895d6",
	"hotspot/summary/2":           "085df743fc14c4ac",
	"hotspot/dense/1":             "736ccc3545bfdbd9",
	"hotspot/dense/2":             "f401fd062f16ee14",
	"hotspot-rebalance/summary/1": "b9464123e0d7db39",
	"hotspot-rebalance/summary/2": "682b6eee5bea4560",
	"hotspot-rebalance/dense/1":   "77882194c445035a",
	"hotspot-rebalance/dense/2":   "c51c30c84bef5990",
	"poisson/summary/1":           "ec8b74cb56da4e68",
	"poisson/summary/2":           "814bfc02238f9b9b",
	"poisson/dense/1":             "6652b40122913d68",
	"poisson/dense/2":             "49da254bf1f85c53",
	"production-day/summary/1":    "392628b9acbc0f25",
	"production-day/summary/2":    "a68be23dddcce1d7",
	"production-day/dense/1":      "ddb44fa7aa0ca42b",
	"production-day/dense/2":      "20d3060c426deafa",
	"rolling-drain/summary/1":     "d5780fc46d25077b",
	"rolling-drain/summary/2":     "4e1623cc41578c7e",
	"rolling-drain/dense/1":       "fbd545b18b1408e9",
	"rolling-drain/dense/2":       "242505da4a85f53e",
	"uniform5/summary/1":          "a8baf8baa8d14062",
	"uniform5/summary/2":          "6806f3abf325f94f",
	"uniform5/dense/1":            "7569ba29ca830389",
	"uniform5/dense/2":            "979b20e48c7703ff",
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
