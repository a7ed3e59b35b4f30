package experiment

import (
	"fmt"
	"testing"
)

// archiveDigests pins the first 8 bytes of sha256(Export().WriteJSON) for
// every sweep-sized scenario × tier × seed, keyed "scenario/tier/seed"
// (go1.24.0 linux/amd64). An archive is archive schema 4: the
// full-precision job records, the makespan and, in the dense tier, the
// raw series. They were last re-pinned when the simulated daemon stopped
// folding work at its reads and folded only where a rate changes: every
// float sum splits at fewer instants, so the low bits of every record
// and series moved once (no printed scenario table did). They must only
// change with a change that says which simulated outcome moved and why:
// `make parity` sees stdout, which prints no full-precision record; this
// sees every one. A mismatch logs the regenerated entries.
var archiveDigests = map[string]string{
	"bursty/summary/1":            "2ad1b1082a3c279b",
	"bursty/summary/2":            "15ddd57552bbc18f",
	"bursty/dense/1":              "8631d7cdea8a53de",
	"bursty/dense/2":              "51905da374377177",
	"chaos-day/summary/1":         "fd83e540cbc205ee",
	"chaos-day/summary/2":         "20f6025395b62ff5",
	"chaos-day/dense/1":           "87679100de37caad",
	"chaos-day/dense/2":           "81636dce0eb2eb2a",
	"chaos-day-scratch/summary/1": "c65c466f43e9dec6",
	"chaos-day-scratch/summary/2": "f4dc72ced3f53ee9",
	"chaos-day-scratch/dense/1":   "cf95d5e9625ed745",
	"chaos-day-scratch/dense/2":   "c7373b5e0da36ebd",
	"cluster-scale/summary/1":     "1f0445affa2d4009",
	"cluster-scale/summary/2":     "da82be2f5f14ae62",
	"cluster-scale/dense/1":       "5e8b379360ada037",
	"cluster-scale/dense/2":       "e481c35d2ddf4fab",
	"diurnal/summary/1":           "b45d1d182f07d57e",
	"diurnal/summary/2":           "c74ec97bac92c0c7",
	"diurnal/dense/1":             "f164c04bf1e9535f",
	"diurnal/dense/2":             "9c7f09eb5e7c8d25",
	"fixed/summary/1":             "deba3c5e3334ff7b",
	"fixed/summary/2":             "deba3c5e3334ff7b",
	"fixed/dense/1":               "b4bb5f7767f98726",
	"fixed/dense/2":               "b4bb5f7767f98726",
	"flashcrowd/summary/1":        "01aff49055bfd0d6",
	"flashcrowd/summary/2":        "dfa94c64f2e31fc8",
	"flashcrowd/dense/1":          "a85b3595dcf4fb08",
	"flashcrowd/dense/2":          "083580b3a05c7403",
	"hotspot/summary/1":           "6035745d608afe57",
	"hotspot/summary/2":           "340269612569f9c7",
	"hotspot/dense/1":             "037b9f6feb06542c",
	"hotspot/dense/2":             "f885dd3f777e4ddd",
	"hotspot-rebalance/summary/1": "37c9eb95be2df48d",
	"hotspot-rebalance/summary/2": "d766d714492286a8",
	"hotspot-rebalance/dense/1":   "8d765ae2ee06735a",
	"hotspot-rebalance/dense/2":   "8f3954dc65470ef9",
	"poisson/summary/1":           "4f37930995720623",
	"poisson/summary/2":           "ac4a3605e7a267c9",
	"poisson/dense/1":             "eee4c8d1ec8fdeb4",
	"poisson/dense/2":             "25d78337f56c558a",
	"production-day/summary/1":    "6e573ca6c286959d",
	"production-day/summary/2":    "252b5412fe85d09b",
	"production-day/dense/1":      "a3f2cc694e3897b0",
	"production-day/dense/2":      "b7a21e4f98aa0042",
	"rolling-drain/summary/1":     "23598ef1b8bae04f",
	"rolling-drain/summary/2":     "0b72882c3ae9bb5a",
	"rolling-drain/dense/1":       "24405a01d7b5755c",
	"rolling-drain/dense/2":       "5382be9c82a95d18",
	"uniform5/summary/1":          "f06241b28b3bf427",
	"uniform5/summary/2":          "1cfa840305429180",
	"uniform5/dense/1":            "599cb5995e004822",
	"uniform5/dense/2":            "e9e051d861b31f4e",
}

// TestArchiveDigestsPinned reads the matrix's summary cells (tier
// "summary") and its dense-every-2-s-with-spans cells (tier "dense").
func TestArchiveDigestsPinned(t *testing.T) {
	readPinTable(t, "archiveDigests", archiveDigests, func(t *testing.T, sc string, seed int64) map[string]string {
		return map[string]string{
			fmt.Sprintf("%s/summary/%d", sc, seed): matrixCell(t, sc, seed, summaryWatch).digest,
			fmt.Sprintf("%s/dense/%d", sc, seed):   matrixCell(t, sc, seed, spansWatch).digest,
		}
	})
}
