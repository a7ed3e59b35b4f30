// Package workload is the scenario engine's generation layer: job-arrival
// schedules for the simulator, from the paper's evaluation workloads to
// composable arrival processes and replayable traces.
//
// Three building blocks compose into a schedule:
//
//   - an ArrivalProcess (Poisson, OnOff, Diurnal, FlashCrowd,
//     ProductionDay — or any custom implementation) draws arrival times
//     in a bounded window;
//   - a Mix draws each arrival's model from the dlmodel catalog with
//     weighted sampling;
//   - a Generator ties both to a seed and labels jobs Job-1..Job-n in
//     arrival order. Generation is a pure function of the seed, so
//     results reproduce exactly under the parallel sweep pool.
//
// Schedules reach the simulator as an ArrivalStream. A generator's
// stream draws every arrival time once, holds them sorted (8 B per
// arrival), and builds each submission only when it is pulled.
//
// RecordStream and Replay/ReplayStream serialize schedules as JSONL
// traces (one submission per line: {"job":...,"model":...,"at":...})
// that round-trip byte-identically, so generated or hand-written
// schedules can be checked in as golden files and replayed into the
// simulator.
//
// The paper's own workloads remain as direct constructors: the fixed
// three-job schedule of Section 5.3 (FixedSchedule), the five-model
// random schedule of Section 5.4 (RandomFive), and the 10/15-job
// scalability workloads of Section 5.5 (RandomN).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dlmodel"
)

// Submission is one job arrival: which model, when, and the label used in
// the paper's figures ("Job-1", "Job-2", ... in arrival order).
type Submission struct {
	Name    string
	Profile dlmodel.Profile
	At      float64
}

// FixedSchedule reproduces Section 5.3's administrator-controlled
// schedule: VAE (PyTorch) at 0s, MNIST (PyTorch) at 40s, MNIST
// (TensorFlow) at 80s.
func FixedSchedule() []Submission {
	return []Submission{
		{Name: "VAE (Pytorch)", Profile: dlmodel.VAEPyTorch(), At: 0},
		{Name: "MNIST (Pytorch)", Profile: dlmodel.MNISTPyTorch(), At: 40},
		{Name: "MNIST (Tensorflow)", Profile: dlmodel.MNISTTensorFlow(), At: 80},
	}
}

// randomFiveModels is the Section 5.4 model mix: "LSTM-CFC, VAE, VAET,
// MNIST and GRU".
func randomFiveModels() []dlmodel.Profile {
	return []dlmodel.Profile{
		dlmodel.LSTMCFC(),
		dlmodel.VAEPyTorch(),
		dlmodel.VAETensorFlow(),
		dlmodel.MNISTPyTorch(),
		dlmodel.GRU(),
	}
}

// RandomFive reproduces Section 5.4: the five models above submitted at
// uniformly random times in [0s, 200s). Jobs are renamed Job-1..Job-5 in
// arrival order, matching the paper's numbering.
func RandomFive(seed int64) []Submission {
	return randomized(randomFiveModels(), seed)
}

// RandomN reproduces Section 5.5: n jobs drawn by cycling the full model
// catalog, submitted at uniformly random times in [0s, 200s), labelled
// Job-1..Job-n in arrival order.
func RandomN(n int, seed int64) []Submission {
	if n <= 0 {
		panic(fmt.Sprintf("workload: n=%d must be positive", n))
	}
	catalog := dlmodel.Catalog()
	profiles := make([]dlmodel.Profile, n)
	for i := 0; i < n; i++ {
		profiles[i] = catalog[i%len(catalog)]
	}
	return randomized(profiles, seed)
}

// SubmissionWindow is the arrival window used by the paper's random
// scenarios: jobs are submitted between 0s and 200s.
const SubmissionWindow = 200.0

// randomized assigns each profile a uniform arrival in the submission
// window, sorts by arrival, and labels jobs in arrival order.
func randomized(profiles []dlmodel.Profile, seed int64) []Submission {
	rng := rand.New(rand.NewSource(seed))
	subs := make([]Submission, len(profiles))
	for i, p := range profiles {
		subs[i] = Submission{Profile: p, At: rng.Float64() * SubmissionWindow}
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].At != subs[j].At {
			return subs[i].At < subs[j].At
		}
		return subs[i].Profile.Key() < subs[j].Profile.Key()
	})
	for i := range subs {
		subs[i].Name = fmt.Sprintf("Job-%d", i+1)
	}
	return subs
}

// Names returns the submission labels in order.
func Names(subs []Submission) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = s.Name
	}
	return out
}
