package dlmodel

import "sync"

// The catalog reproduces Table 1 of the paper plus the two extra
// TensorFlow models from Figure 1 (CNN-LSTM and Logistic Regression).
//
// Calibration notes (work units are cpu-seconds at full node allocation):
//
//   - TotalWork values are fit so that the fixed-schedule experiment
//     (Section 5.3: VAE@0s, MNIST-PT@40s, MNIST-TF@80s on one node) yields
//     the paper's qualitative timeline — VAE dominates the makespan
//     (~390s), MNIST-TF is the short tail job that FlowCon accelerates by
//     ~20-40%, MNIST-PT sits in between.
//
//   - Eval values represent what the paper's container monitor actually
//     scrapes: the smoothed per-batch evaluation metric after the first
//     warm-up epoch. Real training losses fall off a cliff within the
//     first epoch — before the first measurement interval (20-60s) ever
//     sees them — so the measured trajectories start on the slow part of
//     the curve. Consequently the measured growth-efficiency magnitudes
//     across models span roughly one order (0.1 to ~2), matching the
//     ranges visible in the paper's Figures 13 (≤0.06) and 14 (≤0.7).
//     Modelling the raw cliff instead would let a freshly-started job's G
//     exceed everyone else's by 100-400x and starve mid-life jobs through
//     Algorithm 1's G/ΣG shares — behaviour the paper's testbed does not
//     exhibit.
//
//   - Rates are set so each model's growth efficiency crosses the paper's
//     α range (1%-15%) at the point in its run that reproduces the
//     paper's classification behaviour: VAE converges in the first ~20%
//     of its long run (throttled from ~60s in the fixed schedule,
//     Figure 7), MNIST-TF stays "new" for its whole short run at small α,
//     GRU collapses within its first quarter (Figure 1: 96.8% of final
//     accuracy in the first 14.5% of its time).
//
//   - Accuracy-style models (LSTM-CFC, Bi-RNN) use logistic curves whose
//     growth efficiency rises to a peak before decaying — the shape of
//     the paper's Figure 13 trace.
//
//   - LSTM-CFC's CPUDemand of 0.22 reproduces the Section 5.4 observation
//     that the job "does not maximize the CPU usage" (~19-20%).

const mb = 1 << 20

// newProfile validates and returns p (helper keeps the catalog literal
// readable while failing fast on bad parameters).
func newProfile(p Profile) Profile {
	p.Validate()
	return p
}

// VAEPyTorch is the Variational Autoencoder on PyTorch (Table 1, row 1).
// Reconstruction loss (per-batch mean BCE, post warm-up).
func VAEPyTorch() Profile {
	return newProfile(Profile{
		Name: "VAE", Framework: PyTorch,
		EvalFunction: "Reconstruction Loss", Direction: Decreasing,
		TotalWork: 260,
		Curve:     ExpCurve{Start: 107, Final: 100, K: 0.06},
		CPUDemand: 1.0, MemoryBytes: 1200 * mb,
		BlkIOPerWork: 6 * mb, NetIOPerWork: 0.2 * mb,
		NoiseAmp: 0.035,
	})
}

// VAETensorFlow is the Variational Autoencoder on TensorFlow ("VAET" in
// Section 5.4's random-schedule experiment).
func VAETensorFlow() Profile {
	return newProfile(Profile{
		Name: "VAE", Framework: TensorFlow,
		EvalFunction: "Reconstruction Loss", Direction: Decreasing,
		TotalWork: 230,
		Curve:     ExpCurve{Start: 104, Final: 97.5, K: 0.065},
		CPUDemand: 1.0, MemoryBytes: 1400 * mb,
		BlkIOPerWork: 6 * mb, NetIOPerWork: 0.2 * mb,
		NoiseAmp: 0.033,
	})
}

// MNISTPyTorch is the MNIST classifier on PyTorch (cross entropy,
// epoch-summed). Its growth efficiency stays above the α range for most of
// its run — like MNIST-TF it is a job that finishes while still growing,
// which is the profile of the paper's big FlowCon winners (up to 42%
// completion-time reduction when it arrives into a pool of converged
// long-running jobs).
func MNISTPyTorch() Profile {
	return newProfile(Profile{
		Name: "MNIST", Framework: PyTorch,
		EvalFunction: "Cross Entropy", Direction: Decreasing,
		TotalWork: 105,
		Curve:     ExpCurve{Start: 16.5, Final: 0.5, K: 0.025},
		CPUDemand: 1.0, MemoryBytes: 700 * mb,
		BlkIOPerWork: 4 * mb, NetIOPerWork: 0.1 * mb,
		NoiseAmp: 0.08,
	})
}

// MNISTTensorFlow is the MNIST classifier on TensorFlow — the short tail
// job whose completion time FlowCon cuts by up to 42.06% (Table 2). Its
// growth efficiency stays above α=3-5% for (nearly) its entire short run,
// so FlowCon keeps it in the New list while older jobs yield.
func MNISTTensorFlow() Profile {
	return newProfile(Profile{
		Name: "MNIST", Framework: TensorFlow,
		EvalFunction: "Cross Entropy", Direction: Decreasing,
		TotalWork: 28,
		Curve:     ExpCurve{Start: 11.5, Final: 0.5, K: 0.06},
		CPUDemand: 1.0, MemoryBytes: 800 * mb,
		BlkIOPerWork: 4 * mb, NetIOPerWork: 0.1 * mb,
		NoiseAmp: 0.055,
	})
}

// LSTMCFC is the Long Short-Term Memory (CFC) model on TensorFlow with a
// softmax-accuracy evaluation function (percentage scale). Its low CPU
// demand reproduces the paper's observation that the job uses only ~20% of
// the node even when alone.
func LSTMCFC() Profile {
	return newProfile(Profile{
		Name: "LSTM-CFC", Framework: TensorFlow,
		EvalFunction: "Softmax", Direction: Increasing,
		TotalWork: 90,
		Curve:     LogisticCurve{Start: 10, Final: 92, W0: 30, S: 0.05},
		CPUDemand: 0.22, MemoryBytes: 900 * mb,
		BlkIOPerWork: 2 * mb, NetIOPerWork: 0.3 * mb,
		NoiseAmp: 0.4,
	})
}

// LSTMCRF is the Long Short-Term Memory (CRF) model on PyTorch with a
// squared-loss evaluation function.
func LSTMCRF() Profile {
	return newProfile(Profile{
		Name: "LSTM-CRF", Framework: PyTorch,
		EvalFunction: "Squared Loss", Direction: Decreasing,
		TotalWork: 170,
		Curve:     ExpCurve{Start: 7.5, Final: 1.5, K: 0.035},
		CPUDemand: 0.9, MemoryBytes: 1100 * mb,
		BlkIOPerWork: 3 * mb, NetIOPerWork: 0.3 * mb,
		NoiseAmp: 0.03,
	})
}

// BiRNN is the Bidirectional-RNN on TensorFlow (softmax accuracy,
// percentage scale, S-shaped progress).
func BiRNN() Profile {
	return newProfile(Profile{
		Name: "Bidirectional-RNN", Framework: TensorFlow,
		EvalFunction: "Softmax", Direction: Increasing,
		TotalWork: 140,
		Curve:     LogisticCurve{Start: 8, Final: 88, W0: 40, S: 0.04},
		CPUDemand: 0.95, MemoryBytes: 1000 * mb,
		BlkIOPerWork: 3 * mb, NetIOPerWork: 0.4 * mb,
		NoiseAmp: 0.4,
	})
}

// GRU is the Gated Recurrent Unit on TensorFlow (quadratic loss). Figure 1
// shows it reaching 96.8% of its final accuracy in the first 14.5% of its
// run, so its curve collapses fast relative to its epoch budget.
func GRU() Profile {
	return newProfile(Profile{
		Name: "RNN-GRU", Framework: TensorFlow,
		EvalFunction: "Quadratic Loss", Direction: Decreasing,
		TotalWork: 120,
		Curve:     ExpCurve{Start: 9.8, Final: 0.8, K: 0.12},
		CPUDemand: 1.0, MemoryBytes: 950 * mb,
		BlkIOPerWork: 3 * mb, NetIOPerWork: 0.2 * mb,
		NoiseAmp: 0.045,
	})
}

// CNNLSTM is the CNN-LSTM hybrid on TensorFlow from Figure 1.
func CNNLSTM() Profile {
	return newProfile(Profile{
		Name: "CNN-Lstm", Framework: TensorFlow,
		EvalFunction: "Cross Entropy", Direction: Decreasing,
		TotalWork: 150,
		Curve:     ExpCurve{Start: 6.3, Final: 0.8, K: 0.04},
		CPUDemand: 0.9, MemoryBytes: 1300 * mb,
		BlkIOPerWork: 5 * mb, NetIOPerWork: 0.2 * mb,
		NoiseAmp: 0.028,
	})
}

// LogisticRegression is the logistic-regression baseline on TensorFlow
// from Figure 1 — small, quick to converge, quick to finish.
func LogisticRegression() Profile {
	return newProfile(Profile{
		Name: "Logistic Regression", Framework: TensorFlow,
		EvalFunction: "Cross Entropy", Direction: Decreasing,
		TotalWork: 60,
		Curve:     ExpCurve{Start: 2.0, Final: 0.25, K: 0.12},
		CPUDemand: 0.6, MemoryBytes: 300 * mb,
		BlkIOPerWork: 2 * mb, NetIOPerWork: 0.1 * mb,
		NoiseAmp: 0.01,
	})
}

// Table1 returns the six models of the paper's Table 1, in table order.
func Table1() []Profile {
	return []Profile{
		VAEPyTorch(),
		MNISTPyTorch(),
		LSTMCFC(),
		LSTMCRF(),
		BiRNN(),
		GRU(),
	}
}

// Catalog returns every model profile in the reproduction, including the
// TensorFlow VAE/MNIST variants and the two extra Figure 1 models.
func Catalog() []Profile {
	return []Profile{
		VAEPyTorch(),
		VAETensorFlow(),
		MNISTPyTorch(),
		MNISTTensorFlow(),
		LSTMCFC(),
		LSTMCRF(),
		BiRNN(),
		GRU(),
		CNNLSTM(),
		LogisticRegression(),
	}
}

// catalogByKey indexes the (immutable) catalog once; Find runs on hot
// paths — per trace line in Replay/Record, per HTTP launch in the agent.
var catalogByKey = sync.OnceValue(func() map[string]Profile {
	idx := make(map[string]Profile)
	for _, p := range Catalog() {
		idx[p.Key()] = p
	}
	return idx
})

// Find returns the catalog profile whose Key() matches, e.g.
// "MNIST (Tensorflow)", and whether it exists. Use it when the key comes
// from untrusted input (wire requests, replayed trace files).
func Find(key string) (Profile, bool) {
	p, ok := catalogByKey()[key]
	return p, ok
}
