// Package dlmodel provides synthetic deep-learning training jobs whose
// evaluation functions follow calibrated convergence curves.
//
// This is the substitute for the paper's real PyTorch/TensorFlow training
// runs (Table 1). FlowCon treats training jobs as black boxes that expose an
// evaluation function E(t) — loss or accuracy — and consume CPU; it never
// looks inside the model. A job here is therefore (a) a total amount of CPU
// work (the fixed number of epochs the paper's scripts run), and (b) an
// evaluation curve E(w) over delivered CPU work w, with deterministic
// measurement noise. Both loss-decreasing and accuracy-increasing curves are
// supported because the paper's model suite (Table 1) mixes reconstruction
// loss, cross entropy, softmax accuracy, squared loss and quadratic loss.
//
// Eval scales differ per model on purpose: the paper applies one absolute
// threshold α to heterogeneous eval functions (a summed VAE reconstruction
// loss lives on a very different scale than a softmax accuracy), and the
// growth-efficiency magnitudes in Figures 13 and 14 (0.06 vs 0.7) only make
// sense with heterogeneous scales. The catalog reproduces that heterogeneity.
package dlmodel

import (
	"fmt"
	"math"
)

// Curve is a noiseless evaluation trajectory as a function of cumulative
// CPU work (in cpu-seconds at full node allocation).
type Curve interface {
	// Eval returns E(w).
	Eval(work float64) float64
}

// ExpCurve is exponential convergence: E(w) = Final + (Start-Final)·e^(−K·w).
// It models the fast geometric loss decay typical of the paper's MNIST and
// GRU jobs (Figure 1 shows GRU reaching 96.8% of its final accuracy in the
// first 14.5% of its run).
type ExpCurve struct {
	Start float64 // E(0)
	Final float64 // asymptote as w→∞
	K     float64 // convergence rate per unit work; must be > 0
}

// Eval returns E(w).
func (c ExpCurve) Eval(work float64) float64 {
	return c.Final + (c.Start-c.Final)*math.Exp(-c.K*work)
}

// LogisticCurve is S-shaped convergence:
// E(w) = Start + (Final−Start)·σ(S·(w−W0)) rebased so E(0) = Start, where
// σ is the logistic function. Its |dE/dw| rises to a peak at W0 and then
// decays — the shape behind the paper's Figure 13, where a job's growth
// efficiency climbs before falling off. Typical for accuracy metrics that
// improve slowly, accelerate, then saturate.
type LogisticCurve struct {
	Start float64
	Final float64
	W0    float64 // inflection point in work units; must be > 0
	S     float64 // steepness per work unit; must be > 0
}

// sigma is the logistic function.
func sigma(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Eval returns E(w), rebased so that E(0) equals Start exactly.
func (c LogisticCurve) Eval(work float64) float64 {
	s0 := sigma(-c.S * c.W0)
	frac := (sigma(c.S*(work-c.W0)) - s0) / (1 - s0)
	return c.Start + (c.Final-c.Start)*frac
}

// validateCurve returns an error if the curve's parameters are malformed.
// The tests are positive range tests, so a NaN parameter fails them.
func validateCurve(c Curve) error {
	switch cc := c.(type) {
	case ExpCurve:
		if !(cc.K > 0) {
			return fmt.Errorf("dlmodel: ExpCurve K=%g must be positive", cc.K)
		}
	case LogisticCurve:
		if !(cc.W0 > 0 && cc.S > 0) {
			return fmt.Errorf("dlmodel: LogisticCurve W0=%g S=%g must be positive", cc.W0, cc.S)
		}
	}
	return nil
}
