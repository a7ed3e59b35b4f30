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
	"errors"
	"fmt"
	"math"
)

// Curve is a noiseless evaluation trajectory as a function of cumulative
// CPU work (in cpu-seconds at full node allocation).
type Curve interface {
	// Eval returns E(w).
	Eval(work float64) float64
	// Slope returns dE/dw at w (signed; negative for loss curves).
	Slope(work float64) float64
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

// Slope returns dE/dw.
func (c ExpCurve) Slope(work float64) float64 {
	return -c.K * (c.Start - c.Final) * math.Exp(-c.K*work)
}

// PowerCurve is power-law convergence:
// E(w) = Final + (Start−Final)/(1+w/W0)^P. It has the heavier tail seen in
// large-model training (slow late-stage gains), which keeps growth
// efficiency above threshold for longer than an exponential would.
type PowerCurve struct {
	Start float64
	Final float64
	W0    float64 // knee of the curve in work units; must be > 0
	P     float64 // tail exponent; must be > 0
}

// Eval returns E(w).
func (c PowerCurve) Eval(work float64) float64 {
	return c.Final + (c.Start-c.Final)/math.Pow(1+work/c.W0, c.P)
}

// Slope returns dE/dw.
func (c PowerCurve) Slope(work float64) float64 {
	return -(c.Start - c.Final) * c.P / c.W0 / math.Pow(1+work/c.W0, c.P+1)
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

// Slope returns dE/dw.
func (c LogisticCurve) Slope(work float64) float64 {
	s0 := sigma(-c.S * c.W0)
	sg := sigma(c.S * (work - c.W0))
	return (c.Final - c.Start) * c.S * sg * (1 - sg) / (1 - s0)
}

// StagedCurve chains sub-curves over consecutive work ranges, modelling
// learning-rate drops or curriculum phases where the loss re-accelerates.
// Each stage i spans [Bounds[i-1], Bounds[i]) in work (Bounds[len-1] = +inf
// implicitly); stage curves are evaluated in stage-local work coordinates
// and offset so the overall trajectory is continuous.
type StagedCurve struct {
	Stages []Curve
	Bounds []float64 // ascending stage end boundaries; len = len(Stages)-1
}

// Eval returns E(w) with continuity across stage boundaries.
func (c StagedCurve) Eval(work float64) float64 {
	offset := 0.0
	start := 0.0
	for i, stage := range c.Stages {
		end := math.Inf(1)
		if i < len(c.Bounds) {
			end = c.Bounds[i]
		}
		if work < end || i == len(c.Stages)-1 {
			return stage.Eval(work-start) + offset
		}
		// Accumulate the offset so the next stage starts where this ends.
		offset += stage.Eval(end-start) - c.Stages[i+1].Eval(0)
		start = end
	}
	panic("dlmodel: StagedCurve with no stages")
}

// Slope returns dE/dw of the active stage.
func (c StagedCurve) Slope(work float64) float64 {
	start := 0.0
	for i, stage := range c.Stages {
		end := math.Inf(1)
		if i < len(c.Bounds) {
			end = c.Bounds[i]
		}
		if work < end || i == len(c.Stages)-1 {
			return stage.Slope(work - start)
		}
		start = end
	}
	panic("dlmodel: StagedCurve with no stages")
}

// validateCurve returns an error if the curve's parameters are malformed.
// The tests are positive range tests, so a NaN parameter fails them.
func validateCurve(c Curve) error {
	switch cc := c.(type) {
	case ExpCurve:
		if !(cc.K > 0) {
			return fmt.Errorf("dlmodel: ExpCurve K=%g must be positive", cc.K)
		}
	case PowerCurve:
		if !(cc.W0 > 0 && cc.P > 0) {
			return fmt.Errorf("dlmodel: PowerCurve W0=%g P=%g must be positive", cc.W0, cc.P)
		}
	case LogisticCurve:
		if !(cc.W0 > 0 && cc.S > 0) {
			return fmt.Errorf("dlmodel: LogisticCurve W0=%g S=%g must be positive", cc.W0, cc.S)
		}
	case StagedCurve:
		if len(cc.Stages) == 0 {
			return errors.New("dlmodel: StagedCurve needs at least one stage")
		}
		if len(cc.Bounds) != len(cc.Stages)-1 {
			return errors.New("dlmodel: StagedCurve bounds/stages mismatch")
		}
		for i := 1; i < len(cc.Bounds); i++ {
			if !(cc.Bounds[i] > cc.Bounds[i-1]) {
				return errors.New("dlmodel: StagedCurve bounds must ascend")
			}
		}
		for _, s := range cc.Stages {
			if err := validateCurve(s); err != nil {
				return err
			}
		}
	}
	return nil
}
