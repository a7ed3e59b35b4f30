package flowcon

import "fmt"

// JobSnapshot is Algorithm 1's per-container input: the container's current
// list membership and its freshly measured growth efficiency. GDefined is
// false for containers that joined since the last measurement interval.
type JobSnapshot struct {
	ID       string
	List     List
	G        float64
	GDefined bool
}

// Decision is Algorithm 1's per-container output: the (possibly new) list
// and, when SetLimit is true, the soft limit to apply. Watching-list
// containers keep their current limit (Algorithm 1 line 24), expressed as
// SetLimit=false.
type Decision struct {
	ID       string
	List     List
	Limit    float64
	SetLimit bool
}

// StepResult is the outcome of one Algorithm 1 run.
type StepResult struct {
	Decisions []Decision
	// AllCompleting is true when every container sits in CL, in which
	// case limits were lifted to 1 and the caller must double the
	// interval (exponential back-off, Algorithm 1 lines 14-17).
	AllCompleting bool
}

// Step executes one run of Algorithm 1 over the given snapshots.
//
// Classification (lines 2-13): a container whose growth efficiency fell
// below α descends one stage per run (NL→WL→CL) — the two-stage descent is
// the algorithm's hysteresis against transient dips — while any container
// measuring G ≥ α returns to NL immediately. Containers without a defined
// G (new arrivals) are treated as NL with full limit, matching the paper's
// observed behaviour of granting maximum resources at launch (Figure 7).
//
// Limit planning (lines 14-26): if every container is Completing, all
// limits are lifted to 1 and free competition resumes. Otherwise each
// CL container gets G/ΣG floored at 1/(β·n); WL containers keep their
// limit; NL containers get G/ΣG.
func Step(snaps []JobSnapshot, cfg Config) StepResult {
	return stepInto(snaps, cfg.withDefaults(), &stepScratch{})
}

// stepScratch carries Step's reusable buffers. A Cycle owns one so its
// per-run hot path allocates nothing in steady state; the package-level
// Step hands out a fresh one per call, keeping its result unaliased.
type stepScratch struct {
	lists     []List
	decisions []Decision
}

// stepInto is Step with a validated cfg and caller-provided scratch. The
// returned Decisions slice aliases the scratch and is valid until its next
// use.
func stepInto(snaps []JobSnapshot, cfg Config, sc *stepScratch) StepResult {
	n := len(snaps)
	if n == 0 {
		return StepResult{AllCompleting: false}
	}

	// Lines 2-13: classification.
	if cap(sc.lists) < n {
		sc.lists = make([]List, n)
	}
	lists := sc.lists[:n]
	for i, s := range snaps {
		lists[i] = classify(s, cfg.Alpha)
	}

	allCL := true
	for _, l := range lists {
		if l != CompletingList {
			allCL = false
			break
		}
	}

	if cap(sc.decisions) < n {
		sc.decisions = make([]Decision, n)
	}
	res := StepResult{Decisions: sc.decisions[:n], AllCompleting: allCL}

	// Lines 14-17: all completing — lift every limit, caller backs off.
	if allCL {
		for i, s := range snaps {
			res.Decisions[i] = Decision{ID: s.ID, List: CompletingList, Limit: 1, SetLimit: true}
		}
		return res
	}

	// Lines 18-26: growth-proportional limits. The paper's ΣG runs over
	// all containers on the worker, so WL containers' G is included even
	// though their own limits are not recomputed.
	sumG := 0.0
	for _, s := range snaps {
		if s.GDefined {
			sumG += s.G
		}
	}
	floor := 1 / (cfg.Beta * float64(n))
	if floor > 1 {
		floor = 1
	}
	for i, s := range snaps {
		d := Decision{ID: s.ID, List: lists[i]}
		switch lists[i] {
		case WatchingList:
			// Line 24: limit remains unchanged.
			d.SetLimit = false
		case CompletingList:
			// Lines 21-22: growth share with lower bound.
			d.Limit = clampLimit(growthShare(s, sumG), cfg)
			if d.Limit < floor {
				d.Limit = floor
			}
			d.SetLimit = true
		case NewList:
			// Line 26 — except new arrivals without a measurement, which
			// receive the full limit.
			if !s.GDefined {
				d.Limit = 1
			} else {
				d.Limit = clampLimit(growthShare(s, sumG), cfg)
			}
			d.SetLimit = true
		}
		res.Decisions[i] = d
	}
	return res
}

// classify applies Algorithm 1 lines 4-13 to one container.
func classify(s JobSnapshot, alpha float64) List {
	if !s.GDefined {
		// New arrival: Algorithm 2 already placed it in NL; without a
		// measurement there is nothing to compare against α.
		return NewList
	}
	if s.G >= alpha {
		return NewList
	}
	switch s.List {
	case NewList:
		return WatchingList
	case WatchingList:
		return CompletingList
	case CompletingList:
		return CompletingList
	default:
		panic(fmt.Sprintf("flowcon: container %s in unknown list %v", s.ID, s.List))
	}
}

// growthShare returns G/ΣG with the degenerate ΣG≈0 case mapped to full
// limit (no information ⇒ free competition).
func growthShare(s JobSnapshot, sumG float64) float64 {
	if sumG <= 0 {
		return 1
	}
	return s.G / sumG
}

// clampLimit bounds a computed limit to [MinLimit, 1].
func clampLimit(l float64, cfg Config) float64 {
	if l < cfg.MinLimit {
		return cfg.MinLimit
	}
	if l > 1 {
		return 1
	}
	return l
}

// nextInterval implements the interval dynamics around Algorithm 1 on a
// validated config: on an all-Completing run the interval doubles (capped
// by MaxInterval if set); otherwise it resets to the initial value.
func (c Config) nextInterval(current float64, allCompleting bool) float64 {
	if !allCompleting {
		return c.InitialInterval
	}
	next := current * 2
	if c.MaxInterval > 0 && next > c.MaxInterval {
		next = c.MaxInterval
	}
	return next
}
