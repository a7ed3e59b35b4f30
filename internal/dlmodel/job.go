package dlmodel

import (
	"errors"
	"fmt"
	"math"
)

// Framework is the DL platform a model runs on, as listed in Table 1.
type Framework string

// Frameworks used by the paper's model suite.
const (
	PyTorch    Framework = "Pytorch"
	TensorFlow Framework = "Tensorflow"
)

// Direction says whether a model's evaluation function improves by
// decreasing (losses) or increasing (accuracies, inception scores).
type Direction int

const (
	// Decreasing evaluation functions (reconstruction loss, cross
	// entropy, squared loss, quadratic loss).
	Decreasing Direction = iota
	// Increasing evaluation functions (softmax accuracy, inception score).
	Increasing
)

// Profile is the static description of one trainable model: how much CPU
// work its fixed epoch budget costs, how its evaluation function converges,
// and its resource footprint. Profiles are immutable; Jobs are instances.
type Profile struct {
	// Name is the model name as the paper uses it, e.g. "VAE", "MNIST".
	Name string
	// Framework is the platform (PyTorch or TensorFlow).
	Framework Framework
	// EvalFunction is the evaluation function name from Table 1.
	EvalFunction string
	// Direction is whether EvalFunction improves downward or upward.
	Direction Direction
	// TotalWork is the CPU work (cpu-seconds at full node allocation)
	// needed to finish the job's fixed epoch budget.
	TotalWork float64
	// Curve is the noiseless evaluation trajectory over work.
	Curve Curve
	// CPUDemand is the largest CPU fraction the job can consume (< 1 for
	// jobs like LSTM-CFC that the paper observed not maximizing CPU).
	CPUDemand float64
	// MemoryBytes is the resident footprint while training.
	MemoryBytes float64
	// BlkIOPerWork and NetIOPerWork are bytes of block/network I/O
	// generated per unit of CPU work (data loading, checkpointing).
	BlkIOPerWork float64
	NetIOPerWork float64
	// NoiseAmp is the measurement-noise amplitude in eval units.
	NoiseAmp float64
}

// Check reports how the profile is malformed, or nil. The framework must
// be one of the paper's two, spelled as the constants are. Every numeric
// test is a positive range test, so NaN fails it. Profiles are user
// input to the experiment runner, which calls Check to turn a bad one
// into an error instead of a panic mid-run.
func (p Profile) Check() error {
	if p.Name == "" {
		return errors.New("dlmodel: profile with empty name")
	}
	if p.Framework != PyTorch && p.Framework != TensorFlow {
		return fmt.Errorf("dlmodel: profile %s has unknown framework %q", p.Name, p.Framework)
	}
	if !(p.TotalWork > 0 && p.TotalWork <= math.MaxFloat64) {
		return fmt.Errorf("dlmodel: profile %s TotalWork=%g must be positive and finite", p.Name, p.TotalWork)
	}
	if !(p.CPUDemand > 0 && p.CPUDemand <= 1) {
		return fmt.Errorf("dlmodel: profile %s CPUDemand=%g outside (0,1]", p.Name, p.CPUDemand)
	}
	if p.Curve == nil {
		return fmt.Errorf("dlmodel: profile %s has nil curve", p.Name)
	}
	if !(p.NoiseAmp >= 0 && p.NoiseAmp <= math.MaxFloat64) {
		return fmt.Errorf("dlmodel: profile %s NoiseAmp=%g must be finite and non-negative", p.Name, p.NoiseAmp)
	}
	// A NaN footprint would make the node's memory aggregate NaN and
	// silently disable memory admission there for good.
	if !(p.MemoryBytes >= 0 && p.MemoryBytes <= math.MaxFloat64) {
		return fmt.Errorf("dlmodel: profile %s MemoryBytes=%g must be finite and non-negative", p.Name, p.MemoryBytes)
	}
	return validateCurve(p.Curve)
}

// Validate panics if the profile is malformed (see Check). Catalog
// construction calls this, so a bad built-in profile fails fast at
// startup rather than mid-experiment.
func (p Profile) Validate() {
	if err := p.Check(); err != nil {
		panic(err.Error())
	}
}

// Key returns "Name (Framework)" — the label format used in the paper's
// figures, e.g. "MNIST (Tensorflow)".
func (p Profile) Key() string {
	return p.Name + " (" + string(p.Framework) + ")"
}

// Job is a running (or finished) training task instantiated from a Profile.
// Jobs are not safe for concurrent use; in the deterministic simulation all
// mutation happens on the event loop.
type Job struct {
	id      string
	profile Profile
	seed    uint64
	work    float64 // cumulative delivered CPU work
}

// NewJob instantiates a job with the given unique id. The id seeds the
// job's measurement noise, so distinct jobs of the same model decorrelate
// while reruns reproduce exactly.
func NewJob(id string, p Profile) *Job {
	return NewJobFromCheckpoint(id, p, 0)
}

// NewJobFromCheckpoint instantiates a job that resumes from a previously
// checkpointed amount of delivered work — the restore path of
// checkpoint-based failure recovery. The same id yields the same noise
// trajectory, so a restored job continues the trajectory the original
// would have followed.
func NewJobFromCheckpoint(id string, p Profile, work float64) *Job {
	p.Validate()
	if id == "" {
		panic("dlmodel: empty job id")
	}
	if work < 0 || work > p.TotalWork {
		panic(fmt.Sprintf("dlmodel: checkpoint work %g outside [0,%g]", work, p.TotalWork))
	}
	return &Job{id: id, profile: p, seed: stringSeed(id), work: work}
}

// Profile returns the job's immutable model profile.
func (j *Job) Profile() Profile { return j.profile }

// Work returns cumulative delivered CPU work in cpu-seconds.
func (j *Job) Work() float64 { return j.work }

// Remaining returns the CPU work still needed to finish the epoch budget.
func (j *Job) Remaining() float64 {
	r := j.profile.TotalWork - j.work
	if r < 0 {
		return 0
	}
	return r
}

// Done reports whether the job has finished its fixed epoch budget.
func (j *Job) Done() bool { return j.work >= j.profile.TotalWork }

// Advance delivers cpuSeconds of CPU work to the job. Work beyond the epoch
// budget is clamped (the training script exits). Negative work panics.
func (j *Job) Advance(cpuSeconds float64) {
	if cpuSeconds < 0 {
		panic(fmt.Sprintf("dlmodel: job %s advanced by negative work %g", j.id, cpuSeconds))
	}
	j.work += cpuSeconds
	if j.work > j.profile.TotalWork {
		j.work = j.profile.TotalWork
	}
}

// EvalAt returns the (noisy) evaluation value the job would report at a
// given cumulative work, without mutating the job — what the paper's
// container monitor scrapes from the training log. The simulation engine
// uses it to sample E between state changes analytically.
func (j *Job) EvalAt(work float64) float64 {
	if work > j.profile.TotalWork {
		work = j.profile.TotalWork
	}
	e := j.profile.Curve.Eval(work)
	if j.profile.NoiseAmp > 0 {
		e += j.profile.NoiseAmp * valueNoise(j.seed, work)
	}
	return e
}

// CPUDemand returns the job's instantaneous CPU demand: the profile's
// demand while running, zero once done.
func (j *Job) CPUDemand() float64 {
	if j.Done() {
		return 0
	}
	return j.profile.CPUDemand
}

// MemoryBytes returns the job's resident memory footprint while training.
func (j *Job) MemoryBytes() float64 { return j.profile.MemoryBytes }

// BlkIOPerWork returns bytes of block I/O generated per unit of CPU work.
func (j *Job) BlkIOPerWork() float64 { return j.profile.BlkIOPerWork }

// NetIOPerWork returns bytes of network I/O generated per unit of CPU work.
func (j *Job) NetIOPerWork() float64 { return j.profile.NetIOPerWork }
