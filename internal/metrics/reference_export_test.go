package metrics

import "testing"

// Reference exposes the transcribed sampler (refCollector) to the
// external test package, which runs the experiment scenarios.
type Reference struct{ r *refCollector }

// NewReference returns a reference sampler over the collector's job
// bindings, attached to no worker yet.
func NewReference(c *Collector) *Reference { return &Reference{newRefCollector(c)} }

// AttachNew attaches the reference to every worker the collector has
// attached since the last call. Call it right after AttachWorker.
func (r *Reference) AttachNew() {
	for _, w := range r.r.c.workers[len(r.r.samplers):] {
		r.r.attach(w.daemon)
	}
}

// Check requires the collector's derived series to equal the
// reference's bit for bit; Samples is how many CPU samples it took.
func (r *Reference) Check(tb testing.TB) { r.r.check(tb) }
func (r *Reference) Samples() int        { return r.r.samples() }
