package realtime

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// lump is a workload of total cpu-seconds at a demand of one core.
type lump struct{ work, total float64 }

func (l *lump) Advance(cpu float64) { l.work = min(l.work+cpu, l.total) }
func (l *lump) CPUDemand() float64 {
	if l.Done() {
		return 0
	}
	return 1
}
func (l *lump) Done() bool               { return l.work >= l.total }
func (l *lump) Remaining() float64       { return l.total - l.work }
func (l *lump) Work() float64            { return l.work }
func (l *lump) EvalAt(w float64) float64 { return l.total - w }

// runLog records each Algorithm 1 run as "trigger@time".
type runLog []string

func (r *runLog) RecordRun(e flowcon.TraceEntry) {
	*r = append(*r, fmt.Sprintf("%s@%g", e.Trigger, float64(e.At)))
}

// drive runs p on clk up to until the way Run would, with no lateness:
// the clock moves to each wake the pacer asks for.
func drive(p *Pacer, clk *fakeClock, until time.Time) {
	for next := p.Step(); !next.After(until); next = p.Step() {
		if next.After(clk.Now()) {
			clk.Set(next)
		}
	}
	clk.Set(until)
	p.Step()
}

// A job that finishes with nothing reading the node retires at its
// finish, charged exactly its work, because the pacer wakes at the
// node's next exit; its departure run happens at that instant. A finish
// just before a due tick is one Algorithm 1 run: the departure
// reschedules the tick, as a simulated exit does.
func TestExitRetiresAtItsFinish(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish float64
	}{
		{"between ticks", 7.5},
		{"just before a tick", 19.999},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p, node, clk := newFakePacer(eng)
			var runs runLog
			ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 20}, eng, node, &runs)
			p.Listen(ctrl)
			ctrl.Start()
			if _, err := node.Launch(runtime.LaunchSpec{Name: "job", Workload: &lump{total: tc.finish}}); err != nil {
				t.Fatal(err)
			}
			drive(p, clk, at(p, 25))

			v, err := node.Lookup("job")
			if err != nil {
				t.Fatal(err)
			}
			if v.State != runtime.Exited || !v.Done {
				t.Fatalf("job %s (done %v) at 25 s, want exited and done", v.State, v.Done)
			}
			if math.Abs(v.FinishedAt-tc.finish) > 1e-9 || math.Abs(v.CPUSeconds-tc.finish) > 1e-9 {
				t.Fatalf("job finished at %v with %v cpu-seconds, want both %v", v.FinishedAt, v.CPUSeconds, tc.finish)
			}
			want := fmt.Sprint([]string{"arrival@0", fmt.Sprintf("departure@%g", tc.finish)})
			if got := fmt.Sprint(runs); got != want {
				t.Fatalf("Algorithm 1 runs %s, want %s", got, want)
			}
			if late := p.Lateness(); late != 0 {
				t.Fatalf("a wake on the exact instant recorded lateness %v", late)
			}
		})
	}
}
