package sim

import (
	"fmt"
	"testing"
)

// poolSizes is the container-pool ladder the perf trajectory is measured
// on: per-op cost should grow ~logarithmically (heap ops), never linearly.
var poolSizes = []int{16, 64, 256}

// BenchmarkScheduleCancel measures the schedule+cancel round trip against
// a standing queue of n events — the reschedule pattern the daemon's
// completion event and the controller's executor tick hit on every pool
// change. With eager cancellation the queue stays at size n instead of
// silting up with tombstones.
func BenchmarkScheduleCancel(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.At(Time(i+1), PriorityState, "pad", func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.At(Time(n+2), PriorityState, "churn", func() {})
				ev.Cancel()
			}
			if e.Len() != n {
				b.Fatalf("queue silted up: Len = %d, want %d", e.Len(), n)
			}
		})
	}
}

// BenchmarkPeek measures the head read; after eager cancellation it is a
// constant-time slice access regardless of queue size.
func BenchmarkPeek(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.At(Time(i+1), PriorityState, "pad", func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Peek(); !ok {
					b.Fatal("empty queue")
				}
			}
		})
	}
}
