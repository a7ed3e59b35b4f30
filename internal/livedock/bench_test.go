package livedock

import (
	"fmt"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
)

// benchNode returns a wall-clock node with n long-running catalog jobs —
// the pool a live worker holds while submissions keep arriving. VAE is the
// catalog's longest job, so the pool outlasts any benchtime.
func benchNode(b *testing.B, n int) *Node {
	b.Helper()
	node := NewNode(1.0)
	profile := dlmodel.VAEPyTorch()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("standing-%d", i)
		if _, err := node.Launch(runtime.LaunchSpec{Name: name, Workload: dlmodel.NewJob(name, profile)}); err != nil {
			b.Fatal(err)
		}
	}
	return node
}

// BenchmarkNodeLaunch measures one container arriving at, and leaving, a
// node that already runs n: Launch, then Stop and Remove, so occupancy is
// n at every launch. Each settles by the virtual clock and moves O(log n)
// heap entries; the exit's creation-order splices are what still grow
// with n. Gated at 4000 by cmd/benchcompare.
func BenchmarkNodeLaunch(b *testing.B) {
	for _, n := range []int{1, 1000, 4000} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			node := benchNode(b, n)
			job := dlmodel.NewJob("arrival", dlmodel.VAEPyTorch())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := node.Launch(runtime.LaunchSpec{Name: "arrival", Workload: job})
				if err != nil {
					b.Fatal(err)
				}
				if err := node.Stop(v.ID); err != nil {
					b.Fatal(err)
				}
				if err := node.Remove(v.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodeLookup measures the status poll behind GET /v1/jobs/{name}:
// on a wall clock every call has time to settle, so it is one advance of
// the virtual clock, a name lookup and one container materialised. Gated
// at 4000 by cmd/benchcompare.
func BenchmarkNodeLookup(b *testing.B) {
	const n = 4000
	b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
		node := benchNode(b, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := node.Lookup("standing-7"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
