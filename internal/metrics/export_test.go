package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// buildCollector runs a tiny two-job simulation and returns its collector.
func buildCollector(t *testing.T) *Collector {
	return buildCollectorTier(t, TierDense)
}

// buildCollectorTier is buildCollector with an explicit retention tier.
func buildCollectorTier(t testing.TB, tier Tier) *Collector {
	t.Helper()
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollectorTier(e, 1.0, tier)
	col.AttachWorker("w0", d)
	for i, p := range []dlmodel.Profile{dlmodel.MNISTTensorFlow(), dlmodel.GRU()} {
		name := []string{"A", "B"}[i]
		j := dlmodel.NewJob(name, p)
		c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: name, Workload: j})
		if err != nil {
			t.Fatal(err)
		}
		col.TrackJob(name, "w0", p.Key(), c.ID(), float64(c.StartedAt()))
	}
	d.OnExit(func(*simdocker.Container) {
		if col.AllFinished() {
			e.Stop()
		}
	})
	e.Run(10000)
	if !col.AllFinished() {
		t.Fatal("setup jobs did not finish")
	}
	return col
}

// decodeArchive writes a through WriteJSON and decodes it back.
func decodeArchive(t *testing.T, a Archive) Archive {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Archive
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	return back
}

func TestArchiveRoundTrip(t *testing.T) {
	col := buildCollector(t)
	a := col.Export()
	if len(a.Jobs) != 2 || a.Makespan <= 0 {
		t.Fatalf("archive %+v", a)
	}
	if a.Schema != ArchiveSchemaVersion || a.Tier != "dense" {
		t.Fatalf("schema/tier = %d/%q", a.Schema, a.Tier)
	}
	if len(a.Series["cpu"]["A"]) == 0 {
		t.Fatal("cpu series missing from archive")
	}
	back := decodeArchive(t, a)
	if !reflect.DeepEqual(back, a) {
		t.Fatalf("round trip changed archive: %+v vs %+v", back, a)
	}
	if !reflect.DeepEqual(back.Series["cpu"]["A"], col.CPUSeries("A").Points()) {
		t.Fatal("archived cpu series differs from the live one")
	}
}

// TestSummaryArchiveRoundTrip pins the summary tier's export shape: job
// records and makespan, no raw series, and a clean round trip through
// WriteJSON.
func TestSummaryArchiveRoundTrip(t *testing.T) {
	col := buildCollectorTier(t, TierSummary)
	if col.CPUSeries("A") != nil {
		t.Fatal("summary tier retained a dense cpu series")
	}
	a := col.Export()
	if a.Tier != "summary" || len(a.Series) != 0 {
		t.Fatalf("summary archive carries series: tier=%q series=%v", a.Tier, a.Series)
	}
	if len(a.Jobs) != 2 || !a.Jobs[0].Finished || a.Makespan <= 0 {
		t.Fatalf("summary archive records: %+v, makespan %g", a.Jobs, a.Makespan)
	}
	if back := decodeArchive(t, a); !reflect.DeepEqual(back, a) {
		t.Fatalf("summary round trip changed archive")
	}
}
