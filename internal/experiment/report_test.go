package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// renderAll exercises every report renderer against real results; any
// panic or empty output fails.
func TestReportRenderers(t *testing.T) {
	fc, na := FixedPair()

	t.Run("pair", func(t *testing.T) {
		var sb strings.Builder
		ReportPair(&sb, fc, na, "pair title")
		out := sb.String()
		for _, want := range []string{"pair title", "makespan", "jobs improved", "VAE (Pytorch)"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in:\n%s", want, out)
			}
		}
	})

	t.Run("cpu trace", func(t *testing.T) {
		var sb strings.Builder
		ReportCPUTrace(&sb, fc, "trace title")
		out := sb.String()
		if !strings.Contains(out, "trace title") || !strings.Contains(out, "MNIST (Tensorflow)") {
			t.Fatalf("bad trace output:\n%s", out)
		}
	})

	t.Run("table1", func(t *testing.T) {
		var sb strings.Builder
		ReportTable1(&sb)
		out := sb.String()
		for _, model := range []string{"VAE", "LSTM-CFC", "RNN-GRU"} {
			if !strings.Contains(out, model) {
				t.Fatalf("table1 missing %s:\n%s", model, out)
			}
		}
	})

	t.Run("sweep", func(t *testing.T) {
		sw := runSweep("sweep title", workload.FixedSchedule(), []Setting{
			{Alpha: 0.05, Itval: 20},
			{NA: true},
		})
		var sb strings.Builder
		ReportSweep(&sb, sw)
		out := sb.String()
		if !strings.Contains(out, "sweep title") || !strings.Contains(out, "5%,20") || !strings.Contains(out, "NA") {
			t.Fatalf("bad sweep output:\n%s", out)
		}
		if !strings.Contains(out, "makespan") {
			t.Fatalf("sweep missing makespan row:\n%s", out)
		}
	})

	t.Run("table2", func(t *testing.T) {
		rows := []Table2Row{
			{Setting: Setting{Alpha: 0.10, Itval: 20}, Reduction: 0.262},
		}
		var sb strings.Builder
		ReportTable2(&sb, rows)
		out := sb.String()
		if !strings.Contains(out, "26.2%") || !strings.Contains(out, "10%,20") {
			t.Fatalf("bad table2 output:\n%s", out)
		}
	})

	t.Run("growth", func(t *testing.T) {
		fc10, na10 := TenJobPair()
		var sb strings.Builder
		ReportGrowth(&sb, fc10, na10, "Job-6", "growth title")
		out := sb.String()
		if !strings.Contains(out, "growth title") || !strings.Contains(out, "FlowCon-Job-6") {
			t.Fatalf("bad growth output:\n%s", out)
		}
	})

	t.Run("fig1", func(t *testing.T) {
		var sb strings.Builder
		ReportFig1(&sb, Fig1())
		out := sb.String()
		if !strings.Contains(out, "RNN-GRU (Tensorflow)") {
			t.Fatalf("bad fig1 output:\n%s", out)
		}
	})
}

// Exported archives from a full experiment round-trip losslessly.
func TestResultArchiveRoundTrip(t *testing.T) {
	fc, _ := FixedPair()
	a := fc.Collector.Export()
	if len(a.Jobs) != 3 {
		t.Fatalf("archive jobs = %d", len(a.Jobs))
	}
	var sb strings.Builder
	if err := a.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back metrics.Archive
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Jobs, a.Jobs) {
		t.Fatalf("round-trip jobs = %+v", back.Jobs)
	}
	// The archived growth series matches the live one.
	live := fc.Collector.GrowthSeries("VAE (Pytorch)").Points()
	if archived := back.Series["growth"]["VAE (Pytorch)"]; !reflect.DeepEqual(archived, live) {
		t.Fatalf("growth series %d vs %d points", len(archived), len(live))
	}
}
