package metrics

import (
	"bytes"
	"reflect"
	"strings"
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
	if s := a.Summaries["cpu"]["A"]; s.Count == 0 || s.Mean <= 0 {
		t.Fatalf("cpu summary missing from dense archive: %+v", s)
	}
	if q := a.Quantiles["cpu"]; q.Count != int64(len(a.Series["cpu"]["A"])+len(a.Series["cpu"]["B"])) {
		t.Fatalf("cpu run quantiles count %d, want every job's samples", q.Count)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Makespan != a.Makespan || len(back.Jobs) != len(a.Jobs) || !reflect.DeepEqual(back.Quantiles, a.Quantiles) {
		t.Fatalf("round trip changed archive: %+v vs %+v", back, a)
	}
	// Series rebuild preserves values.
	orig := col.CPUSeries("A")
	rebuilt := back.SeriesOf("cpu", "A")
	if rebuilt.Len() != orig.Len() {
		t.Fatalf("series length changed: %d vs %d", rebuilt.Len(), orig.Len())
	}
	for i, p := range orig.Points() {
		if rebuilt.Points()[i] != p {
			t.Fatalf("point %d changed", i)
		}
	}
	names := back.JobNames()
	if len(names) != 2 || names[0] != "A" {
		t.Fatalf("JobNames = %v", names)
	}
}

func TestReadArchiveRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":              "{",
		"legacy schema":         `{"jobs":[],"series":{}}`,
		"wrong schema":          `{"schema":1,"tier":"dense","jobs":[]}`,
		"schema 2":              `{"schema":2,"tier":"summary","jobs":[],"summaries":{}}`,
		"bad tier":              `{"schema":3,"tier":"verbose","jobs":[]}`,
		"orphan series":         `{"schema":3,"tier":"dense","jobs":[],"series":{"cpu":{"ghost":[{"T":0,"V":1}]}}}`,
		"orphan summary":        `{"schema":3,"tier":"summary","jobs":[],"summaries":{"cpu":{"ghost":{"count":1}}}}`,
		"backward times":        `{"schema":3,"tier":"dense","jobs":[{"Name":"A"}],"series":{"cpu":{"A":[{"T":5,"V":1},{"T":1,"V":2}]}}}`,
		"unknown series kind":   `{"schema":3,"tier":"dense","jobs":[{"Name":"A"}],"series":{"cpus":{"A":[{"T":0,"V":1}]}}}`,
		"unknown summary kind":  `{"schema":3,"tier":"summary","jobs":[{"Name":"A"}],"summaries":{"growht":{"A":{"count":1}}}}`,
		"unknown quantile kind": `{"schema":3,"tier":"summary","jobs":[],"quantiles":{"mem":{"count":1,"p50":1,"p95":1,"p99":1}}}`,
		"empty quantiles":       `{"schema":3,"tier":"summary","jobs":[],"quantiles":{"cpu":{"count":0,"p50":0,"p95":0,"p99":0}}}`,
		"unordered quantiles":   `{"schema":3,"tier":"summary","jobs":[],"quantiles":{"cpu":{"count":5,"p50":2,"p95":1,"p99":3}}}`,
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadArchive(strings.NewReader(raw)); err == nil {
				t.Fatal("corrupt archive accepted")
			}
		})
	}
}

// TestReadArchiveSchemaError: a version mismatch names the version found,
// the version wanted and what schema 3 changed.
func TestReadArchiveSchemaError(t *testing.T) {
	_, err := ReadArchive(strings.NewReader(`{"schema":2,"tier":"summary","jobs":[]}`))
	if err == nil {
		t.Fatal("schema 2 archive accepted")
	}
	for _, want := range []string{"schema 2", "want 3", "quantiles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// FuzzReadArchive: ReadArchive never panics, and an archive it accepts
// re-encodes and re-reads equal.
func FuzzReadArchive(f *testing.F) {
	var buf bytes.Buffer
	if err := buildCollectorTier(f, TierSummary).Export().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":3,"tier":"dense","jobs":[{"Name":"A"}],"series":{"cpu":{"A":[{"T":0,"V":1},{"T":1,"V":0.5}]}},"summaries":{"cpu":{"A":{"count":2,"mean":0.75}}},"quantiles":{"cpu":{"count":2,"p50":0.5,"p95":1,"p99":1}}}`))
	f.Add([]byte(`{"schema":3,"tier":"summary","jobs":[],"series":{},"summaries":null}`))
	f.Add([]byte(`{"schema":2,"tier":"summary"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := ReadArchive(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.WriteJSON(&out); err != nil {
			t.Fatalf("accepted archive does not re-encode: %v", err)
		}
		back, err := ReadArchive(&out)
		if err != nil {
			t.Fatalf("re-encoded archive rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, a) {
			t.Fatalf("re-read archive differs:\n%+v\n%+v", back, a)
		}
	})
}

// TestSummaryArchiveRoundTrip pins the summary tier's export shape: no
// raw series, per-job moments, ordered run quantiles over every job's
// samples, and a clean round trip through WriteJSON/ReadArchive.
func TestSummaryArchiveRoundTrip(t *testing.T) {
	col := buildCollectorTier(t, TierSummary)
	if col.CPUSeries("A") != nil {
		t.Fatal("summary tier retained a dense cpu series")
	}
	a := col.Export()
	if a.Tier != "summary" || len(a.Series) != 0 {
		t.Fatalf("summary archive carries series: tier=%q series=%v", a.Tier, a.Series)
	}
	s, ok := a.Summaries["cpu"]["A"]
	if !ok || s.Count == 0 {
		t.Fatalf("cpu summary missing: %+v", s)
	}
	q := a.Quantiles["cpu"]
	if q.Count != s.Count+a.Summaries["cpu"]["B"].Count {
		t.Fatalf("cpu run quantiles count %d, want every job's samples", q.Count)
	}
	top := max(s.Max, a.Summaries["cpu"]["B"].Max)
	if q.P50 > q.P95 || q.P95 > q.P99 || top < q.P99*(1-SketchAccuracy) {
		t.Fatalf("run quantiles inconsistent: %+v, max %g", q, top)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Fatalf("summary round trip changed archive")
	}
	// The rebuildable-series accessor degrades to empty, not to a panic.
	if back.SeriesOf("cpu", "A").Len() != 0 {
		t.Fatal("summary archive rebuilt a series from nothing")
	}
}

func TestArchiveDiff(t *testing.T) {
	col := buildCollector(t)
	a := col.Export()
	b := col.Export()
	// Perturb B's completion.
	b.Jobs[0].FinishedAt += 10
	deltas := a.Diff(b)
	if len(deltas) != 2 {
		t.Fatalf("diff has %d rows", len(deltas))
	}
	var moved, still int
	for _, d := range deltas {
		switch d.Delta {
		case 0:
			still++
		case 10:
			moved++
		}
	}
	if moved != 1 || still != 1 {
		t.Fatalf("deltas = %+v", deltas)
	}
}

func TestArchiveDiffSkipsUnfinished(t *testing.T) {
	a := Archive{Jobs: []JobRecord{{Name: "x", Finished: false}}}
	b := Archive{Jobs: []JobRecord{{Name: "x", Finished: true}}}
	if got := a.Diff(b); len(got) != 0 {
		t.Fatalf("diff of unfinished jobs = %v", got)
	}
}
