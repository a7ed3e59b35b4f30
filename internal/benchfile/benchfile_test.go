package benchfile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Parse reads the history schema only: the committed BENCH_sim.json loads,
// and any other schema_version — 1 included — is refused by number.
func TestParseAcceptsOnlyHistorySchema(t *testing.T) {
	rep, err := Load("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Latest(); err != nil {
		t.Fatal(err)
	}
	for doc, want := range map[string]string{
		`{"schema_version": 1, "scenario": {}}`: "unknown schema_version 1",
		`{"entries": []}`:                       "unknown schema_version 0",
		`not json`:                              "invalid character",
	} {
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) = %v, want an error mentioning %q", doc, err, want)
		}
	}
}

// Rewriting the history must not alter it: the committed document loads
// and writes back byte-identically, scenario rows of older entries
// included, and an entry appended without scenarios carries no
// "scenarios" key at all.
func TestWritePreservesHistory(t *testing.T) {
	const committed = "../../BENCH_sim.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Load(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("load+write changed %s (%d bytes -> %d)", committed, len(want), len(got))
	}

	rep.Entries = append(rep.Entries, Entry{Commit: "fresh", Benchmarks: []Benchmark{{Name: "Settle/256"}}})
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, want[:bytes.LastIndex(want, []byte("\n  ]"))]) {
		t.Fatal("appending an entry altered the earlier ones")
	}
	tail := got[bytes.Index(got, []byte(`"commit": "fresh"`)):]
	if bytes.Contains(tail, []byte(`"scenarios"`)) {
		t.Fatalf("new entry serialised a scenarios key:\n%s", tail)
	}
}
