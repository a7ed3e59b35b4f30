package benchfile

import (
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
