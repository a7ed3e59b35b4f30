package runtime

import "testing"

// A zero State is no lifecycle phase at all, so a zero Container cannot
// pass for a running or exited one.
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{0: "unknown", Running: "running", Exited: "exited", Exited + 1: "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
