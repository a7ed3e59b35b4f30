package plot

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func line(name string, vals ...float64) Line {
	l := Line{Name: name}
	for i, v := range vals {
		l.Points = append(l.Points, metrics.Point{T: float64(i), V: v})
	}
	return l
}

func TestASCIIBasic(t *testing.T) {
	var b strings.Builder
	ASCII(&b, "title", []Line{line("up", 0, 1, 2, 3), line("down", 3, 2, 1, 0)}, 40, 8)
	out := b.String()
	if !strings.Contains(out, "title") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data glyphs")
	}
}

// A point on a cell boundary stays in its cell when its low bits move:
// 0.2 and 0.2−1e-12 render the same chart, on both axes.
func TestASCIIBoundaryIsStable(t *testing.T) {
	render := func(at float64) string {
		var b strings.Builder
		ASCII(&b, "t", []Line{{Name: "a", Points: []metrics.Point{
			{T: 0, V: 0}, {T: 1, V: 1}, {T: at, V: at},
		}}}, 21, 6)
		return b.String()
	}
	if a, b := render(0.2), render(0.2-1e-12); a != b {
		t.Fatalf("0.2 and 0.2-1e-12 land in different cells:\n%s\nvs\n%s", a, b)
	}
}

func TestASCIIEmpty(t *testing.T) {
	var b strings.Builder
	ASCII(&b, "empty", nil, 40, 8)
	if !strings.Contains(b.String(), "(no data)") {
		t.Fatalf("empty chart = %q", b.String())
	}
}

func TestASCIIConstantSeries(t *testing.T) {
	var b strings.Builder
	// Degenerate bounding box (single point, constant value) must not
	// divide by zero.
	ASCII(&b, "const", []Line{line("flat", 5)}, 40, 8)
	if !strings.Contains(b.String(), "flat") {
		t.Fatal("missing series")
	}
}

func TestASCIITooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tiny chart did not panic")
		}
	}()
	var b strings.Builder
	ASCII(&b, "x", nil, 2, 2)
}

func TestCSV(t *testing.T) {
	var b strings.Builder
	err := CSV(&b, []Line{line("a,b", 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,t,v\n") {
		t.Fatalf("missing header: %q", out)
	}
	// Commas in series names are sanitized.
	if !strings.Contains(out, "a;b,0,1") {
		t.Fatalf("bad row: %q", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want 3 lines, got %q", out)
	}
}

func TestTable(t *testing.T) {
	var b strings.Builder
	Table(&b, []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"a-much-longer-name", "22"},
	})
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	// All rows padded to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and separator widths differ:\n%s", out)
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[3], "22") {
		t.Fatalf("rows missing:\n%s", out)
	}
}
