// Package plot renders experiment series as ASCII charts and CSV, so the
// CLI can show paper-shaped figures in a terminal and export data for
// external plotting.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/metrics"
)

// Line is one named series in a chart.
type Line struct {
	Name   string
	Points []metrics.Point
}

// glyphs mark successive lines in ASCII charts.
var glyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&', '$', '~'}

// ASCII renders the lines as a width×height ASCII chart with axes and a
// legend. Values are auto-scaled to the data's bounding box.
func ASCII(w io.Writer, title string, lines []Line, width, height int) {
	if width < 16 || height < 4 {
		panic("plot: chart too small")
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, l := range lines {
		for _, p := range l.Points {
			minX, maxX = math.Min(minX, p.T), math.Max(maxX, p.T)
			minY, maxY = math.Min(minY, p.V), math.Max(maxY, p.V)
		}
	}
	if minX > maxX {
		fmt.Fprintf(w, "%s\n  (no data)\n", title)
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for li, l := range lines {
		g := glyphs[li%len(glyphs)]
		for _, p := range l.Points {
			x := cell((p.T-minX)/(maxX-minX), width)
			y := cell((p.V-minY)/(maxY-minY), height)
			row := height - 1 - y
			grid[row][x] = g
		}
	}

	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%10.3g ┤%s\n", maxY, string(grid[0]))
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(w, "%10s │%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(w, "%10.3g ┤%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(w, "%10s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(w, "%11s%-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	for li, l := range lines {
		fmt.Fprintf(w, "  %c %s\n", glyphs[li%len(glyphs)], l.Name)
	}
}

// cell bins a fraction of the axis span into one of n cells. The 1e-9
// nudge keeps a value sitting on a cell boundary (a CPU share of 0.2 or
// 0.5) in one cell when its low bits move, as they do when two correct
// computations add the same terms in a different order.
func cell(frac float64, n int) int {
	return min(max(int(math.Floor(frac*float64(n-1)+1e-9)), 0), n-1)
}

// CSV writes the lines as a long-format CSV: series,t,v.
func CSV(w io.Writer, lines []Line) error {
	if _, err := fmt.Fprintln(w, "series,t,v"); err != nil {
		return err
	}
	for _, l := range lines {
		name := strings.ReplaceAll(l.Name, ",", ";")
		for _, p := range l.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, p.T, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table renders rows as an aligned text table with a header.
func Table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
