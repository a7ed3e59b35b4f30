package metrics

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// seriesModel drives a Series and a plain []Point side by side, together
// with the chunk capacities the growth rule implies, and checks after
// every step that the two agree.
type seriesModel struct {
	t    testing.TB
	s    Series
	ref  []Point
	caps []int // expected capacity of each chunk
	// returned holds every slice Points handed out, with a copy of what
	// it held at the time.
	returned [][2][]Point
}

// maxModelPoints bounds a model run so per-step full checks stay cheap.
const maxModelPoints = 8192

func (m *seriesModel) lastT() float64 {
	if len(m.ref) == 0 {
		return 0
	}
	return m.ref[len(m.ref)-1].T
}

func (m *seriesModel) append(t, v float64) {
	if len(m.ref) >= maxModelPoints {
		return
	}
	m.s.Append(t, v)
	m.ref = append(m.ref, Point{T: t, V: v})
	if n := len(m.caps); n == 0 {
		m.caps = append(m.caps, firstChunk)
	} else if used := m.chunkPoints(); used < len(m.ref) {
		m.caps = append(m.caps, min(2*m.caps[n-1], maxChunk))
	}
}

// chunkPoints is the number of points the expected chunks can hold.
func (m *seriesModel) chunkPoints() int {
	n := 0
	for _, c := range m.caps {
		n += c
	}
	return n
}

func (m *seriesModel) points() {
	got := m.s.Points()
	if len(m.caps) > 1 {
		m.caps = []int{len(m.ref)}
	}
	if len(got) != len(m.ref) {
		m.t.Fatalf("Points returned %d points, want %d", len(got), len(m.ref))
	}
	for i := range got {
		if got[i] != m.ref[i] {
			m.t.Fatalf("Points()[%d] = %v, want %v", i, got[i], m.ref[i])
		}
	}
	m.returned = append(m.returned, [2][]Point{got, append([]Point(nil), got...)})
}

// backward checks that a timestamp before the last one panics and leaves
// the series as it was.
func (m *seriesModel) backward(dt float64) {
	if len(m.ref) == 0 {
		return
	}
	defer func() {
		if recover() == nil {
			m.t.Fatalf("Append(%g) after %g did not panic", m.lastT()-dt, m.lastT())
		}
	}()
	m.s.Append(m.lastT()-dt, -1)
}

// check compares the series with the reference without compacting it.
func (m *seriesModel) check() {
	if got := m.s.Len(); got != len(m.ref) {
		m.t.Fatalf("Len = %d, want %d", got, len(m.ref))
	}
	if len(m.s.chunks) != len(m.caps) {
		m.t.Fatalf("%d chunks, want %d", len(m.s.chunks), len(m.caps))
	}
	i := 0
	for k, c := range m.s.chunks {
		if cap(c) != m.caps[k] {
			m.t.Fatalf("chunk %d capacity %d, want %d", k, cap(c), m.caps[k])
		}
		for _, p := range c {
			if p != m.ref[i] {
				m.t.Fatalf("point %d = %v, want %v", i, p, m.ref[i])
			}
			i++
		}
	}
	want := int(unsafe.Sizeof(Series{})) + 16*m.chunkPoints()
	if len(m.caps) == 0 {
		want = int(unsafe.Sizeof(Series{}))
	}
	if got := m.s.MemoryBytes(); got != want {
		m.t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if len(m.ref) > 0 {
		for _, p := range []Point{m.ref[0], m.ref[len(m.ref)/2], m.ref[len(m.ref)-1]} {
			for _, q := range []float64{p.T - 0.25, p.T, p.T + 0.25} {
				if got, want := m.s.At(q), refAt(m.ref, q); got != want {
					m.t.Fatalf("At(%g) = %g, want %g", q, got, want)
				}
			}
		}
	}
}

// checkReturned verifies no slice Points returned has changed since.
func (m *seriesModel) checkReturned() {
	for n, r := range m.returned {
		for i := range r[0] {
			if r[0][i] != r[1][i] {
				m.t.Fatalf("slice %d from Points changed at %d: %v, was %v", n, i, r[0][i], r[1][i])
			}
		}
	}
}

// refAt is step interpolation over a plain slice: the value of the last
// point at or before q.
func refAt(ref []Point, q float64) float64 {
	for i := len(ref) - 1; i >= 0; i-- {
		if ref[i].T <= q {
			return ref[i].V
		}
	}
	return 0
}

// runSeriesOps interprets each byte as one step: the low 3 bits pick the
// operation and the rest is its argument.
func runSeriesOps(t testing.TB, ops []byte) {
	m := &seriesModel{t: t}
	for _, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case 0, 1, 2, 3: // one point, possibly at the last timestamp
			m.append(m.lastT()+float64(arg%3), float64(arg))
		case 4: // a run of points, to cross chunk boundaries quickly
			for i := 0; i < arg*40; i++ {
				m.append(m.lastT()+1, float64(i))
			}
		case 5:
			m.points()
		case 6:
			m.backward(float64(arg) + 0.5)
		case 7:
			m.append(m.lastT()+0.5, -float64(arg))
		}
		m.check()
	}
	m.checkReturned()
}

// TestSeriesMatchesSlice is the property test behind FuzzSeries: random
// append sequences with Points calls mixed in leave the chunked series
// equal to a plain slice at every step.
func TestSeriesMatchesSlice(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 39))
		ops := make([]byte, 256)
		for i := range ops {
			ops[i] = byte(r.UintN(256))
		}
		runSeriesOps(t, ops)
	}
}

func FuzzSeries(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xfc, 5, 0, 5, 6})
	f.Add([]byte{0xfc, 0xfc, 0x0e, 5, 0x7f, 0xfc, 5, 0x16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		runSeriesOps(t, ops)
	})
}

// TestSeriesBackwardAcrossChunk: the timestamp check reads the last point
// of the previous chunk when the last chunk is full.
func TestSeriesBackwardAcrossChunk(t *testing.T) {
	for _, n := range []int{firstChunk, firstChunk + 2*firstChunk} {
		var s Series
		for i := 0; i < n; i++ {
			s.Append(float64(i), 1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("backward timestamp after %d points did not panic", n)
				}
			}()
			s.Append(float64(n)-1.5, 1)
		}()
		s.Append(float64(n)-1, 2) // an equal timestamp is allowed
		if s.Len() != n+1 || len(s.chunks) < 2 {
			t.Errorf("after %d points: Len %d, %d chunks", n, s.Len(), len(s.chunks))
		}
	}
}

// TestSeriesAppendAllocs pins the growth rule by count: 10 000 appends
// allocate once per chunk plus once per growth of the chunk index, and
// no chunk ever moves once made, so no point is ever copied.
func TestSeriesAppendAllocs(t *testing.T) {
	const n = 10000
	var s Series
	var bases []*Point // each chunk's backing array, as first made
	indexGrowths, lastCap := 0, 0
	for i := 0; i < n; i++ {
		s.Append(float64(i), float64(i))
		if k := len(s.chunks); k > len(bases) {
			bases = append(bases, &s.chunks[k-1][0])
		}
		if c := cap(s.chunks); c != lastCap {
			indexGrowths, lastCap = indexGrowths+1, c
		}
	}
	wantCaps := []int{16, 32, 64, 128, 256, 512, 1024}
	for full := 2032; full < n; full += maxChunk {
		wantCaps = append(wantCaps, maxChunk)
	}
	if len(s.chunks) != len(wantCaps) {
		t.Fatalf("%d chunks, want %d", len(s.chunks), len(wantCaps))
	}
	for k, c := range s.chunks {
		if cap(c) != wantCaps[k] {
			t.Errorf("chunk %d capacity %d, want %d", k, cap(c), wantCaps[k])
		}
		if &c[0] != bases[k] {
			t.Errorf("chunk %d moved after it was made", k)
		}
	}
	for i, p := range s.Points() {
		if p.T != float64(i) || p.V != float64(i) {
			t.Fatalf("point %d = %v", i, p)
		}
	}

	allocs := testing.AllocsPerRun(5, func() {
		var s Series
		for i := 0; i < n; i++ {
			s.Append(float64(i), 1)
		}
	})
	if want := float64(len(wantCaps) + indexGrowths); allocs != want {
		t.Errorf("%d appends made %v allocations, want %v (%d chunks + %d index growths)",
			n, allocs, want, len(wantCaps), indexGrowths)
	}
}
