package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"
	"slices"
)

// ArchiveSchemaVersion is the current archive format version. Schema 2
// introduced the explicit schema/tier fields and the constant-memory
// summaries block. Schema 3 moved p50/p95/p99 out of the per-job
// summaries into the run-level quantiles block. Schema 4 dropped both the
// summaries and the quantiles blocks, since no collector computes them
// any more: an archive is the job records, the makespan and, from a
// dense-tier run, the raw series. Bump this only together with a
// migration note in README "Observability".
const ArchiveSchemaVersion = 4

// Archive is the serializable form of a collector's contents: job records
// plus, from a dense-tier run, the raw series keyed by job name. It lets
// experiment outputs be persisted and re-plotted without re-simulating.
type Archive struct {
	// Schema is the format version, ArchiveSchemaVersion.
	Schema int `json:"schema"`
	// Tier records which collection tier produced the archive
	// ("summary" or "dense").
	Tier string `json:"tier"`
	// Jobs are the lifecycle records, sorted by start time then name.
	Jobs []JobRecord `json:"jobs"`
	// Makespan is the total schedule length.
	Makespan float64 `json:"makespan"`
	// Series maps series kind ("cpu", "eval", "limit", "growth", "list")
	// to job name to observations. Dense tier only.
	Series map[string]map[string][]Point `json:"series,omitempty"`
}

// Export assembles an Archive from the collector's current state.
func (c *Collector) Export() Archive {
	a := Archive{
		Schema:   ArchiveSchemaVersion,
		Tier:     c.tier.String(),
		Jobs:     c.Jobs(),
		Makespan: c.Makespan(),
	}
	if c.tier != TierDense {
		return a
	}
	a.Series = make(map[string]map[string][]Point, len(kindNames))
	for k, kind := range kindNames {
		out := make(map[string][]Point, len(c.jobs))
		for name, j := range c.jobs {
			// The derived kinds are derived afresh, not cached: the
			// archive is their one reader. The stored ones are copied,
			// not compacted through Points, which would allocate every
			// point a second time.
			var pts []Point
			if k := seriesKind(k); k <= kindEval {
				pts = c.derivePoints(j, k)
			} else {
				pts = j.dense.series[k].copyPoints()
			}
			if len(pts) > 0 {
				out[name] = pts
			}
		}
		a.Series[kind] = out
	}
	return a
}

// WriteJSON writes the archive as indented JSON: the bytes a
// json.Encoder with SetIndent("", "  ") writes for it. It writes the
// top-level object itself and marshals the jobs and each (kind, job)
// series on its own, so a dense archive is never held encoded in memory
// whole. A value that cannot be encoded (a NaN) fails the write partway.
func (a Archive) WriteJSON(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("{\n")
	members := []struct {
		key string
		v   any
	}{{"schema", a.Schema}, {"tier", a.Tier}, {"jobs", a.Jobs}, {"makespan", a.Makespan}}
	for i, m := range members {
		if i > 0 {
			b.WriteString(",\n")
		}
		if err := writeMember(b, "  ", m.key, m.v); err != nil {
			return err
		}
	}
	if len(a.Series) > 0 {
		b.WriteString(",\n  \"series\": {\n")
		for i, kind := range slices.Sorted(maps.Keys(a.Series)) {
			if i > 0 {
				b.WriteString(",\n")
			}
			byJob := a.Series[kind]
			if len(byJob) == 0 { // {} or null, on one line
				if err := writeMember(b, "    ", kind, byJob); err != nil {
					return err
				}
				continue
			}
			writeKey(b, "    ", kind)
			b.WriteString("{")
			for j, name := range slices.Sorted(maps.Keys(byJob)) {
				if j > 0 {
					b.WriteString(",")
				}
				b.WriteString("\n")
				if err := writeMember(b, "      ", name, byJob[name]); err != nil {
					return err
				}
			}
			b.WriteString("\n    }")
		}
		b.WriteString("\n  }")
	}
	b.WriteString("\n}\n")
	return b.Flush()
}

// writeMember writes one object member at indent: the key, then v
// indented as if nested there.
func writeMember(b *bufio.Writer, indent, key string, v any) error {
	writeKey(b, indent, key)
	val, err := json.MarshalIndent(v, indent, "  ")
	if err != nil {
		return err
	}
	_, err = b.Write(val)
	return err
}

// writeKey writes an object member's indent and key.
func writeKey(b *bufio.Writer, indent, key string) {
	k, _ := json.Marshal(key) // a string always encodes
	b.WriteString(indent)
	b.Write(k)
	b.WriteString(": ")
}
