package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dlmodel"
)

// record encodes a materialized schedule as a JSONL trace.
func record(subs []Submission) ([]byte, error) {
	var buf bytes.Buffer
	_, err := RecordStream(&buf, SliceStream(subs))
	return buf.Bytes(), err
}

// record→Replay→record is byte-identical for generated schedules — the
// core guarantee that makes traces usable as golden files.
func TestTraceRoundTripByteIdentical(t *testing.T) {
	gen := Generator{Process: Poisson{Rate: 0.08, WindowSec: 200}, MinJobs: 3}
	for seed := int64(1); seed <= 10; seed++ {
		subs := schedule(t, gen, seed)
		first, err := record(subs)
		if err != nil {
			t.Fatalf("seed %d: record: %v", seed, err)
		}
		replayed, err := Replay(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if !reflect.DeepEqual(subs, replayed) {
			t.Fatalf("seed %d: replay diverged from the original schedule", seed)
		}
		second, err := record(replayed)
		if err != nil {
			t.Fatalf("seed %d: re-record: %v", seed, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d: round trip not byte-identical:\n%s\nvs\n%s", seed, first, second)
		}
	}
}

// The fixed paper schedule round-trips too (hand-writable times).
func TestTraceRoundTripFixedSchedule(t *testing.T) {
	trace, err := record(FixedSchedule())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"job":"VAE (Pytorch)","model":"VAE (Pytorch)","at":0}
{"job":"MNIST (Pytorch)","model":"MNIST (Pytorch)","at":40}
{"job":"MNIST (Tensorflow)","model":"MNIST (Tensorflow)","at":80}
`
	if string(trace) != want {
		t.Fatalf("fixed-schedule trace:\n%q\nwant\n%q", trace, want)
	}
	subs, err := Replay(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(subs, FixedSchedule()) {
		t.Fatal("replayed fixed schedule differs from the generator")
	}
}

// A hand-written trace whose arrival times run backwards silently broke
// the "Job-1..Job-n in arrival order" invariant before; now both Replay
// and ReplayStream reject it, naming the offending line.
func TestReplayRejectsOutOfOrderTrace(t *testing.T) {
	trace := `{"job":"a","model":"RNN-GRU (Tensorflow)","at":10}
{"job":"b","model":"RNN-GRU (Tensorflow)","at":25}
{"job":"c","model":"RNN-GRU (Tensorflow)","at":24.5}
`
	_, err := Replay(strings.NewReader(trace))
	if err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	for _, want := range []string{"line 3", "arrival order", "24.5", "25"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// The streaming reader yields the valid prefix, then fails with the
	// same error at the offending line.
	s := ReplayStream(strings.NewReader(trace))
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("stream yielded %d submissions before failing, want 2", n)
	}
	if serr := s.Err(); serr == nil || serr.Error() != err.Error() {
		t.Fatalf("stream error %v, want %v", serr, err)
	}
	// Equal times are fine — simultaneous submissions are legal.
	tied := `{"job":"a","model":"RNN-GRU (Tensorflow)","at":10}
{"job":"b","model":"RNN-GRU (Tensorflow)","at":10}
`
	if _, err := Replay(strings.NewReader(tied)); err != nil {
		t.Fatalf("tied arrival times rejected: %v", err)
	}
}

// RecordStream refuses to write a schedule that is not in arrival order —
// it would produce a trace Replay must reject.
func TestRecordRejectsOutOfOrderSchedule(t *testing.T) {
	gru := dlmodel.GRU()
	subs := []Submission{
		{Name: "a", Profile: gru, At: 10},
		{Name: "b", Profile: gru, At: 5},
	}
	_, err := record(subs)
	if err == nil {
		t.Fatal("out-of-order schedule accepted")
	}
	if !strings.Contains(err.Error(), "arrival order") {
		t.Fatalf("error %q does not explain the ordering rule", err)
	}
}

// ReplayStream and Replay accept the same traces with identical content,
// and RecordStream(ReplayStream) reproduces a recorded trace byte for
// byte without materializing it.
func TestStreamTraceRoundTrip(t *testing.T) {
	gen := Generator{Process: Poisson{Rate: 0.08, WindowSec: 200}, MinJobs: 3}
	for seed := int64(1); seed <= 5; seed++ {
		var trace bytes.Buffer
		n, err := RecordStream(&trace, gen.Stream(seed))
		if err != nil {
			t.Fatal(err)
		}
		subs := schedule(t, gen, seed)
		if n != len(subs) {
			t.Fatalf("seed %d: RecordStream wrote %d submissions, want %d", seed, n, len(subs))
		}
		streamed, err := Collect(ReplayStream(bytes.NewReader(trace.Bytes())))
		if err != nil {
			t.Fatalf("seed %d: replay stream: %v", seed, err)
		}
		if !reflect.DeepEqual(subs, streamed) {
			t.Fatalf("seed %d: streamed replay diverged", seed)
		}
		var again bytes.Buffer
		if _, err := RecordStream(&again, ReplayStream(bytes.NewReader(trace.Bytes()))); err != nil {
			t.Fatalf("seed %d: record stream: %v", seed, err)
		}
		if !bytes.Equal(trace.Bytes(), again.Bytes()) {
			t.Fatalf("seed %d: stream round trip not byte-identical", seed)
		}
	}
}

// Replay tolerates blank lines in hand-written traces.
func TestReplaySkipsBlankLines(t *testing.T) {
	in := "\n{\"job\":\"a\",\"model\":\"RNN-GRU (Tensorflow)\",\"at\":1}\n\n" +
		"{\"job\":\"b\",\"model\":\"RNN-GRU (Tensorflow)\",\"at\":2}\n\n"
	subs, err := Replay(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].Name != "a" || subs[1].Name != "b" {
		t.Fatalf("replayed %v", subs)
	}
}

// Replay rejects every malformed input with a line-numbered error.
func TestReplayErrors(t *testing.T) {
	valid := `{"job":"a","model":"RNN-GRU (Tensorflow)","at":1}`
	cases := map[string]string{
		"bad json":       "{not json}",
		"unknown model":  `{"job":"a","model":"GPT-7 (Pytorch)","at":1}`,
		"unknown field":  `{"job":"a","model":"RNN-GRU (Tensorflow)","at":1,"x":2}`,
		"negative time":  `{"job":"a","model":"RNN-GRU (Tensorflow)","at":-5}`,
		"nan time":       `{"job":"a","model":"RNN-GRU (Tensorflow)","at":"nan"}`,
		"missing job":    `{"model":"RNN-GRU (Tensorflow)","at":1}`,
		"duplicate job":  valid + "\n" + valid,
		"trailing data":  valid + ` {"job":"b"}`,
		"empty trace":    "\n\n",
		"array not line": `[` + valid + `]`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Replay(strings.NewReader(in)); err == nil {
				t.Fatalf("%s accepted:\n%s", name, in)
			}
		})
	}
}

// RecordStream rejects schedules the simulator would reject later.
func TestRecordErrors(t *testing.T) {
	gru := dlmodel.GRU()
	renamed := gru
	renamed.Name = "MyCustomNet" // key resolves nowhere in the catalog
	tweaked := gru
	tweaked.TotalWork *= 2 // key collides with the catalog but differs
	cases := map[string][]Submission{
		"unnamed job":    {{Profile: gru, At: 1}},
		"negative time":  {{Name: "a", Profile: gru, At: -1}},
		"duplicate":      {{Name: "a", Profile: gru, At: 1}, {Name: "a", Profile: gru, At: 2}},
		"custom model":   {{Name: "a", Profile: renamed, At: 1}},
		"shadowed model": {{Name: "a", Profile: tweaked, At: 1}},
	}
	for name, subs := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := record(subs); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
}

// FuzzReplay feeds arbitrary bytes through Replay: it must never panic,
// and whenever it accepts an input, the canonical form must round-trip
// byte-identically from then on.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`{"job":"a","model":"RNN-GRU (Tensorflow)","at":1.5}`))
	f.Add([]byte(`{"job":"VAE (Pytorch)","model":"VAE (Pytorch)","at":0}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"job":"a","model":"nope","at":1}`))
	f.Add([]byte(`{"at":1e308}`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := record(subs)
		if err != nil {
			t.Fatalf("accepted trace failed to record: %v", err)
		}
		again, err := Replay(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(subs, again) {
			t.Fatal("canonical replay diverged")
		}
		second, err := record(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, second) {
			t.Fatalf("canonical form unstable:\n%q\nvs\n%q", canon, second)
		}
	})
}
