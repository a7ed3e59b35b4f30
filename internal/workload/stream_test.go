package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Every generated schedule is pinned by the SHA-256 of its recorded
// JSONL trace: each built-in process plus a MaxJobs-capped Poisson, with
// and without padding (MinJobs 40 pads all but the production day). A
// change to how a process or the generator consumes its rng moves a
// digest here before it moves any experiment.
func TestStreamSchedulesPinned(t *testing.T) {
	procs := allProcesses()
	procs["poisson-capped"] = Poisson{Rate: 0.5, WindowSec: 1000, MaxJobs: 30}
	pins := []struct {
		proc    string
		seed    int64
		minJobs int
		sha256  string
	}{
		{"diurnal", 1, 0, "ccebf974893abc457587bc6a377a701a472c571570b34d3fff2d257946295c17"},
		{"diurnal", 2, 0, "b65554949fa01c0212c245248ac8e32ce4825db9a2207aea91ea7389cbd67063"},
		{"diurnal", 3, 0, "4c43d8f39f6a119eaa32108c99302903ed75557a5c8a784fb48b10514e708256"},
		{"diurnal", 1, 40, "113384f174d787cc454231d63bfc249d6232f9b83920fb2f8c2f697f7b4dc148"},
		{"diurnal", 2, 40, "0f887dea53df9ecba510f3627d64936dc10e9d3fa8a4c6fb9cf22ea52ecadfd9"},
		{"diurnal", 3, 40, "1a7f10c1f1d626c11051bd10c3410c6f52df757346cdb9cfebacf02af084264d"},
		{"flashcrowd", 1, 0, "ba1840d0ee3fdb93bc293447bc35f8007eba6092c876254bf941d4815ffb22c7"},
		{"flashcrowd", 2, 0, "f767207fdb72b90c0efd94899df761c88348058741e0a19c76442724fc192ea0"},
		{"flashcrowd", 3, 0, "9e5e59ffde772f0ac9723898f6200005de9cb1184991eee69c32bf820bb279a3"},
		{"flashcrowd", 1, 40, "979a63a25043dd1cfe2602da809cf6795f2abebc3aac83f4b498128b17db8220"},
		{"flashcrowd", 2, 40, "a86dfdba9f942a0b97c6a948500e02ff991383466da14243c8711cbb48c631e3"},
		{"flashcrowd", 3, 40, "a7b23cf379ce52d1ab6414cc8a3071da504e8cb7e2f9ba2166d496fc94383904"},
		{"onoff", 1, 0, "c1d59175b6a924fa4705232db2ae1311f6a0a639dc6b337cbe4ca6e67fc4dcdf"},
		{"onoff", 2, 0, "648c59a3115f7d0ec13ec272c229f8985a023f75edb8d93082bb3df62a7eac40"},
		{"onoff", 3, 0, "1adf0701e30b6e1fb7ad5b50aa3a3e4a7bf4c263bf5e7842e2736dab67ac544c"},
		{"onoff", 1, 40, "743a4dbe0489b7ba11da482ee918af785112f6de59dc0e0b6e4d819520c43b63"},
		{"onoff", 2, 40, "d9928e3ea5fc488634f8c7d7bb2bae05acfd38c8ae536b9a839d8935baa2d404"},
		{"onoff", 3, 40, "44af18ac4f5a996090c8999fc0903f320eed39c22480f46062ce2dcb6a3e3be3"},
		{"poisson", 1, 0, "7d7473b645fde401c37c197faa502503d1fe9df1aabd256d9a6bf318fd3deb61"},
		{"poisson", 2, 0, "f678447960d5dd234919db479d1dbc843c80b4b7236a77384d8486b800076aaf"},
		{"poisson", 3, 0, "02fb8c784698ec83c2bd7fcbd38d14354b28e50032aae133bda18f4b6c73046a"},
		{"poisson", 1, 40, "c582fc9e2847a484aa219349ab1713299ad358c7f5cde91286e71b07b6bf371f"},
		{"poisson", 2, 40, "7d8bdb0cd4d5db7af8c088045f94b20917ad5b793d652b3978bf76655470defb"},
		{"poisson", 3, 40, "e56452238aa05b42ca0c437938e58659a1a6715c6473568c56a35ec8a0b20093"},
		{"poisson-capped", 1, 0, "29ca632b002f3b303c3bc4e878cc1400a1b568c5fbb979ccdaa5a1444dc9e7fb"},
		{"poisson-capped", 2, 0, "c6fae9ac51c3c3a2d2d385af4df07f40ba4e5f5afd5b2f248ab8a94a5b16331d"},
		{"poisson-capped", 3, 0, "154807547a798737abbe4f33072e38b3b3ffa8ec51c756c488995547337d9e90"},
		{"poisson-capped", 1, 40, "b628eeccecce10cc3b25830712b8fd8543c97216cff778d13bf70edb1f4702c5"},
		{"poisson-capped", 2, 40, "d328d620a2f1fd1c275cb7c34640e4b3db5baa335e714c86aa00de81a37e3be3"},
		{"poisson-capped", 3, 40, "845ef61f6a08252cc39ef06cf77af7990c79815e2bd71eed56d56a18ece655d0"},
		{"productionday", 1, 0, "a97a7b8730a636c69b8486cf3b29728c8413cb75994b65a132aff29c13c24fa8"},
		{"productionday", 2, 0, "26be5a6d3ca177fc7c12be91d3f45310f74fae5d87b30d94f63f6990b3b6c563"},
		{"productionday", 3, 0, "72bc6d38537b6c25d51fad7755f56092f2a830384dd86aba163c6442870c3875"},
		{"productionday", 1, 40, "a97a7b8730a636c69b8486cf3b29728c8413cb75994b65a132aff29c13c24fa8"},
		{"productionday", 2, 40, "26be5a6d3ca177fc7c12be91d3f45310f74fae5d87b30d94f63f6990b3b6c563"},
		{"productionday", 3, 40, "72bc6d38537b6c25d51fad7755f56092f2a830384dd86aba163c6442870c3875"},
	}
	for _, pin := range pins {
		subs, err := Collect(Generator{Process: procs[pin.proc], MinJobs: pin.minJobs}.Stream(pin.seed))
		if err != nil {
			t.Fatalf("%s seed=%d minJobs=%d: %v", pin.proc, pin.seed, pin.minJobs, err)
		}
		var trace bytes.Buffer
		if _, err := RecordStream(&trace, SliceStream(subs)); err != nil {
			t.Fatalf("%s seed=%d minJobs=%d: %v", pin.proc, pin.seed, pin.minJobs, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(trace.Bytes())); got != pin.sha256 {
			t.Errorf("%s seed=%d minJobs=%d: schedule digest %s, pinned %s", pin.proc, pin.seed, pin.minJobs, got, pin.sha256)
		}
	}
}

// A drained stream stays drained, and pulls past exhaustion are safe.
func TestStreamSingleUse(t *testing.T) {
	g := Generator{Process: Poisson{Rate: 0.1, WindowSec: 100}}
	s := g.Stream(1)
	if _, err := Collect(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("drained stream yielded another submission")
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("clean exhaustion reported error: %v", err)
	}
}

// A schedule of more than 100 000 jobs streams to completion: only the
// process's own MaxJobs truncates it.
func TestStreamBeyondEagerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("draws >100k arrivals")
	}
	p := Poisson{Rate: 50, WindowSec: 5000, MaxJobs: 120000}
	s := Generator{Process: p}.Stream(7)
	n := 0
	last := -1.0
	for sub, ok := s.Next(); ok; sub, ok = s.Next() {
		if sub.At < last {
			t.Fatalf("stream went backwards at job %d: %g after %g", n+1, sub.At, last)
		}
		last = sub.At
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != p.MaxJobs {
		t.Fatalf("streamed %d jobs, want MaxJobs=%d", n, p.MaxJobs)
	}
}

// SliceStream/Collect round-trip a materialized schedule unchanged.
func TestSliceStreamRoundTrip(t *testing.T) {
	want := FixedSchedule()
	got, err := Collect(SliceStream(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed schedule:\n%v\nvs\n%v", got, want)
	}
}

// ProductionDay's thinning bound must cover the worst instant: the
// diurnal crest plus the largest sum of overlapping spikes.
func TestProductionDayPeak(t *testing.T) {
	overlapping := ProductionDay{BaseRate: 1, Amplitude: 0.5, WindowSec: 100,
		Spikes: []Spike{{At: 10, Sec: 20, Rate: 2}, {At: 15, Sec: 20, Rate: 3}}}
	if got, want := overlapping.peak(), 1.5+5.0; got != want {
		t.Fatalf("overlapping spikes: peak %g, want %g", got, want)
	}
	disjoint := ProductionDay{BaseRate: 1, Amplitude: 0.5, WindowSec: 100,
		Spikes: []Spike{{At: 10, Sec: 5, Rate: 2}, {At: 15, Sec: 5, Rate: 3}}}
	if got, want := disjoint.peak(), 1.5+3.0; got != want {
		t.Fatalf("back-to-back spikes: peak %g, want %g (half-open intervals must not stack)", got, want)
	}
	// The instantaneous rate must never exceed the thinning bound — the
	// correctness condition of Lewis–Shedler rejection sampling.
	for _, p := range []ProductionDay{overlapping, disjoint} {
		peak := p.peak()
		for t0 := 0.0; t0 < p.WindowSec; t0 += 0.25 {
			if r := p.rate(t0); r > peak+1e-9 || r < 0 {
				t.Fatalf("rate(%g)=%g outside [0, peak=%g]", t0, r, peak)
			}
		}
	}
}

// ProductionDay rejects malformed parameters like its sibling processes.
func TestProductionDayValidation(t *testing.T) {
	cases := map[string]ProductionDay{
		"amplitude":      {BaseRate: 1, Amplitude: 1.5, WindowSec: 100},
		"spike rate":     {BaseRate: 1, WindowSec: 100, Spikes: []Spike{{At: 10, Sec: 5}}},
		"spike past end": {BaseRate: 1, WindowSec: 100, Spikes: []Spike{{At: 100, Sec: 5, Rate: 1}}},
		"window":         {BaseRate: 1, WindowSec: math.Inf(1)},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted: %+v", name, p)
				}
			}()
			p.Times(rand.New(rand.NewSource(1)))
		})
	}
}

// The production tenant mix is valid and skews short: its mean total work
// must sit well below the uniform catalog's, the property that makes
// million-job megacluster runs tractable.
func TestProductionTenantMix(t *testing.T) {
	mix := ProductionTenantMix()
	mix.validate()
	meanWork := func(m Mix) float64 {
		work, weight := 0.0, 0.0
		for _, e := range m {
			work += e.Weight * e.Profile.TotalWork
			weight += e.Weight
		}
		return work / weight
	}
	if tenant, catalog := meanWork(mix), meanWork(CatalogMix()); tenant >= 0.6*catalog {
		t.Fatalf("tenant mix mean work %.1f not short-skewed vs catalog %.1f", tenant, catalog)
	}
}
