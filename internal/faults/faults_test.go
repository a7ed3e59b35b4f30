package faults

import (
	"math"
	"strings"
	"testing"
)

func TestPlanValidate(t *testing.T) {
	good := Plan{
		Churn:   &Churn{MTBFSec: 100, MTTRSec: 10},
		Kills:   &Kills{MeanIntervalSec: 30},
		Degrade: &Degrade{MeanIntervalSec: 60, MeanDurationSec: 20},
		Script: []ScriptedFault{
			{At: 10, Kind: KindCrash, Worker: 1},
			{At: 20, Kind: KindRepair, Worker: 1},
			{At: 30, Kind: KindKill, Job: "a"},
			{At: 40, Kind: KindDegrade, Worker: 0, Factor: 0.5},
		},
		UntilSec: 500,
	}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Plan)
		want string
	}{
		{"zero MTBF", func(p *Plan) { p.Churn = &Churn{MTBFSec: 0, MTTRSec: 10} }, "MTBFSec"},
		{"NaN MTTR", func(p *Plan) { p.Churn = &Churn{MTBFSec: 10, MTTRSec: math.NaN()} }, "MTTRSec"},
		{"kill interval", func(p *Plan) { p.Kills = &Kills{MeanIntervalSec: -1} }, "MeanIntervalSec"},
		{"script time", func(p *Plan) { p.Script = []ScriptedFault{{At: -1, Kind: KindCrash}} }, "script[0]"},
		{"script worker", func(p *Plan) { p.Script = []ScriptedFault{{At: 1, Kind: KindCrash, Worker: 9}} }, "out of range"},
		{"script kill without job", func(p *Plan) { p.Script = []ScriptedFault{{At: 1, Kind: KindKill}} }, "job name"},
		{"script unknown kind", func(p *Plan) { p.Script = []ScriptedFault{{At: 1, Kind: "meteor"}} }, "unknown kind"},
		{"negative until", func(p *Plan) { p.UntilSec = -5 }, "UntilSec"},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		err := p.Validate(2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	if err := good.Validate(0); err == nil {
		t.Error("zero-worker cluster accepted")
	}
}

func TestPlanEmpty(t *testing.T) {
	if !(Plan{UntilSec: 100}).Empty() {
		t.Error("process-free plan not empty")
	}
	for _, p := range []Plan{
		{Churn: &Churn{MTBFSec: 1, MTTRSec: 1}},
		{Kills: &Kills{MeanIntervalSec: 1}},
		{Degrade: &Degrade{MeanIntervalSec: 1, MeanDurationSec: 1}},
		{Script: []ScriptedFault{{Kind: KindCrash}}},
	} {
		if p.Empty() {
			t.Errorf("plan %+v claims empty", p)
		}
	}
}
