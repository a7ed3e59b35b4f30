package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestPublicAPIQuickstart exercises the facade exactly as the README's
// quick start does.
func TestPublicAPIQuickstart(t *testing.T) {
	subs := FixedSchedule()
	fc := Run(Spec{
		Name:        "api-demo",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: subs,
	})
	na := Run(Spec{
		Name:        "api-demo-na",
		NewPolicy:   NAPolicy(20),
		Submissions: subs,
	})
	if !fc.Completed || !na.Completed {
		t.Fatal("runs did not complete")
	}
	var sb strings.Builder
	ReportPair(&sb, fc, na, "api demo")
	if !strings.Contains(sb.String(), "makespan") {
		t.Fatalf("report output:\n%s", sb.String())
	}
}

// TestPublicAPICatalog checks the re-exported catalog models.
func TestPublicAPICatalog(t *testing.T) {
	for _, p := range []Profile{VAEPyTorch(), MNISTPyTorch(), MNISTTensorFlow()} {
		p.Validate()
	}
	if p := VAEPyTorch(); p.Framework != PyTorch || p.Direction != Decreasing {
		t.Fatalf("profile through facade: %+v", p)
	}
}

// TestPublicAPICustomProfile validates a user-defined profile and its
// curve types through the facade.
func TestPublicAPICustomProfile(t *testing.T) {
	custom := Profile{
		Name:         "Custom",
		Framework:    PyTorch,
		EvalFunction: "Loss",
		Direction:    Decreasing,
		TotalWork:    50,
		Curve:        LogisticCurve{Start: 10, Final: 1, W0: 10, S: 0.2},
		CPUDemand:    0.5,
	}
	custom.Validate()
	res := Run(Spec{
		Name:        "api-custom",
		NewPolicy:   SLAQPolicy(20),
		Submissions: []Submission{{Name: "c", Profile: custom, At: 0}},
	})
	if !res.Completed {
		t.Fatal("custom profile run failed")
	}
}

// TestPublicAPIArchive runs the dense tier through the facade and
// round-trips its archive.
func TestPublicAPIArchive(t *testing.T) {
	res := Run(Spec{
		Name:        "api-archive",
		NewPolicy:   NAPolicy(20),
		Submissions: FixedSchedule(),
		TraceLevel:  TierDense,
	})
	a := res.Collector.Export()
	if len(a.Series) == 0 {
		t.Fatal("dense tier exported no raw series")
	}
	var sb strings.Builder
	if err := a.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadArchive(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Makespan != a.Makespan {
		t.Fatal("archive round trip changed makespan")
	}
}

// TestFacadeNamesAreUsed keeps the facade to what something runs: every
// exported name in api.go must be referenced as repro.<Name> by a program
// under examples/ or by README.md.
func TestFacadeNamesAreUsed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "api.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	sources, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	var users strings.Builder
	for _, path := range append(sources, "README.md") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		users.Write(b)
	}
	exported := 0
	for _, name := range names {
		if !ast.IsExported(name) {
			continue
		}
		exported++
		if !regexp.MustCompile(`\brepro\.` + name + `\b`).MatchString(users.String()) {
			t.Errorf("api.go exports %s, but no example or README.md uses repro.%s", name, name)
		}
	}
	if exported == 0 {
		t.Fatal("found no exported names in api.go")
	}
}
