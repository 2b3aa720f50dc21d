package main

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestExperimentsSmoke runs the cheap experiments end to end at a tiny
// scale, verifying the harness plumbing (env caching, dataset reuse, table
// rendering) without the cost of the full evaluation. ablate and backhalf
// are in the list because they are the experiments that set Config fields
// per row, so a Config validation interaction fails here rather than in a
// full evaluation run.
func TestExperimentsSmoke(t *testing.T) {
	e := newEnv(t.TempDir(), 0.02)
	for _, name := range []string{"tab2", "tab5", "stream", "ablate", "backhalf"} {
		found := false
		for _, x := range experiments() {
			if x.name == name {
				found = true
				if err := x.run(e); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if !found {
			t.Fatalf("experiment %s not registered", name)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range experiments() {
		if x.name == "" || x.about == "" || x.run == nil {
			t.Errorf("malformed experiment %+v", x)
		}
		if seen[x.name] {
			t.Errorf("duplicate experiment %q", x.name)
		}
		seen[x.name] = true
	}
	for _, want := range []string{"tab2", "fig5", "fig6", "fig7", "fig8", "tab3",
		"fig9", "sort", "tab4", "tab5", "tab6", "tab7", "tab8", "purity", "ablate",
		"artifact", "backhalf", "stream", "calib"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

// TestRunAllContinuesPastFailure checks that one experiment's failure does
// not stop the rest: the second experiment still runs after the first
// fails, and the returned error names the failed one and only it.
func TestRunAllContinuesPastFailure(t *testing.T) {
	ran := false
	exps := []experiment{
		{"bad", "fails its gate", func(*env) error { return errors.New("gate failed") }},
		{"good", "passes", func(*env) error { ran = true; return nil }},
	}
	err := runAll(newEnv(t.TempDir(), 0.02), exps, []string{"bad", "good"})
	if !ran {
		t.Fatal("the experiment after a failing one did not run")
	}
	if err == nil || !strings.Contains(err.Error(), "bad") || strings.Contains(err.Error(), "good") {
		t.Fatalf("runAll error = %v, want one naming bad and not good", err)
	}
	// Names are resolved before anything runs.
	ran = false
	if err := runAll(newEnv(t.TempDir(), 0.02), exps, []string{"good", "nope"}); err == nil || !strings.Contains(err.Error(), "nope") || ran {
		t.Fatalf("unknown experiment: err = %v, ran = %v", err, ran)
	}
}

// TestExperimentCSVNames runs every experiment's emitter at a tiny scale and
// checks the names its tables are filed under (`-csv` writes <name>.csv):
// each starts with the experiment's own name, or with another name the same
// experiment is registered under (tab8 and tab9), and no two tables share a
// name, so one table can never overwrite another's file. An experiment's
// own gate failing at this scale (the artifact reload speedup needs a larger
// dataset) is logged, not failed: experiments emit every table before
// their gates run, and each but stream must emit at least one.
func TestExperimentCSVNames(t *testing.T) {
	e := newEnv(t.TempDir(), 0.02)
	names := map[uintptr][]string{} // run function → its registry names
	for _, x := range experiments() {
		fn := reflect.ValueOf(x.run).Pointer()
		names[fn] = append(names[fn], x.name)
	}
	owner := map[string]string{}
	ran := map[uintptr]bool{}
	for _, x := range experiments() {
		fn := reflect.ValueOf(x.run).Pointer()
		if ran[fn] {
			continue
		}
		ran[fn] = true
		e.emitted = nil
		if err := x.run(e); err != nil {
			t.Logf("%s: %v", x.name, err)
		}
		if len(e.emitted) == 0 && x.name != "stream" {
			t.Errorf("%s emitted no table", x.name)
		}
		for _, name := range e.emitted {
			if prev, dup := owner[name]; dup {
				t.Errorf("%s and %s both emit %q", prev, x.name, name)
			}
			owner[name] = x.name
			if !slices.ContainsFunc(names[fn], func(n string) bool { return strings.HasPrefix(name, n) }) {
				t.Errorf("%s emits %q, which does not start with %s", x.name, name, strings.Join(names[fn], " or "))
			}
		}
	}
}
