package main

import (
	"testing"
)

// TestExperimentsSmoke runs the cheap experiments end to end at a tiny
// scale, verifying the harness plumbing (env caching, dataset reuse, table
// rendering) without the cost of the full evaluation. ablate and backhalf
// are in the list because they are the experiments that set Config fields
// per row: ablate sat broken on a Validate cross-check (SparseMerge on top of
// Default's SparseDeltaMerge) that nothing ran, so a config interaction now
// fails here.
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
		"artifact", "backhalf", "serve", "stream", "calib"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}
