// Command mpbench regenerates every table and figure of the METAPREP
// paper's evaluation (§4) on synthetic stand-in datasets, printing
// paper-style tables. Scaling figures combine measured single-thread runs
// with the §3.7 cost model (see internal/model for why).
//
// Usage:
//
//	mpbench -exp all                 # every experiment
//	mpbench -exp tab3 -scale 1.0     # one experiment at full preset scale
//	mpbench -list                    # list experiments
//
// Experiments: tab2 fig5 fig6 fig7 fig8 tab3 fig9 sort tab4 tab5 tab6 tab7
// tab8 tab9 purity ablate extsort artifact backhalf
// pipeline serve stream calib.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	name  string
	about string
	run   func(e *env) error
}

func experiments() []experiment {
	return []experiment{
		{"tab2", "Table 2: dataset descriptions", expTable2},
		{"fig5", "Figure 5: single-node thread scaling (measured + model)", expFigure5},
		{"fig6", "Figure 6: multi-node scaling, three datasets", expFigure6},
		{"fig7", "Figure 7: IS dataset, 16 nodes/8 passes vs 64 nodes/2 passes", expFigure7},
		{"fig8", "Figure 8: load balance across 16 tasks (box plot)", expFigure8},
		{"tab3", "Table 3: multi-pass time and memory", expTable3},
		{"fig9", "Figure 9: KmerGen vs KMC 2-style counter", expFigure9},
		{"sort", "§4.2.2: LocalSort vs NUMA-style baseline sort throughput", expSort},
		{"tab4", "Table 4: comparison with AP_LB (Shiloach-Vishkin)", expTable4},
		{"tab5", "Table 5: index creation time", expTable5},
		{"tab6", "Table 6: impact of k (27 vs 63)", expTable6},
		{"tab7", "Table 7: largest component vs k and frequency filter", expTable7},
		{"tab8", "Tables 8+9: assembly time and quality with preprocessing", expTables8and9},
		{"tab9", "alias of tab8 (quality prints with timing)", expTables8and9},
		{"purity", "extension: partition purity vs ground truth", expPurity},
		{"ablate", "DESIGN.md design-decision ablations", expAblation},
		{"extsort", "extension: out-of-core LocalSort (spill budget sweep, parity-checked)", expExtsort},
		{"artifact", "extension: persistent partition artifacts (reload >=5x, incremental parity)", expArtifact},
		{"backhalf", "extension: delta tree merge, broadcast schedule, overlapped CC-I/O", expBackHalf},
		{"pipeline", "observability: per-step latency and model drift under the flight recorder", expPipeline},
		{"serve", "extension: query-tier closed-loop load (batch × concurrency, verified responses)", expServe},
		{"stream", "STREAM Triad memory bandwidth", expStream},
		{"calib", "host calibration constants", expCalib},
	}
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run (or 'all')")
		scale = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = standard scaled presets)")
		dir   = flag.String("dir", "", "workspace directory (default: a temp dir)")
		list  = flag.Bool("list", false, "list experiments and exit")
		keep  = flag.Bool("keep", false, "keep the workspace directory")
		csv   = flag.String("csv", "", "also write each table as CSV into this directory")
		bench = flag.String("benchjson", "", "write machine-readable BENCH_<name>.json files into this directory")
	)
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.name, e.about)
		}
		return
	}

	ws := *dir
	cleanup := func() {}
	if ws == "" {
		tmp, err := os.MkdirTemp("", "mpbench-")
		if err != nil {
			fail(err)
		}
		ws = tmp
		if !*keep {
			cleanup = func() { os.RemoveAll(tmp) }
		}
	} else if err := os.MkdirAll(ws, 0o755); err != nil {
		fail(err)
	}
	defer cleanup()

	e := newEnv(ws, *scale)
	e.csvDir = *csv
	e.benchDir = *bench
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = nil
		seen := map[string]bool{}
		for _, x := range exps {
			if x.name == "tab9" { // alias
				continue
			}
			if !seen[x.name] {
				names = append(names, x.name)
				seen[x.name] = true
			}
		}
	}
	for _, name := range names {
		found := false
		for _, x := range exps {
			if x.name == strings.TrimSpace(name) {
				found = true
				fmt.Printf("==== %s — %s ====\n", x.name, x.about)
				if err := x.run(e); err != nil {
					fail(fmt.Errorf("%s: %w", x.name, err))
				}
				fmt.Println()
				break
			}
		}
		if !found {
			fail(fmt.Errorf("unknown experiment %q (use -list)", name))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mpbench:", err)
	os.Exit(1)
}
