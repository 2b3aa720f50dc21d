package main

import (
	"flag"
	"fmt"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/kmer"
	"metaprep/internal/lookup"
)

// cmdLookup builds and probes .mplk query-tier lookup files offline:
//
//	metaprep lookup build -out FILE [-shards N] artifact.mpa
//	metaprep lookup query -lookup FILE [-siblings] kmer|sequence...
//
// build converts a partition (or k-mer set) artifact into the memory-mapped
// sharded lookup metaprepd serves POST /query from; query answers ad hoc
// probes from the shell: an argument whose length equals the lookup's k is
// treated as one exact k-mer, anything longer is scanned as a raw sequence
// and every canonical k-mer window is probed.
func cmdLookup(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("lookup: need a verb: build or query")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "build":
		return cmdLookupBuild(rest)
	case "query":
		return cmdLookupQuery(rest)
	default:
		return fmt.Errorf("lookup: unknown verb %q (want build or query)", verb)
	}
}

func cmdLookupBuild(args []string) error {
	fs := flag.NewFlagSet("lookup build", flag.ExitOnError)
	out := fs.String("out", "", "output lookup path (required, conventionally .mplk)")
	shards := fs.Int("shards", 0, "shard count for query parallelism (0 = default)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("lookup build: need -out and exactly one artifact file")
	}
	ar, err := artifact.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer ar.Close()
	start := time.Now()
	st, err := lookup.Build(ar, *out, lookup.BuildOptions{Shards: *shards})
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("%s: %d keys (deduped from %d tuples) in %d blocks / %d shards, %.1fMB\n",
		*out, st.Keys, ar.Tuples(), st.Blocks, st.Shards, float64(st.Bytes)/float64(1<<20))
	fmt.Printf("built in %v (%.0f tuples/s)\n", el.Round(time.Millisecond),
		float64(ar.Tuples())/el.Seconds())
	return nil
}

func cmdLookupQuery(args []string) error {
	fs := flag.NewFlagSet("lookup query", flag.ExitOnError)
	lkPath := fs.String("lookup", "", "lookup file built with `metaprep lookup build` (required)")
	siblings := fs.Bool("siblings", false, "also report how many other distinct k-mers share each hit's multiplicity")
	fs.Parse(args)
	if *lkPath == "" || fs.NArg() == 0 {
		return fmt.Errorf("lookup query: need -lookup and at least one k-mer or sequence")
	}
	lk, err := lookup.Open(*lkPath)
	if err != nil {
		return err
	}
	defer lk.Close()
	m := lk.Meta()

	probe := func(name string, hi, lo uint64) {
		label, count, ok := lk.Get(hi, lo)
		if !ok {
			fmt.Printf("%s\tmiss\n", name)
			return
		}
		if *siblings {
			fmt.Printf("%s\tlabel=%d count=%d siblings=%d\n", name, label, count, lk.Siblings(count))
			return
		}
		fmt.Printf("%s\tlabel=%d count=%d\n", name, label, count)
	}

	for _, arg := range fs.Args() {
		if len(arg) < m.K {
			return fmt.Errorf("lookup query: %q is shorter than k=%d", arg, m.K)
		}
		if len(arg) == m.K {
			km, ok := kmer.CanonicalKey([]byte(arg), m.K)
			if !ok {
				return fmt.Errorf("lookup query: %q has non-ACGT bases", arg)
			}
			probe(arg, km.Hi, km.Lo)
			continue
		}
		// A sequence: probe every canonical window, named by offset.
		name := arg
		if len(name) > 8 {
			name = name[:8] + "…"
		}
		kmer.ForEachKey([]byte(arg), m.K, func(pos int, km kmer.Kmer128) {
			probe(fmt.Sprintf("%s[%d]", name, pos), km.Hi, km.Lo)
		})
	}
	return nil
}
