package metaprep_test

// example_test.go holds runnable godoc examples; their Output comments are
// verified by go test, so they double as determinism tests for the
// generator and the single-threaded pipeline.

import (
	"fmt"
	"log"
	"os"

	"metaprep"
)

// Example partitions a tiny fixed-seed community and reports its component
// structure.
func Example() {
	dir, err := os.MkdirTemp("", "metaprep-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	spec := metaprep.CommunitySpec{
		Name:    "demo",
		Species: 3, GenomeLen: 3000,
		Pairs: 300, ReadLen: 80,
		Paired: true, InsertMin: 160, InsertMax: 240,
		Files: 1, Seed: 12345,
	}
	ds, err := metaprep.Generate(spec, dir)
	if err != nil {
		log.Fatal(err)
	}

	opts := metaprep.DefaultIndexOptions()
	opts.Paired = true
	opts.ChunkSize = 64 << 10
	idx, err := metaprep.BuildIndex(ds.Files, opts)
	if err != nil {
		log.Fatal(err)
	}

	res, err := metaprep.Partition(metaprep.DefaultConfig(idx))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reads: %d\n", res.Reads)
	fmt.Printf("components: %d\n", res.Components)
	fmt.Printf("largest component: %d reads\n", res.LargestSize)
	// Output:
	// reads: 300
	// components: 4
	// largest component: 100 reads
}

// ExamplePartitionPurity scores a clustering against ground truth.
func ExamplePartitionPurity() {
	labels := []uint32{0, 0, 0, 7, 7}
	origins := []int32{1, 1, 2, 3, 3}
	purity, frag := metaprep.PartitionPurity(labels, origins)
	fmt.Printf("purity %.2f, fragmentation %.2f\n", purity, frag)
	// Output:
	// purity 0.80, fragmentation 1.00
}

// ExamplePredict evaluates the paper's cost model for a cluster that need
// not exist locally.
func ExamplePredict() {
	w := metaprep.PaperWorkload("MM")
	steps := metaprep.Predict(metaprep.EdisonCalibration(), w,
		metaprep.ClusterSpec{P: 4, T: 24, S: 2})
	mem := metaprep.PredictMemory(w, metaprep.ClusterSpec{P: 4, T: 24, S: 2})
	fmt.Printf("predicted total: %.0fs\n", steps.Total().Seconds())
	fmt.Printf("memory per node: %.0f GB\n", float64(mem)/(1<<30))
	// Output:
	// predicted total: 51s
	// memory per node: 20 GB
}

func ExampleFilter_String() {
	fmt.Println(metaprep.Filter{Max: 30})
	fmt.Println(metaprep.Filter{Min: 10, Max: 30})
	// Output:
	// KF<=30
	// 10<=KF<=30
}
