// Command svcbench is the batch service's end-to-end benchmark. It builds
// the service inside its own process from the public constructors, serves
// it on loopback listeners, and drives it through the HTTP edge with
// closed-loop clients: each client waits for its op's report before it
// sends the next request, as the batch API's users do.
//
// One run measures one workload:
//
//	svcbench --workload durable-lifecycle --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an unwrapped service.
// With --trace 1 it runs the same workload twice, untraced and then with
// timing wrappers at every public seam, and prints the per-layer
// breakdown. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics and their measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workDir holds the run's data directories and trace output, relative to
// the checkout root the benchmark runs from.
const workDir = "svcbench/.run"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: run untraced and traced phases and report the per-layer breakdown")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	b := newBench(w, *seed, runDir)
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(time.Duration(*seconds) * time.Second)
	} else {
		res, err = b.untraced(time.Duration(*seconds) * time.Second)
	}
	if rmErr := os.RemoveAll(runDir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	b.printFailures()
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
