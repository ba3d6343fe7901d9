// Command e2ebench is the repository's end-to-end benchmark. One run
// builds certainfixd from the tree under test, generates seeded HOSP
// inputs with internal/datagen, drives the daemons over loopback HTTP
// from this one process, checks every output, and prints the metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (client-side
// latencies, throughput, user effort, daemon CPU and memory); with
// -trace 1 the same traffic runs untraced and is then replayed inside
// this process with a span around every layer call, and the metrics are
// the per-layer ones. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload session-10k --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		root     = flag.String("root", ".", "repository checkout to build certainfixd from")
		workload = flag.String("workload", "", "workload name: session-10k | session-100k | update-replicated")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Int("seconds", 10, "run length: sizes the fixed, seeded work list (see README)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay, per-layer metrics")
	)
	flag.Parse()
	spec, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %v)\n", *workload, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}

	h, err := newHarness(absRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer h.cleanup()
	// SIGINT/SIGTERM/SIGHUP: kill every daemon, remove the temporary
	// tree, exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		h.cleanup()
		fmt.Fprintf(os.Stderr, "e2ebench: interrupted by %v, daemons stopped\n", s)
		os.Exit(130)
	}()

	out, err := runWorkload(h, spec, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", spec.name, err)
		return 1
	}
	for _, e := range out.verdict.errs {
		fmt.Fprintf(os.Stderr, "e2ebench: CHECK FAILED: %v\n", e)
	}
	if n := out.verdict.dropped; n > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: ... and %d more failed checks\n", n)
	}
	report, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", report)
	last, err := json.Marshal(map[string]any{
		"correct":   out.verdict.ok(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", last)
	if !out.verdict.ok() {
		return 1
	}
	return 0
}
