// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time against the public dbiopt facade and the internal
// packages, checks every output against an independent replay, and prints a
// human-readable report followed by one JSON line: the end-to-end metrics,
// or with --trace 1 the per-layer metrics. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// spansDir receives the traced run's span file; empty writes none.
	spansDir string
	// tiny shrinks every input to a few frames, for the self-test.
	tiny bool
	// corrupt perturbs the first checked total, for the self-test: a run
	// with it set must report a failure.
	corrupt bool
}

// budget returns the share of the run's measuring time given to one phase.
func (c config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"offline-trace": runOfflineTrace,
	"serve-frames":  runServeFrames,
	"serve-batch":   runServeBatch,
	"paper-figures": runPaperFigures,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: offline-trace, serve-frames, serve-batch or paper-figures")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of the run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: none)")
	flag.Parse()
	cfg.traced = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d %s %s/%s\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}
