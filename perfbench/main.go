// Command perfbench measures the moving objects store end to end and
// layer by layer. It builds the server stack in-process the way
// cmd/moserver -ingest does, drives one workload through it over one
// keep-alive HTTP connection, checks every answer against an oracle
// computed from the raw samples it generated (package oracle), and
// prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload read-mix --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the run
// with spans recorded around the calls into each layer, replays the
// run's inputs into the layers' public functions, and reports the
// per-layer metrics; the spans go to .bench_build/spans/. See README.md
// for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds int
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*run, error){
	"fleet-ingest": runFleet,
	"read-mix":     runReadMix,
	"paper-sql":    runPaperSQL,
}

func main() {
	name := flag.String("workload", "", "workload: fleet-ingest, read-mix or paper-sql")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "run length: the amount of work is sized to last about this long on the reference host")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d\n",
		*name, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	r, err := fn(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if opt.trace {
		if err := r.tr.writeSpans(*name, opt.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	out := r.result(opt.trace)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
