// Command steady runs one workload of the benchmark several times, each
// with another seed, and prints for every metric the median, the first
// and third quartiles and the spread (their distance as a share of the
// median), with quartiles computed as Python's
// statistics.quantiles(values, n=4) does. Run it from the root of the
// repository (it runs perfbench/run.sh there):
//
//	go -C perfbench run ./steady -workload read-mix -runs 10 -seconds 15
//
// With -overhead it alternates untraced and traced runs on the same
// seeds and prints the tracing overhead: the traced run's end-to-end
// medians against the untraced ones.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const tracedPrefix = "perfbench: traced end-to-end: "

func main() {
	workload := flag.String("workload", "", "workload to run")
	runs := flag.Int("runs", 10, "number of runs, one seed each")
	seed0 := flag.Int64("seed0", 1, "seed of the first run; later runs count up")
	seconds := flag.Int("seconds", 15, "--seconds passed to each run")
	trace := flag.Int("trace", 0, "--trace passed to each run")
	overhead := flag.Bool("overhead", false, "alternate untraced and traced runs and print the tracing overhead")
	verbose := flag.Bool("v", false, "also print every run's value of each metric")
	logdir := flag.String("logdir", "", "if set, keep each run's standard error there")
	flag.Parse()
	if *workload == "" || *runs < 1 {
		fmt.Fprintln(os.Stderr, "steady: need -workload and -runs >= 1")
		os.Exit(2)
	}
	if *overhead {
		*trace = 0
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	traced := map[string][]float64{}
	var shares []string
	correct := true
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		res, _, err := runOnce(*logdir, *workload, seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		correct = correct && res.Correct
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: seed %d done (correct=%v failed=%d/%d)\n", seed, res.Correct, res.Failed, res.Attempted)
		if *overhead {
			_, e2e, err := runOnce(*logdir, *workload, seed, *seconds, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: traced seed %d: %v\n", seed, err)
				os.Exit(1)
			}
			for k, m := range e2e {
				traced[k] = append(traced[k], m.Value)
			}
		}
	}
	fmt.Printf("workload %s: %d runs, seeds %d..%d, --seconds %d --trace %d, all correct: %v\n",
		*workload, *runs, *seed0, *seed0+int64(*runs)-1, *seconds, *trace, correct)
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(shares, " "))
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-30s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, k := range keys {
		q1, med, q3 := quartiles(vals[k])
		fmt.Printf("%-30s %12.5g %12.5g %12.5g %8.3f %s\n", k, med, q1, q3, (q3-q1)/med, units[k])
		if *verbose {
			fmt.Printf("%30s", "")
			for _, v := range vals[k] {
				fmt.Printf(" %.4g", v)
			}
			fmt.Println()
		}
	}
	if *overhead {
		fmt.Printf("\ntracing overhead (traced median / untraced median - 1):\n")
		for _, k := range keys {
			if len(traced[k]) == 0 {
				continue
			}
			_, u, _ := quartiles(vals[k])
			_, t, _ := quartiles(traced[k])
			fmt.Printf("%-30s %12.5g %12.5g %+8.1f%%\n", k, u, t, 100*(t/u-1))
		}
	}
}

// runOnce runs the benchmark once and returns its result line and, for
// a traced run, the end-to-end figures it printed to stderr.
func runOnce(logdir, workload string, seed int64, seconds, trace int) (result, map[string]metric, error) {
	cmd := exec.Command("bash", filepath.Join("perfbench", "run.sh"),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if logdir != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.log", workload, seed, trace)
		if err := os.WriteFile(filepath.Join(logdir, name), stderr.Bytes(), 0o644); err != nil {
			return result{}, nil, err
		}
	}
	if runErr != nil {
		return result{}, nil, fmt.Errorf("%v\n%s", runErr, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, nil, fmt.Errorf("result line: %v", err)
	}
	var e2e map[string]metric
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), tracedPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &e2e); err != nil {
				return result{}, nil, fmt.Errorf("traced end-to-end line: %v", err)
			}
		}
	}
	return res, e2e, nil
}

// quartiles follows statistics.quantiles(data, n=4) with its default
// "exclusive" method; a single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(k int) float64 {
		m := float64((n+1)*k) / 4
		j := int(math.Floor(m))
		j = min(max(j, 1), n-1)
		delta := m - float64(j)
		return d[j-1] + delta*(d[j]-d[j-1])
	}
	return q(1), q(2), q(3)
}
