package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"movingdb/internal/ingest"
)

// Route classes: every latency sample belongs to one, and medians are
// taken per class, never pooled across classes of different cost.
const (
	rIngest    = "ingest"
	rWindow    = "window"
	rNearby    = "nearby"
	rAtInstant = "atinstant"
	rObjects   = "objects"
	rQuery     = "query"
)

var readRoutes = []string{rWindow, rNearby, rAtInstant, rObjects}

const (
	wFleet    = "fleet-ingest"
	wReadMix  = "read-mix"
	wPaperSQL = "paper-sql"
)

// home names the workloads whose own traffic an end-to-end metric
// measures; the others report it from their probe samples. setup_s and
// heap_mb belong to every workload. Only paper-sql's probes write: the
// other two workloads ingest in their own traffic, and probe writes on
// their large stores would add WAL checkpoints and index merges to the
// probes' figures.
var home = map[string][]string{
	"obs_per_s":        {wFleet, wReadMix},
	"ingest_p50_ms":    {wFleet, wReadMix},
	"ingest_p99_ms":    {wFleet, wReadMix},
	"window_p50_ms":    {wFleet, wReadMix},
	"nearby_p50_ms":    {wFleet, wReadMix},
	"atinstant_p50_ms": {wFleet, wReadMix},
	"reads_per_s":      {wReadMix},
	"read_p99_ms":      {wReadMix},
	"query_p50_ms":     {wPaperSQL},
}

// segments is the number of equal parts the main traffic is cut into
// by work done; every probe sub-phase is a part of its own.
const segments = 5

// part holds the samples of one part of a phase.
type part struct {
	lat  map[string][]float64     // route class → latencies, ms
	busy map[string]time.Duration // route class → time its requests were in flight
	obs  int64                    // observations acknowledged
}

func newPart() *part {
	return &part{lat: map[string][]float64{}, busy: map[string]time.Duration{}}
}

// phase holds the samples of one kind of traffic, in parts. Rates and
// tails are taken per part and the median part is reported, so a
// stretch of a slow host that spoils a minority of the parts does not
// move the figure.
type phase struct{ parts []*part }

func newPhase(n int) *phase {
	p := &phase{}
	for i := 0; i < n; i++ {
		p.parts = append(p.parts, newPart())
	}
	return p
}

// run collects one run's measurements and verdicts.
type run struct {
	workload string
	setup    []float64 // seconds, one per set-up repetition
	heapMB   float64   // live heap the stack held at the end
	main     *phase    // the workload's own traffic, one part per segment
	probe    *phase    // the thin mix of every route, one part per sub-phase between main segments
	cur      *part     // the part being timed; nil outside the timed phase
	seg      int       // the segment of the main traffic being run
	attempt  int64
	failed   map[string]int64 // route class → operations failed by the single-observation fault
	wrong    int              // answers that disagree with the oracle
	notes    []string         // the first disagreements, for stderr
	counters map[string]float64
	proc     procCounters // timed-phase deltas
	hostRef  []float64
	layer    map[string]metric // per-layer metrics of a traced run
	tr       *tracer
}

func newRun(workload string, tr *tracer) *run {
	return &run{
		workload: workload,
		main:     newPhase(segments),
		probe:    newPhase(0),
		failed:   map[string]int64{},
		counters: map[string]float64{},
		layer:    map[string]metric{},
		tr:       tr,
	}
}

// record tallies one timed operation.
func (r *run) record(route string, d time.Duration) {
	if r.cur == nil {
		return
	}
	r.attempt++
	r.cur.busy[route] += d
	r.cur.lat[route] = append(r.cur.lat[route], ms(d))
}

// segment sets the segment from the main traffic's progress: round i of
// n timed rounds.
func (r *run) segment(i, n int) {
	r.seg = min(i*segments/n, segments-1)
	r.cur = r.main.parts[r.seg]
}

// acked counts acknowledged observations of a timed ingest.
func (r *run) acked(n int) {
	if r.cur != nil {
		r.cur.obs += int64(n)
	}
}

// fail counts a timed operation that the single-observation fault made
// wrong.
func (r *run) fail(route string) {
	if r.cur != nil {
		r.failed[route]++
	}
}

// mismatch records an answer that disagrees with the oracle.
func (r *run) mismatch(format string, args ...any) {
	r.wrong++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// beginMain starts the timed phase after the warm-up.
func (r *run) beginMain() {
	runtime.GC()
	r.hostRef = append(r.hostRef, hostRef())
	r.cur = r.main.parts[0]
	r.proc = readProc()
}

// endMain closes the timed phase.
func (r *run) endMain() {
	end := readProc()
	r.proc = procCounters{end.bytes - r.proc.bytes, end.mallocs - r.proc.mallocs, end.gcs - r.proc.gcs}
	r.counters["ops"] = float64(r.attempt)
	r.cur = nil
	r.hostRef = append(r.hostRef, hostRef())
}

// probeGroup is one round of the probe phase: one operation of every
// route (the write only where the workload's probes write).
type probeGroup struct {
	batch  []ingest.Observation
	body   []byte
	window windowQ
	nearby nearbyQ
	t      float64
	query  sqlQuery
}

// probeSub runs one probe sub-phase inside the main phase, right after
// a forced collection, so the collector seldom runs inside it. The probes measure every route
// on the workload's stack at rest, without the collector or the
// workload's own load beside them; spreading the sub-phases over the run
// lets them see the same host as the main traffic. Each sub-phase is a
// part of the probe phase.
func (r *run) probeSub(e *env, groups []probeGroup) {
	runtime.GC()
	r.cur = newPart()
	r.probe.parts = append(r.probe.parts, r.cur)
	for _, g := range groups {
		probeOnce(e, g)
	}
	r.cur = r.main.parts[r.seg]
}

func probeOnce(e *env, g probeGroup) {
	if g.batch != nil {
		e.ingest(g.batch, g.body)
	}
	e.window(g.window)
	e.nearby(g.nearby)
	e.atInstant(g.t)
	e.query(g.query)
}

func (r *run) failedTotal() int64 {
	n := int64(0)
	for _, v := range r.failed {
		n += v
	}
	return n
}

// rate is the median over parts of the count per second of the time
// the part spent in requests of the given route classes. The client is
// closed-loop, so this is the rate the server sustains for that
// traffic, free of the benchmark's own checking between requests and of
// the other classes. count gives a part's count.
func (p *phase) rate(count func(*part) int64, routes ...string) float64 {
	var rates []float64
	for _, pt := range p.parts {
		var busy time.Duration
		for _, rt := range routes {
			busy += pt.busy[rt]
		}
		if busy > 0 {
			rates = append(rates, float64(count(pt))/busy.Seconds())
		}
	}
	return median(rates)
}

// samples returns the latencies of the route classes in one part.
func (pt *part) samples(routes ...string) []float64 {
	var out []float64
	for _, rt := range routes {
		out = append(out, pt.lat[rt]...)
	}
	return out
}

// samples returns the latencies of the route classes over all parts.
func (p *phase) samples(routes ...string) []float64 {
	var out []float64
	for _, pt := range p.parts {
		out = append(out, pt.samples(routes...)...)
	}
	return out
}

// partTail is the median over parts of each part's tail.
func (p *phase) partTail(routes ...string) float64 {
	var tails []float64
	for _, pt := range p.parts {
		if xs := pt.samples(routes...); len(xs) > 0 {
			tails = append(tails, tail(xs))
		}
	}
	return median(tails)
}

func (r *run) endToEnd() map[string]metric {
	src := func(name string) *phase {
		for _, w := range home[name] {
			if w == r.workload {
				return r.main
			}
		}
		return r.probe
	}
	m := map[string]metric{
		"setup_s": {median(append([]float64(nil), r.setup...)), "s"},
		"heap_mb": {r.heapMB, "MB"},
	}
	p := src("obs_per_s")
	m["obs_per_s"] = metric{p.rate(func(pt *part) int64 { return pt.obs }, rIngest), "1/s"}
	m["ingest_p50_ms"] = metric{median(src("ingest_p50_ms").samples(rIngest)), "ms"}
	m["ingest_p99_ms"] = metric{src("ingest_p99_ms").partTail(rIngest), "ms"}
	m["window_p50_ms"] = metric{median(src("window_p50_ms").samples(rWindow)), "ms"}
	m["nearby_p50_ms"] = metric{median(src("nearby_p50_ms").samples(rNearby)), "ms"}
	m["atinstant_p50_ms"] = metric{median(src("atinstant_p50_ms").samples(rAtInstant)), "ms"}
	m["reads_per_s"] = metric{src("reads_per_s").rate(func(pt *part) int64 { return int64(len(pt.samples(readRoutes...))) }, readRoutes...), "1/s"}
	m["read_p99_ms"] = metric{src("read_p99_ms").partTail(readRoutes...), "ms"}
	m["query_p50_ms"] = metric{median(src("query_p50_ms").samples(rQuery)), "ms"}
	return m
}

// procMetrics are recorded in every run; a traced run reports them,
// an untraced one prints them to stderr.
func (r *run) procMetrics() map[string]metric {
	ops := max(r.counters["ops"], 1)
	return map[string]metric{
		"proc.alloc_kb_per_op": {float64(r.proc.bytes) / 1024 / ops, "KB"},
		"proc.mallocs_per_op":  {float64(r.proc.mallocs) / ops, "count"},
		"proc.gc_cycles":       {float64(r.proc.gcs), "count"},
		"host.ref_ms":          {median(append([]float64(nil), r.hostRef...)), "ms"},
	}
}

func (r *run) result(traced bool) result {
	res := result{Correct: r.wrong == 0, Attempted: r.attempt, Failed: r.failedTotal()}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", n)
	}
	proc := r.procMetrics()
	e2e := r.endToEnd()
	if traced {
		res.Metrics = r.layer
		for k, v := range proc {
			res.Metrics[k] = v
		}
		if line, err := json.Marshal(e2e); err == nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced end-to-end:", string(line))
		}
	} else {
		res.Metrics = e2e
		fmt.Fprintln(os.Stderr, "perfbench: proc:", render(proc))
	}
	for _, ph := range []struct {
		name string
		p    *phase
	}{{"main", r.main}, {"probe", r.probe}} {
		for _, rt := range append([]string{rIngest, rQuery}, readRoutes...) {
			if xs := ph.p.samples(rt); len(xs) > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s latency ms: n=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g\n", ph.name, rt, len(xs),
					quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1))
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: counters:", renderCounts(r.counters))
	fmt.Fprintln(os.Stderr, "perfbench: failed by route:", renderCounts(toFloat(r.failed)))
	return res
}

func toFloat(m map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

func render(m map[string]metric) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.4g%s ", k, m[k].Value, m[k].Unit)
	}
	return b.String()
}

func renderCounts(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%g ", k, m[k])
	}
	return b.String()
}
