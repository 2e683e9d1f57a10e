package main

import (
	"math/rand"
	"runtime"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/workload"
	"movingdb/perfbench/oracle"
)

// paper-sql: the paper's query language on /v1/query over moserver's
// planes and storms plus a relation of long trips, all stored through
// the §4 page store and loaded at set-up.
const (
	psPlanes       = 50
	psStorms       = 4
	psTrips        = 200
	psTripLen      = 1000
	psRoundsPerSec = 80
	psWarmRounds   = 20
	psSetups       = 5
	psProbesPerS   = 200 // probe groups per --seconds, run every psRoundsPerSec rounds
)

// psMix is one round's queries; the cheap present() template runs twice
// so the median query falls inside one template's latencies rather than
// on the boundary between two.
var psMix = []string{tPresent, tQuery1, tPresent, tStorm, tJoin}

func runPaperSQL(opt options) (*run, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	cat, err := makeCatalog(psPlanes, psStorms, psTrips, psTripLen)
	if err != nil {
		return nil, err
	}
	so := newSQLOracle(cat)
	m := newModel()
	ids := make([]string, len(cat.planes))
	seeds := make([]moving.MPoint, len(cat.planes))
	for i, p := range cat.planes {
		ids[i], seeds[i] = p.tr.ID, p.mp
		for _, x := range p.tr.S {
			m.observe(p.tr.ID, x)
		}
	}

	rounds := psWarmRounds + psRoundsPerSec*opt.seconds
	queries := make([][]sqlQuery, rounds)
	for i := range queries {
		for _, t := range psMix {
			queries[i] = append(queries[i], so.make(t, rng))
		}
	}
	sp := probeSpec{write: true, zone: oracle.Rect{MaxX: workload.WorldSize, MaxY: workload.WorldSize}, half: 100, t0: 0, t1: 500, so: so}
	probes, err := makeProbes(rng, sp, psProbesPerS*opt.seconds)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	r := newRun(wPaperSQL, tr)
	for _, f := range so.faults {
		r.mismatch("storm cross-check: %s", f)
	}
	var s *stack
	for i := 0; i < psSetups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		s, err = openStack(stackConfig{stored: cat.stored, seedIDs: ids, seeds: seeds, tr: tr})
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer s.close()
	e := newEnv(r, s, m)
	base := s.metrics.Snapshot()
	var spanFrom int64
	for i := 0; i < rounds; i++ {
		if i < 2 {
			probeOnce(e, probes[i]) // registers the probe objects, untimed
		}
		if i == psWarmRounds {
			base = s.metrics.Snapshot()
			if tr != nil {
				spanFrom = tr.now()
			}
			r.beginMain()
		}
		if i >= psWarmRounds {
			r.segment(i-psWarmRounds, rounds-psWarmRounds)
		}
		for _, q := range queries[i] {
			e.query(q)
		}
		if k := i - psWarmRounds + 1; k > 0 && k%psRoundsPerSec == 0 {
			sub := 2 + (k/psRoundsPerSec-1)*psProbesPerS
			r.probeSub(e, probes[sub:sub+psProbesPerS])
		}
	}
	r.endMain()
	end := s.metrics.Snapshot()

	r.counters["epochs"] = float64(end.Epoch.Publishes - base.Epoch.Publishes)
	r.counters["cache_misses"] = float64(end.Cache.Misses - base.Cache.Misses)
	r.counters["storm_instants_checked"] = float64(so.crossChecked)
	if tr != nil {
		err = layerReplay(e, cat, base, end, spanFrom, func() (*ingest.Pipeline, error) {
			return ingest.Open(ingest.Config{SeedIDs: ids, Seeds: seeds})
		})
		if err != nil {
			return nil, err
		}
	}
	r.heapMB = s.heapMB()
	return r, nil
}
