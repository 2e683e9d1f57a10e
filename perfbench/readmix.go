package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/perfbench/oracle"
)

// read-mix: a settled history bulk-loaded through ingest.Config.Seeds,
// read through a skewed pool of queries so some repeat within an epoch,
// with a trickle of small sync writes that advance the epoch.
const (
	rmObjects      = 1000
	rmSamples      = 401 // 400 units per object
	rmRoundsPerSec = 200 // rounds of len(rmMix) reads per --seconds
	rmWriteEvery   = 8   // rounds per trickle write (one write per 200 reads)
	rmWritePosts   = 2   // sync POSTs per trickle write, back to back
	rmWriteObs     = 5   // observations per POST
	rmWarmRounds   = 40
	rmSetups       = 3
	rmPageLimit    = 100
	rmProbesPerS   = 100 // probe groups per --seconds, run every rmRoundsPerSec rounds
)

// rmMix is one round's reads by route, in order.
var rmMix = []string{
	rWindow, rNearby, rWindow, rAtInstant, rNearby, rWindow, rObjects, rNearby, rWindow,
	rNearby, rWindow, rNearby, rAtInstant, rWindow, rNearby, rWindow, rObjects, rNearby,
	rWindow, rNearby, rWindow, rNearby, rWindow, rAtInstant, rNearby,
}

// rmInput is the whole pre-generated input of a read-mix run.
type rmInput struct {
	windows []windowQ
	nearby  []nearbyQ
	instant []float64
	zipf    map[string]*rand.Zipf
	writes  [][]ingest.Observation
	bodies  [][]byte
}

func runReadMix(opt options) (*run, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	cat, err := makeCatalog(50, 2, 20, 200)
	if err != nil {
		return nil, err
	}
	so := newSQLOracle(cat)
	m := newModel()
	ids := make([]string, rmObjects)
	seeds := make([]moving.MPoint, rmObjects)
	last := make([]oracle.Sample, rmObjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("o%04d", i)
		s := walk(rng, mainZone, 0, 1, rmSamples, 8)
		if seeds[i], err = mpoint(s); err != nil {
			return nil, err
		}
		for _, x := range s {
			m.observe(ids[i], x)
		}
		last[i] = s[len(s)-1]
	}
	tEnd := last[0].T

	// Query pools. Every read lies before tEnd, where trickle writes
	// (which land after tEnd) cannot change its answer.
	in := rmInput{zipf: map[string]*rand.Zipf{}}
	// Every read of a route has the same shape (window size and span, k),
	// so its cost depends on the data, not on a drawn size.
	for i := 0; i < 300; i++ {
		cx, cy := 500+rng.Float64()*9000, 500+rng.Float64()*9000
		t1 := rng.Float64() * (tEnd - 50)
		in.windows = append(in.windows, windowQ{
			r:  oracle.Rect{MinX: cx - 350, MinY: cy - 350, MaxX: cx + 350, MaxY: cy + 350},
			t1: t1, t2: t1 + 20,
		})
		in.nearby = append(in.nearby, nearbyQ{
			x: 500 + rng.Float64()*9000, y: 500 + rng.Float64()*9000,
			t: rng.Float64() * (tEnd - 1), k: 5,
		})
	}
	for i := 0; i < 60; i++ {
		in.instant = append(in.instant, rng.Float64()*(tEnd-1))
	}
	pools := map[string]int{rWindow: len(in.windows), rNearby: len(in.nearby), rAtInstant: len(in.instant), rObjects: rmObjects / rmPageLimit}
	for _, rt := range readRoutes {
		in.zipf[rt] = rand.NewZipf(rng, 1.2, 1, uint64(pools[rt]-1))
	}
	rounds := rmWarmRounds + rmRoundsPerSec*opt.seconds
	for w := 0; w < (rounds+rmWriteEvery-1)/rmWriteEvery*rmWritePosts; w++ {
		batch := make([]ingest.Observation, 0, rmWriteObs)
		for _, oi := range rng.Perm(rmObjects)[:rmWriteObs] {
			l := &last[oi]
			l.T += 1 + rng.Float64()*4
			l.X += (rng.Float64() - 0.5) * 40
			l.Y += (rng.Float64() - 0.5) * 40
			batch = append(batch, ingest.Observation{ObjectID: ids[oi], T: l.T, X: l.X, Y: l.Y})
		}
		body, err := encodeBatch(batch)
		if err != nil {
			return nil, err
		}
		in.writes = append(in.writes, batch)
		in.bodies = append(in.bodies, body)
	}
	picks := make([][]int, rounds)
	for i := range picks {
		for _, rt := range rmMix {
			picks[i] = append(picks[i], int(in.zipf[rt].Uint64()))
		}
	}

	sp := probeSpec{zone: mainZone, half: 350, t0: 0, t1: tEnd - 1, so: so}
	probes, err := makeProbes(rng, sp, rmProbesPerS*opt.seconds)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	r := newRun(wReadMix, tr)
	var s *stack
	for i := 0; i < rmSetups; i++ {
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
		if i == rmWarmRounds {
			base = s.metrics.Snapshot()
			if tr != nil {
				spanFrom = tr.now()
			}
			r.beginMain()
		}
		if i >= rmWarmRounds {
			r.segment(i-rmWarmRounds, rounds-rmWarmRounds)
		}
		if i%rmWriteEvery == 0 {
			for w := i / rmWriteEvery * rmWritePosts; w < (i/rmWriteEvery+1)*rmWritePosts; w++ {
				e.ingest(in.writes[w], in.bodies[w])
			}
		}
		for j, rt := range rmMix {
			k := picks[i][j]
			switch rt {
			case rWindow:
				e.window(in.windows[k])
			case rNearby:
				e.nearby(in.nearby[k])
			case rAtInstant:
				e.atInstant(in.instant[k])
			case rObjects:
				e.objects(rmPageLimit, k*rmPageLimit, i/rmWriteEvery)
			}
		}
		if k := i - rmWarmRounds + 1; k > 0 && k%rmRoundsPerSec == 0 {
			sub := 2 + (k/rmRoundsPerSec-1)*rmProbesPerS
			r.probeSub(e, probes[sub:sub+rmProbesPerS])
		}
	}
	r.endMain()
	end := s.metrics.Snapshot()

	r.counters["merges"] = float64(end.Ingest.IndexMerges - base.Ingest.IndexMerges)
	r.counters["epochs"] = float64(end.Epoch.Publishes - base.Epoch.Publishes)
	r.counters["cache_hits"] = float64(end.Cache.Hits - base.Cache.Hits)
	r.counters["cache_misses"] = float64(end.Cache.Misses - base.Cache.Misses)
	r.counters["answers_checked"] = float64(len(e.checked))
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
