package main

import (
	"context"
	"math/rand"
	"time"

	"movingdb/internal/baseline"
	"movingdb/internal/db"
	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/temporal"
)

// layerReplay fills a traced run's per-layer metrics: the spans the
// seams recorded during the timed phase, the program's own counters
// (obs snapshots at the start and end of the timed phase), and replays
// of the run's inputs straight into the layers' public functions.
// open returns a fresh pipeline in the state the run's stack started
// from.
func layerReplay(e *env, cat *catalog, base, end obs.Snapshot, from int64, open func() (*ingest.Pipeline, error)) error {
	tr, L := e.r.tr, e.r.layer
	put := func(name, unit string, v float64) { L[name] = metric{v, unit} }
	spanMedian := func(name string) float64 { return median(tr.durations(name, from)) }

	// server: handler spans per route, and bytes per read response.
	for _, path := range []string{"/v1/ingest", "/v1/window", "/v1/nearby", "/v1/atinstant", "/v1/query"} {
		put(routeMetric(path), "us", spanMedian("server "+path))
	}
	put("server.resp_bytes", "B", float64(tr.readBytes.Load())/float64(max(tr.readCount.Load(), 1)))

	// cache: port spans, hit ratio with its base, resident bytes.
	gets := tr.cacheGets.Load()
	put("cache.get_us", "us", spanMedian("cache.get"))
	put("cache.put_us", "us", spanMedian("cache.put"))
	put("cache.gets", "count", float64(gets))
	put("cache.hit_ratio", "ratio", float64(tr.cacheHits.Load())/float64(max(gets, 1)))
	put("cache.bytes", "B", float64(end.Cache.Bytes))

	// ingest and index: program counters over the timed phase.
	posted := 0
	for _, b := range e.batches {
		posted += len(b)
	}
	put("ingest.wal_put_us", "us", spanMedian("ingest.wal_put"))
	put("ingest.wal_bytes_per_obs", "B", float64(tr.walBytes.Load())/float64(max(posted, 1)))
	put("ingest.checkpoints", "count", float64(end.Ingest.WALCheckpoints-base.Ingest.WALCheckpoints))
	put("ingest.wal_pages", "count", float64(end.Ingest.WALPages-base.Ingest.WALPages))
	put("ingest.epochs", "count", float64(end.Epoch.Publishes-base.Epoch.Publishes))
	put("index.merges", "count", float64(end.Ingest.IndexMerges-base.Ingest.IndexMerges))
	put("index.delta_entries", "count", mean(e.deltaSeen))

	// ingest replay: every batch of the run straight into Pipeline.Ingest
	// and Pipeline.Flush, timing the flushes and those that merged.
	p, err := open()
	if err != nil {
		return err
	}
	var flushes, merged []float64
	_, _, merges := p.Store().IndexStats()
	for _, b := range e.batches {
		if _, err := p.Ingest(b); err != nil {
			p.Close()
			return err
		}
		start := time.Now()
		p.Flush()
		d := ms(time.Since(start))
		flushes = append(flushes, d)
		if _, _, m := p.Store().IndexStats(); m > merges {
			merges = m
			merged = append(merged, d)
		}
	}
	p.Close()
	put("ingest.flush_ms", "ms", median(flushes))
	put("index.merge_ms", "ms", median(merged))

	// index replay: rebuild the final epoch's entries from its units, then
	// bulk-load and search them.
	ep := e.s.pipe.Epoch()
	var entries []index.Entry
	for oi, sum := range ep.Summaries() {
		mp, _ := ep.Snapshot(sum.ID)
		for ui, u := range mp.M.Units() {
			entries = append(entries, index.Entry{Cube: u.Cube(), ID: int64(oi)<<32 | int64(ui)})
		}
	}
	start := time.Now()
	tree := index.Build(entries)
	put("index.build_ms", "ms", ms(time.Since(start)))
	dyn := index.NewDynamic(tree, 0)
	var searches []float64
	cands := 0
	var out []int64
	for _, q := range e.windows {
		cube := geom.Cube{Rect: geomRect(q), MinT: q.t1, MaxT: q.t2}
		start := time.Now()
		out, _ = dyn.Search(cube, out[:0])
		searches = append(searches, us(time.Since(start)))
		cands += len(out)
	}
	put("index.search_us", "us", median(searches))
	put("index.candidates_per_hit", "ratio", float64(cands)/float64(max(e.winHits, 1)))

	// epoch: the same reads, called directly on the pinned epoch.
	put("epoch.window_us", "us", median(e.epochUS[rWindow]))
	put("epoch.nearest_us", "us", median(e.epochUS[rNearby]))
	put("epoch.atinstant_us", "us", median(e.epochUS[rAtInstant]))

	// live: the publish hook's span and the registry's own counters.
	put("live.notify_us", "us", spanMedian("live.notify"))
	put("live.eval_us", "us", end.Live.AvgEvalMicros)
	put("live.events", "count", float64(end.Live.Events-base.Live.Events))
	put("live.coalesced", "count", float64(end.Live.Coalesced-base.Live.Coalesced))

	replayCatalog(e, cat, put)
	return nil
}

// replayCatalog measures the query layer and the kernels under it: each
// template's queries straight into db.QueryContext (with the operator
// timings of obs), the moving-type kernels on the catalog's data, the
// unsliced baseline beside them, and loading the stored relations.
func replayCatalog(e *env, cat *catalog, put func(string, string, float64)) {
	byTmpl := map[string][]sqlQuery{}
	for _, q := range e.queries {
		if len(byTmpl[q.tmpl]) < 200 {
			byTmpl[q.tmpl] = append(byTmpl[q.tmpl], q)
		}
	}
	so := newSQLOracle(cat)
	rng := rand.New(rand.NewSource(1))
	ops := obs.New(0) // operator timings of the replay alone
	ctx := obs.NewContext(context.Background(), ops)
	for _, t := range templates {
		for len(byTmpl[t]) < 20 {
			byTmpl[t] = append(byTmpl[t], so.make(t, rng))
		}
		var ds []float64
		for _, q := range byTmpl[t] {
			start := time.Now()
			if _, err := db.QueryContext(ctx, e.s.catalog, q.sql); err != nil {
				e.r.mismatch("db replay %s: %v", t, err)
			}
			ds = append(ds, us(time.Since(start)))
		}
		put("db.query_us."+t, "us", median(ds))
	}
	opSnap := ops.Snapshot()
	put("db.op.inside_us", "us", opSnap.Operators["inside"].AvgMicros)
	put("db.op.distance_us", "us", opSnap.Operators["distance"].AvgMicros)

	var inside, dist, pres []float64
	var sliced, naive time.Duration
	for _, p := range cat.planes {
		np := baseline.FromMPoint(p.mp)
		for _, s := range cat.storms {
			start := time.Now()
			p.mp.Inside(s)
			d := time.Since(start)
			inside = append(inside, us(d))
			sliced += d
			ns := baseline.FromMRegion(s)
			start = time.Now()
			np.Inside(ns)
			naive += time.Since(start)
		}
	}
	for i, p := range cat.planes {
		for _, q := range cat.planes[i+1:] {
			start := time.Now()
			p.mp.Distance(q.mp).AtMin()
			dist = append(dist, us(time.Since(start)))
		}
	}
	var trips []moving.MPoint
	for _, t := range e.s.catalog["trips"].Scan() {
		trips = append(trips, t[1].(moving.MPoint))
	}
	for i := 0; i < 2000; i++ {
		mp := trips[i%len(trips)]
		at := temporal.Instant(rng.Float64() * 1500)
		start := time.Now()
		for j := 0; j < 100; j++ {
			mp.Present(at)
		}
		pres = append(pres, float64(time.Since(start).Nanoseconds())/100)
	}
	put("moving.inside_us", "us", median(inside))
	put("moving.distance_atmin_us", "us", median(dist))
	put("moving.present_ns", "ns", median(pres))
	put("moving.baseline_inside_ratio", "ratio", naive.Seconds()/max(sliced.Seconds(), 1e-9))

	var loads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, sr := range cat.stored {
			if _, err := sr.Load(); err != nil {
				e.r.mismatch("storage replay %s: %v", sr.Name, err)
			}
		}
		loads = append(loads, ms(time.Since(start)))
	}
	put("storage.load_ms", "ms", median(loads))
	put("storage.bytes_per_unit", "B", float64(cat.relByte)/float64(max(cat.units, 1)))
}
