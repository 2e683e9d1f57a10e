package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/storage"
	"movingdb/perfbench/oracle"
)

// fleet-ingest: a fleet of trackers reports every tick through sync
// POSTs while the history grows; a few reads at the current instant
// follow each tick, and standing subscriptions watch the fleet.
const (
	fleetTrackers    = 2000
	fleetHistTicks   = 20 // ticks in the WAL that set-up recovers
	fleetWarmTicks   = 4
	fleetTicksPerSec = 6  // timed ticks per --seconds
	fleetPosts       = 12 // sync POSTs per tick
	fleetArrivals    = 2  // new trackers per tick
	fleetDT          = 10.0
	fleetSetups      = 5
	fleetSubs        = 30
	fleetReads       = 6  // window and nearby reads per tick
	fleetProbesPerS  = 90 // probe groups per --seconds, run every fleetTicksPerSec ticks
)

var (
	mainZone    = oracle.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	arrivalZone = oracle.Rect{MinX: 20000, MinY: 0, MaxX: 21000, MaxY: 10000}
	// The sentinel flips in and out of its region every tick; its last
	// event tells the benchmark the notifier has drained.
	sentinelRegion = oracle.Rect{MinX: -1600, MinY: 400, MaxX: -1400, MaxY: 600}
)

// fleetGen generates the fleet tick by tick. Trackers walk inside the
// main zone. Arrivals report first at a point of the arrival zone that
// depends only on their arrival number, never on the seed, so the reads
// that meet the single-observation fault are the same in every run.
type fleetGen struct {
	rng   *rand.Rand
	ids   []string
	walk  []walker
	zone  []oracle.Rect
	tick  int
	nArr  int
	speed float64
}

func newFleetGen(rng *rand.Rand) *fleetGen {
	g := &fleetGen{rng: rng, speed: 8}
	for i := 0; i < fleetTrackers; i++ {
		g.add(fmt.Sprintf("t%05d", i), mainZone,
			mainZone.MinX+rng.Float64()*(mainZone.MaxX-mainZone.MinX),
			mainZone.MinY+rng.Float64()*(mainZone.MaxY-mainZone.MinY))
	}
	return g
}

func (g *fleetGen) add(id string, zone oracle.Rect, x, y float64) {
	g.ids = append(g.ids, id)
	g.zone = append(g.zone, zone)
	g.walk = append(g.walk, walker{x: x, y: y, heading: g.rng.Float64() * 2 * math.Pi, speed: g.speed * (0.5 + g.rng.Float64())})
}

// next returns the instant of the next tick and its observations,
// split into fleetPosts batches; the sentinel's report comes last.
func (g *fleetGen) next() (float64, [][]ingest.Observation) {
	t := float64(g.tick) * fleetDT
	if g.tick > 0 {
		for i := range g.walk {
			g.walk[i].step(g.rng, fleetDT, g.zone[i])
		}
		for a := 0; a < fleetArrivals; a++ {
			k := float64(g.nArr)
			g.add(fmt.Sprintf("u%05d", g.nArr), arrivalZone,
				arrivalZone.MinX+math.Mod(k*137, arrivalZone.MaxX-arrivalZone.MinX),
				arrivalZone.MinY+math.Mod(k*7919, arrivalZone.MaxY-arrivalZone.MinY))
			g.nArr++
		}
	}
	obs := make([]ingest.Observation, 0, len(g.ids)+1)
	for i, id := range g.ids {
		obs = append(obs, ingest.Observation{ObjectID: id, T: t, X: g.walk[i].x, Y: g.walk[i].y})
	}
	sy := 500.0
	if g.tick%2 == 1 {
		sy = 900
	}
	obs = append(obs, ingest.Observation{ObjectID: "s0", T: t, X: -1500, Y: sy})
	g.tick++
	per := (len(obs) + fleetPosts - 1) / fleetPosts
	var out [][]ingest.Observation
	for lo := 0; lo < len(obs); lo += per {
		out = append(out, obs[lo:min(lo+per, len(obs))])
	}
	return t, out
}

// fleetTick is one tick's pre-generated input.
type fleetTick struct {
	t       float64
	batches [][]ingest.Observation
	bodies  [][]byte
	windows []windowQ
	nearby  []nearbyQ
	mids    []float64 // instants inside the tick's interval
}

// tickInput generates a tick and its reads. Every read has the same
// shape (window size and span, k) so that its cost depends on the data,
// not on a drawn size.
func (g *fleetGen) tickInput() (fleetTick, error) {
	t, batches := g.next()
	ft := fleetTick{t: t, batches: batches}
	for _, b := range batches {
		body, err := encodeBatch(b)
		if err != nil {
			return ft, err
		}
		ft.bodies = append(ft.bodies, body)
	}
	for i := 0; i < fleetReads; i++ {
		cx, cy := 500+g.rng.Float64()*9000, 500+g.rng.Float64()*9000
		ft.windows = append(ft.windows, windowQ{
			r:  oracle.Rect{MinX: cx - 400, MinY: cy - 400, MaxX: cx + 400, MaxY: cy + 400},
			t1: t - fleetDT/2, t2: t,
		})
		ft.nearby = append(ft.nearby, nearbyQ{
			x: 1000 + g.rng.Float64()*8000, y: 1000 + g.rng.Float64()*8000,
			t: t, k: 5, radius: 3000,
		})
	}
	for i := 0; i < 3; i++ {
		ft.mids = append(ft.mids, t-fleetDT*(0.05+0.9*g.rng.Float64()))
	}
	return ft, nil
}

// walImage writes the fleet's first ticks through the program (a
// pipeline over a page store, untimed) and returns the serialised WAL.
func walImage(g *fleetGen, m *model) ([]byte, error) {
	ps := storage.NewPageStore()
	p, err := ingest.Open(ingest.Config{Log: ps})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleetHistTicks; i++ {
		_, batches := g.next()
		for _, b := range batches {
			if _, err := p.Ingest(b); err != nil {
				p.Close()
				return nil, err
			}
			p.Flush()
			m.observeBatch(b)
		}
	}
	p.Close()
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fleetSub is one standing query with the state the property check
// needs.
type fleetSub struct {
	id      string
	pred    live.Predicate
	initial map[string]bool
	edges   []oracle.Edge
	lastEp  uint64
}

// holds evaluates the predicate at the object's latest sample, as the
// registry does.
func (m *model) holds(p live.Predicate, id string) bool {
	i, ok := m.idx[id]
	if !ok {
		return false
	}
	s := m.tracks[i].S[len(m.tracks[i].S)-1]
	if p.Kind == live.KindWithin {
		return math.Hypot(s.X-p.X, s.Y-p.Y) <= p.Radius
	}
	r := p.Region
	return s.X >= r.MinX && s.X <= r.MaxX && s.Y >= r.MinY && s.Y <= r.MaxY
}

// truth is the predicate's state for every object it can watch.
func (m *model) truth(p live.Predicate) map[string]bool {
	out := map[string]bool{}
	if p.Kind != live.KindAppears {
		out[p.Object] = m.holds(p, p.Object)
		return out
	}
	for _, tr := range m.tracks {
		out[tr.ID] = m.holds(p, tr.ID)
	}
	return out
}

// subscribe opens the standing queries over POST /v1/subscribe.
func subscribe(e *env, rng *rand.Rand) ([]*fleetSub, error) {
	var preds []live.Predicate
	preds = append(preds, live.Predicate{Kind: live.KindInside, Object: "s0",
		Region: geomRect(windowQ{r: sentinelRegion})})
	for len(preds) < fleetSubs {
		id := fmt.Sprintf("t%05d", rng.Intn(fleetTrackers))
		s := e.m.tracks[e.m.idx[id]].S
		last := s[len(s)-1]
		switch len(preds) % 3 {
		case 0:
			preds = append(preds, live.Predicate{Kind: live.KindInside, Object: id,
				Region: geomRect(windowQ{r: oracle.Rect{MinX: last.X - 300, MinY: last.Y - 300, MaxX: last.X + 500, MaxY: last.Y + 500}})})
		case 1:
			preds = append(preds, live.Predicate{Kind: live.KindWithin, Object: id, X: last.X + 100, Y: last.Y, Radius: 400})
		default:
			cx, cy := 1000+rng.Float64()*8000, 1000+rng.Float64()*8000
			preds = append(preds, live.Predicate{Kind: live.KindAppears,
				Region: geomRect(windowQ{r: oracle.Rect{MinX: cx - 400, MinY: cy - 400, MaxX: cx + 400, MaxY: cy + 400}})})
		}
	}
	var subs []*fleetSub
	for _, p := range preds {
		body := map[string]any{"predicate": string(p.Kind)}
		switch p.Kind {
		case live.KindWithin:
			body["object"], body["x"], body["y"], body["radius"] = p.Object, p.X, p.Y, p.Radius
		case live.KindInside:
			body["object"] = p.Object
			fallthrough
		default:
			body["region"] = map[string]float64{"x1": p.Region.MinX, "y1": p.Region.MinY, "x2": p.Region.MaxX, "y2": p.Region.MaxY}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		st, resp, _, err := e.s.cl.post("/v1/subscribe", raw)
		if err != nil || st != http.StatusCreated {
			return nil, fmt.Errorf("subscribe %s: status %d err %v: %s", raw, st, err, resp)
		}
		var ack struct {
			ID string `json:"subscription_id"`
		}
		if err := json.Unmarshal(resp, &ack); err != nil {
			return nil, err
		}
		subs = append(subs, &fleetSub{id: ack.ID, pred: p, initial: e.m.truth(p)})
	}
	return subs, nil
}

// drain takes every subscription's buffered events.
func drain(e *env, subs []*fleetSub) {
	for _, s := range subs {
		sub, ok := e.s.reg.Get(s.id)
		if !ok {
			e.r.mismatch("subscription %s vanished", s.id)
			continue
		}
		evs, lagged := sub.Take()
		if lagged {
			e.r.mismatch("subscription %s dropped events", s.id)
		}
		for _, ev := range evs {
			s.edges = append(s.edges, oracle.Edge{Object: ev.Object, Enter: ev.Edge == "enter"})
			s.lastEp = ev.Epoch
		}
	}
}

// settle waits until the notifier has evaluated epoch final, a tick's
// last: the sentinel flips every tick, and its edge arrives with the
// tick's last publish. Every event up to that epoch is then drained.
func settle(e *env, subs []*fleetSub, final uint64) {
	sentinel, _ := e.s.reg.Get(subs[0].id)
	deadline := time.After(30 * time.Second)
	for drain(e, subs); subs[0].lastEp < final; drain(e, subs) {
		select {
		case <-sentinel.Wait():
		case <-deadline:
			e.r.mismatch("notifier did not reach epoch %d (sentinel at %d)", final, subs[0].lastEp)
			return
		}
	}
}

// checkSubs checks every subscription's stream by property.
func checkSubs(e *env, subs []*fleetSub) {
	events := 0
	for _, s := range subs {
		events += len(s.edges)
		if err := oracle.CheckEdges(s.edges, s.initial, e.m.truth(s.pred)); err != nil {
			e.r.mismatch("subscription %s %v: %v", s.id, s.pred, err)
		}
	}
	e.r.counters["live_events_checked"] = float64(events)
}

func runFleet(opt options) (*run, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	cat, err := makeCatalog(50, 2, 20, 200)
	if err != nil {
		return nil, err
	}
	so := newSQLOracle(cat)
	g := newFleetGen(rng)
	m := newModel()
	img, err := walImage(g, m)
	if err != nil {
		return nil, err
	}
	nTimed := fleetTicksPerSec * opt.seconds
	ticks := make([]fleetTick, 0, fleetWarmTicks+nTimed)
	for i := 0; i < fleetWarmTicks+nTimed; i++ {
		ft, err := g.tickInput()
		if err != nil {
			return nil, err
		}
		ticks = append(ticks, ft)
	}

	// Probes read the recovered history, where every arrival has
	// reported at least twice.
	sp := probeSpec{zone: mainZone, half: 400, t0: fleetDT, t1: (fleetHistTicks - 1) * fleetDT, radius: 3000, so: so}
	probes, err := makeProbes(rng, sp, fleetProbesPerS*opt.seconds)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	r := newRun(wFleet, tr)
	var s *stack
	for i := 0; i < fleetSetups; i++ {
		ps, err := storage.ReadPageStore(bytes.NewReader(img))
		if err != nil {
			return nil, err
		}
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		s, err = openStack(stackConfig{stored: cat.stored, wal: ps, tr: tr})
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer s.close()
	e := newEnv(r, s, m)
	subs, err := subscribe(e, rng)
	if err != nil {
		return nil, err
	}
	base := s.metrics.Snapshot()
	var spanFrom int64
	var final uint64 // the epoch of the last tick's last POST
	for i, ft := range ticks {
		switch {
		case i < 2:
			probeOnce(e, probes[i]) // registers the probe objects, untimed
		case i == fleetWarmTicks:
			base = s.metrics.Snapshot()
			if tr != nil {
				spanFrom = tr.now()
			}
			r.beginMain()
		}
		if i >= fleetWarmTicks {
			r.segment(i-fleetWarmTicks, nTimed)
		}
		for j, b := range ft.batches {
			e.ingest(b, ft.bodies[j])
		}
		final = s.pipe.Epoch().Seq()
		// The tick's reads start once the notifier has caught up, so the
		// standing queries' evaluation does not run beside them.
		settle(e, subs, final)
		for j := range ft.windows {
			e.window(ft.windows[j])
			e.nearby(ft.nearby[j])
		}
		for _, t := range ft.mids {
			e.atInstant(t)
		}
		e.atInstant(ft.t) // the arrivals' instant: they have reported once
		if k := i - fleetWarmTicks + 1; k > 0 && k%fleetTicksPerSec == 0 {
			sub := 2 + (k/fleetTicksPerSec-1)*fleetProbesPerS
			r.probeSub(e, probes[sub:sub+fleetProbesPerS])
		}
	}
	r.endMain()
	end := s.metrics.Snapshot()
	settle(e, subs, final)
	checkSubs(e, subs)
	r.counters["merges"] = float64(end.Ingest.IndexMerges - base.Ingest.IndexMerges)
	r.counters["checkpoints"] = float64(end.Ingest.WALCheckpoints - base.Ingest.WALCheckpoints)
	r.counters["wal_pages"] = float64(end.Ingest.WALPages - base.Ingest.WALPages)
	r.counters["epochs"] = float64(end.Epoch.Publishes - base.Epoch.Publishes)
	r.counters["objects"] = float64(len(m.tracks))
	if tr != nil {
		err = layerReplay(e, cat, base, end, spanFrom, func() (*ingest.Pipeline, error) {
			ps, err := storage.ReadPageStore(bytes.NewReader(img))
			if err != nil {
				return nil, err
			}
			return ingest.Open(ingest.Config{Log: ps})
		})
		if err != nil {
			return nil, err
		}
	}
	r.heapMB = s.heapMB()
	return r, nil
}
