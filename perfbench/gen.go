package main

import (
	"fmt"
	"math"
	"math/rand"

	"movingdb/internal/db"
	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
	"movingdb/perfbench/oracle"
)

// mpoint builds the store's moving point from raw samples; the oracle
// keeps the samples themselves.
func mpoint(s []oracle.Sample) (moving.MPoint, error) {
	ms := make([]moving.Sample, len(s))
	for i, x := range s {
		ms[i] = moving.Sample{T: temporal.Instant(x.T), P: geom.Pt(x.X, x.Y)}
	}
	return moving.MPointFromSamples(ms)
}

// walker moves a point at a bounded speed inside a box, turning by a
// random angle each step and reflecting off the walls.
type walker struct {
	x, y, heading, speed float64
}

func (w *walker) step(rng *rand.Rand, dt float64, box oracle.Rect) {
	w.heading += (rng.Float64() - 0.5) * 1.2
	w.x += math.Cos(w.heading) * w.speed * dt
	w.y += math.Sin(w.heading) * w.speed * dt
	w.x = reflectInto(w.x, box.MinX, box.MaxX)
	w.y = reflectInto(w.y, box.MinY, box.MaxY)
}

func reflectInto(v, lo, hi float64) float64 {
	for v < lo || v > hi {
		if v < lo {
			v = 2*lo - v
		}
		if v > hi {
			v = 2*hi - v
		}
	}
	return v
}

// walk generates n samples dt apart from t0, starting at a random point
// of box.
func walk(rng *rand.Rand, box oracle.Rect, t0, dt float64, n int, speed float64) []oracle.Sample {
	w := walker{
		x:       box.MinX + rng.Float64()*(box.MaxX-box.MinX),
		y:       box.MinY + rng.Float64()*(box.MaxY-box.MinY),
		heading: rng.Float64() * 2 * math.Pi,
		speed:   speed * (0.5 + rng.Float64()),
	}
	out := make([]oracle.Sample, n)
	for i := range out {
		out[i] = oracle.Sample{T: t0 + float64(i)*dt, X: w.x, Y: w.y}
		w.step(rng, dt, box)
	}
	return out
}

// catalog is the /v1/query data every workload serves: moserver's
// planes and storms plus a relation of long trips, with the raw samples
// the oracle needs.
type catalog struct {
	planes  []plane
	storms  []moving.MRegion
	names   []string
	trips   []oracle.Track
	stored  []*db.StoredRelation
	units   int // moving-point units stored
	relByte int // stored bytes: inline tuples plus LOB pages
}

type plane struct {
	airline string
	tr      oracle.Track
	mp      moving.MPoint
}

var stormNames = []string{"Klaus", "Lothar", "Kyrill", "Xynthia"}

// catalogSeed fixes the catalog across runs, as moserver's default
// -seed fixes the catalog it serves; --seed varies the queries over it.
// The cost of a storm or join query depends on the planes' and storms'
// shapes, and the benchmark compares runs of different seeds.
const catalogSeed = 2000

// makeCatalog generates the catalog and stores every relation through
// the §4 page store (db.StoreRelation); set-up loads it back.
func makeCatalog(nPlanes, nStorms, nTrips, tripLen int) (*catalog, error) {
	rng := rand.New(rand.NewSource(catalogSeed))
	c := &catalog{}
	airports := workload.DefaultAirports()
	for i := 0; i < nPlanes; i++ {
		a := airports[rng.Intn(len(airports))].Pos
		b := airports[rng.Intn(len(airports))].Pos
		for b == a {
			b = airports[rng.Intn(len(airports))].Pos
		}
		dep := rng.Float64() * 200
		dist := a.Dist(b)
		dur := dist / (5 + rng.Float64()*3)
		legs := 2 + rng.Intn(3)
		s := []oracle.Sample{{T: dep, X: a.X, Y: a.Y}}
		for l := 1; l < legs; l++ {
			f := float64(l) / float64(legs)
			dx, dy := b.X-a.X, b.Y-a.Y
			dev := (rng.Float64() - 0.5) * 0.1 // offset along the normal, as a share of the leg
			s = append(s, oracle.Sample{T: dep + f*dur, X: a.X + f*dx - dy*dev, Y: a.Y + f*dy + dx*dev})
		}
		s = append(s, oracle.Sample{T: dep + dur, X: b.X, Y: b.Y})
		airline := workload.Airlines[rng.Intn(len(workload.Airlines))]
		id := fmt.Sprintf("%s%03d", workload.Airlines[i%len(workload.Airlines)][:2], i)
		mp, err := mpoint(s)
		if err != nil {
			return nil, err
		}
		c.planes = append(c.planes, plane{airline: airline, tr: oracle.Track{ID: id, S: s}, mp: mp})
	}
	g := workload.New(rng.Int63())
	for i := 0; i < nStorms; i++ {
		c.storms = append(c.storms, g.Storm(0, 40, 10, 6))
		c.names = append(c.names, stormNames[i%len(stormNames)])
	}
	world := oracle.Rect{MinX: 0, MinY: 0, MaxX: workload.WorldSize, MaxY: workload.WorldSize}
	for i := 0; i < nTrips; i++ {
		s := walk(rng, world, rng.Float64()*500, 1, tripLen, 3)
		c.trips = append(c.trips, oracle.Track{ID: fmt.Sprintf("trip%03d", i), S: s})
	}

	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	for _, p := range c.planes {
		if err := planes.Insert(db.Tuple{p.airline, p.tr.ID, p.mp}); err != nil {
			return nil, err
		}
		c.units += p.mp.M.Len()
	}
	storms := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	for i, s := range c.storms {
		if err := storms.Insert(db.Tuple{c.names[i], s}); err != nil {
			return nil, err
		}
	}
	trips := db.NewRelation("trips", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "path", Type: db.TMPoint},
	})
	for _, tr := range c.trips {
		mp, err := mpoint(tr.S)
		if err != nil {
			return nil, err
		}
		if err := trips.Insert(db.Tuple{tr.ID, mp}); err != nil {
			return nil, err
		}
		c.units += mp.M.Len()
	}
	for _, rel := range []*db.Relation{planes, storms, trips} {
		sr, err := db.StoreRelation(rel, storage.NewPageStore())
		if err != nil {
			return nil, err
		}
		c.stored = append(c.stored, sr)
		c.relByte += sr.InlineBytes() + sr.ExternalPages()*storage.PageSize
	}
	return c, nil
}

// probeSpec says where a workload's probes read — the zone and the
// instants of the history they cover — and whether they write.
type probeSpec struct {
	write  bool // false where the workload's own traffic already ingests
	zone   oracle.Rect
	half   float64 // window half-width
	t0, t1 float64 // reads fall in [t0, t1)
	radius float64 // nearby radius; 0 for none
	so     *sqlOracle
}

// Probe writes go to objects of their own, far from every workload's
// zone and history, so they never change another read's answer and
// never collide with a workload's own writes.
const (
	probeObjects = 5
	probeT0      = 1e6
	probeX       = -50000.0
)

// makeProbes generates n probe groups plus two for the warm-up, which
// register the probe objects with two samples each. Every read of a
// route has the same shape.
func makeProbes(rng *rand.Rand, sp probeSpec, n int) ([]probeGroup, error) {
	groups := make([]probeGroup, n+2)
	last := make([]oracle.Sample, probeObjects)
	for i := range last {
		last[i] = oracle.Sample{T: probeT0, X: probeX + 100*float64(i), Y: 0}
	}
	for i := range groups {
		g := &groups[i]
		for j := range last {
			if !sp.write {
				break
			}
			l := &last[j]
			l.T += 0.5 + rng.Float64()
			l.X += (rng.Float64() - 0.5) * 20
			l.Y += (rng.Float64() - 0.5) * 20
			g.batch = append(g.batch, ingest.Observation{ObjectID: fmt.Sprintf("probe%d", j), T: l.T, X: l.X, Y: l.Y})
		}
		if sp.write {
			var err error
			if g.body, err = encodeBatch(g.batch); err != nil {
				return nil, err
			}
		}
		at := func() (float64, float64) {
			return sp.zone.MinX + sp.half + rng.Float64()*(sp.zone.MaxX-sp.zone.MinX-2*sp.half),
				sp.zone.MinY + sp.half + rng.Float64()*(sp.zone.MaxY-sp.zone.MinY-2*sp.half)
		}
		cx, cy := at()
		t := sp.t0 + rng.Float64()*(sp.t1-sp.t0-10)
		g.window = windowQ{r: oracle.Rect{MinX: cx - sp.half, MinY: cy - sp.half, MaxX: cx + sp.half, MaxY: cy + sp.half}, t1: t, t2: t + 10}
		x, y := at()
		g.nearby = nearbyQ{x: x, y: y, t: sp.t0 + rng.Float64()*(sp.t1-sp.t0), k: 5, radius: sp.radius}
		g.t = sp.t0 + rng.Float64()*(sp.t1-sp.t0)
		g.query = sp.so.query1(rng)
	}
	return groups, nil
}
