package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"movingdb/internal/baseline"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
	"movingdb/perfbench/oracle"
)

// sqlQuery is one /v1/query request with the check of its rows.
type sqlQuery struct {
	tmpl  string
	sql   string
	check func(rows [][]any) error
}

// Query templates: the paper's §2 query 1, the §2 join, storm exposure,
// and present() over the long trips.
const (
	tQuery1  = "q1"
	tJoin    = "join"
	tStorm   = "storm"
	tPresent = "present"
)

var templates = []string{tQuery1, tJoin, tStorm, tPresent}

// sqlOracle holds the answers every template's rows are checked
// against, computed once from the raw samples: path lengths, closed-form
// pairwise minimum distances, and storm exposure through the paper's
// unsliced baseline representation (internal/baseline).
type sqlOracle struct {
	c        *catalog
	length   []float64
	pairMin  [][]float64 // [i][j] for planes i, j; NaN when they share no instant
	exposure [][]float64 // [plane][storm]: time inside
	faults   []string    // disagreements of baseline with plain geometry
	// crossChecked counts the instants where they were compared.
	crossChecked int
}

func newSQLOracle(c *catalog) *sqlOracle {
	o := &sqlOracle{c: c}
	n := len(c.planes)
	o.pairMin = make([][]float64, n)
	o.exposure = make([][]float64, n)
	storms := make([]baseline.NaiveMRegion, len(c.storms))
	for s, st := range c.storms {
		storms[s] = baseline.FromMRegion(st)
	}
	for i, p := range c.planes {
		o.length = append(o.length, oracle.PathLength(p.tr.S))
		o.pairMin[i] = make([]float64, n)
		for j, q := range c.planes {
			o.pairMin[i][j] = math.NaN()
			if d, ok := oracle.MinDistance(p.tr, q.tr); ok {
				o.pairMin[i][j] = d
			}
		}
		naive := baseline.FromMPoint(p.mp)
		for s, st := range storms {
			in := naive.Inside(st)
			o.exposure[i] = append(o.exposure[i], in.TrueDuration())
			faults, n := crossCheckStorm(p.tr, c.storms[s], in)
			o.faults = append(o.faults, faults...)
			o.crossChecked += n
		}
	}
	return o
}

// crossSamples is the number of instants of each flight at which
// crossCheckStorm compares.
const crossSamples = 64

// crossCheckStorm checks baseline's inside of one plane and one storm
// at instants spread over the flight. The plane's position comes from
// its raw samples, and the storm's polygon from its moving segments'
// vertex motions, evaluated here, with an even-odd ray cast: what
// baseline shares with the store (MPointFromSamples units and the
// UPointInsideURegion kernel) is checked against plain geometry.
// Instants within Eps of a storm unit's end or of an edge are skipped;
// n counts the others.
func crossCheckStorm(tr oracle.Track, storm moving.MRegion, in moving.MBool) (faults []string, n int) {
	for k := 0; k < crossSamples; k++ {
		t := tr.Start() + (float64(k)+0.5)/crossSamples*(tr.End()-tr.Start())
		x, y, _ := tr.PosAt(t)
		var rings [][][2]float64
		for _, u := range storm.M.Units() {
			if t > float64(u.Iv.Start)+oracle.Eps && t < float64(u.Iv.End)-oracle.Eps {
				for _, f := range u.Faces {
					for _, c := range f.MCycles() {
						ring := make([][2]float64, len(c))
						for j, m := range c {
							ring[j] = [2]float64{m.X0 + m.X1*t, m.Y0 + m.Y1*t}
						}
						rings = append(rings, ring)
					}
				}
				break
			}
		}
		if rings == nil {
			continue
		}
		want, graze := oracle.InsideRings(rings, x, y)
		if graze {
			continue
		}
		n++
		got, ok := in.AtInstant(temporal.Instant(t)).Get()
		if !ok || got != want {
			faults = append(faults, fmt.Sprintf("%s at t=%g: baseline inside %v (defined %v), polygon says %v", tr.ID, t, got, ok, want))
		}
	}
	return faults, n
}

// near reports whether v lies within the tolerance of the threshold c:
// such a row may or may not be in the answer.
func near(v, c float64) bool { return math.Abs(v-c) <= oracle.Eps*math.Max(1, math.Abs(c)) }

// rowSet checks rows (rendered as keys) against the expected keys and
// the keys that graze the threshold.
func rowSet(rows [][]any, cols int, want, graze map[string]bool) error {
	seen := map[string]bool{}
	for _, r := range rows {
		if len(r) != cols {
			return fmt.Errorf("row %v has %d columns, want %d", r, len(r), cols)
		}
		parts := make([]string, cols)
		for i, v := range r {
			parts[i] = fmt.Sprint(v)
		}
		k := strings.Join(parts, "|")
		if seen[k] {
			return fmt.Errorf("row %s twice", k)
		}
		seen[k] = true
		if !want[k] && !graze[k] {
			return fmt.Errorf("unexpected row %s", k)
		}
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("missing row %s", k)
		}
	}
	return nil
}

// query1 is §2 query 1: the airline's flights longer than L.
func (o *sqlOracle) query1(rng *rand.Rand) sqlQuery {
	airline := workload.Airlines[rng.Intn(len(workload.Airlines))]
	l := 100 + rng.Float64()*800
	want, graze := map[string]bool{}, map[string]bool{}
	for i, p := range o.c.planes {
		k := p.airline + "|" + p.tr.ID
		switch {
		case p.airline != airline:
		case near(o.length[i], l):
			graze[k] = true
		case o.length[i] > l:
			want[k] = true
		}
	}
	return sqlQuery{
		tmpl: tQuery1,
		sql:  fmt.Sprintf("SELECT airline, id FROM planes WHERE airline = '%s' AND length(trajectory(flight)) > %s", airline, lit(l)),
		check: func(rows [][]any) error {
			return rowSet(rows, 2, want, graze)
		},
	}
}

// join is the §2 join: pairs of planes that come closer than d.
func (o *sqlOracle) join(rng *rand.Rand) sqlQuery {
	d := 5 + rng.Float64()*45
	want, graze := map[string]bool{}, map[string]bool{}
	for i, p := range o.c.planes {
		for j, q := range o.c.planes {
			m := o.pairMin[i][j]
			if p.tr.ID >= q.tr.ID || math.IsNaN(m) {
				continue
			}
			k := p.airline + "|" + p.tr.ID + "|" + q.airline + "|" + q.tr.ID
			switch {
			case near(m, d):
				graze[k] = true
			case m < d:
				want[k] = true
			}
		}
	}
	return sqlQuery{
		tmpl: tJoin,
		sql: "SELECT p.airline, p.id, q.airline, q.id FROM planes p, planes q WHERE p.id < q.id" +
			" AND val(initial(atmin(distance(p.flight, q.flight)))) < " + lit(d),
		check: func(rows [][]any) error {
			return rowSet(rows, 4, want, graze)
		},
	}
}

// storm is storm exposure: how long each plane spent inside each storm
// it met, for exposures above c.
func (o *sqlOracle) storm(rng *rand.Rand) sqlQuery {
	c := rng.Float64() * 5
	want, graze := map[string]bool{}, map[string]bool{}
	dur := map[string]float64{}
	for i, p := range o.c.planes {
		for s, name := range o.c.names {
			e := o.exposure[i][s]
			k := name + "|" + p.tr.ID
			dur[k] = e
			switch {
			case near(e, c):
				graze[k] = true
			case e > c:
				want[k] = true
			}
		}
	}
	return sqlQuery{
		tmpl: tStorm,
		sql: "SELECT s.name, p.id, duration(inside(p.flight, s.extent)) AS exposure FROM planes p, storms s" +
			" WHERE sometimes(inside(p.flight, s.extent)) AND duration(inside(p.flight, s.extent)) > " + lit(c),
		check: func(rows [][]any) error {
			keyed := make([][]any, 0, len(rows))
			for _, r := range rows {
				if len(r) != 3 {
					return fmt.Errorf("row %v has %d columns, want 3", r, len(r))
				}
				k := fmt.Sprint(r[0]) + "|" + fmt.Sprint(r[1])
				got, ok := r[2].(float64)
				if !ok || math.Abs(got-dur[k]) > oracle.Eps*math.Max(1, dur[k]) {
					return fmt.Errorf("exposure %s = %v, oracle %g", k, r[2], dur[k])
				}
				keyed = append(keyed, r[:2])
			}
			return rowSet(keyed, 2, want, graze)
		},
	}
}

// present lists the trips defined at instant t.
func (o *sqlOracle) present(rng *rand.Rand) sqlQuery {
	t := rng.Float64() * 1000
	want := map[string]bool{}
	for _, tr := range o.c.trips {
		if tr.Present(t) {
			want[tr.ID] = true
		}
	}
	return sqlQuery{
		tmpl: tPresent,
		sql:  "SELECT name FROM trips WHERE present(path, " + lit(t) + ")",
		check: func(rows [][]any) error {
			return rowSet(rows, 1, want, nil)
		},
	}
}

func (o *sqlOracle) make(tmpl string, rng *rand.Rand) sqlQuery {
	switch tmpl {
	case tQuery1:
		return o.query1(rng)
	case tJoin:
		return o.join(rng)
	case tStorm:
		return o.storm(rng)
	}
	return o.present(rng)
}

// lit renders a float as a SQL literal the dialect reads back exactly.
func lit(v float64) string { return fmt.Sprintf("%.17g", v) }
