// Package oracle computes the answers the benchmark expects from the
// moving objects store, straight from the raw samples the benchmark
// generated. It shares no constructor, unit type or kernel with the
// store: a track is a list of timestamped positions, and every answer
// is a brute-force pass over the straight segments between consecutive
// samples.
//
// Positions and distances are interpolated, so comparisons allow a
// stated tolerance Eps. A case whose answer flips when the query region
// or threshold is widened or narrowed by Eps grazes a boundary; the
// functions report it so the caller leaves it out of the comparison.
// Instants are not interpolated: the store receives the very floats
// the samples carry, so definition-time tests are exact.
package oracle

import (
	"fmt"
	"math"
	"sort"
)

// Eps is the tolerance of every comparison, in world units for
// positions and distances and in time units for instants.
const Eps = 1e-6

// Sample is one raw observation.
type Sample struct{ T, X, Y float64 }

// Track is one object's raw samples, strictly increasing in T.
type Track struct {
	ID string
	S  []Sample
}

// Rect is an axis-aligned rectangle, closed on every side.
type Rect struct{ MinX, MinY, MaxX, MaxY float64 }

func (r Rect) grow(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Contains reports whether (x, y) lies in the closed rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Start and End bound the track's definition time.
func (tr Track) Start() float64 { return tr.S[0].T }
func (tr Track) End() float64   { return tr.S[len(tr.S)-1].T }

// seg returns the index i of the segment [S[i], S[i+1]] whose time span
// contains t, or the last sample's index for t == End.
func (tr Track) seg(t float64) int {
	i := sort.Search(len(tr.S), func(i int) bool { return tr.S[i].T > t }) - 1
	if i >= len(tr.S)-1 {
		i = len(tr.S) - 1
	}
	return i
}

// PosAt interpolates the position at t linearly between the raw
// samples around it; ok is false outside [Start, End].
func (tr Track) PosAt(t float64) (x, y float64, ok bool) {
	if len(tr.S) == 0 || t < tr.Start() || t > tr.End() {
		return 0, 0, false
	}
	i := tr.seg(t)
	a := tr.S[i]
	if i == len(tr.S)-1 || t == a.T {
		return a.X, a.Y, true
	}
	b := tr.S[i+1]
	f := (t - a.T) / (b.T - a.T)
	return a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y), true
}

// segHitsRect reports whether the segment (x0,y0)-(x1,y1) meets the
// closed rectangle (Liang–Barsky clipping).
func segHitsRect(x0, y0, x1, y1 float64, r Rect) bool {
	lo, hi := 0.0, 1.0
	dx, dy := x1-x0, y1-y0
	for _, c := range [4][2]float64{
		{-dx, x0 - r.MinX}, {dx, r.MaxX - x0},
		{-dy, y0 - r.MinY}, {dy, r.MaxY - y0},
	} {
		p, q := c[0], c[1]
		if p == 0 {
			if q < 0 {
				return false
			}
			continue
		}
		f := q / p
		if p < 0 {
			lo = math.Max(lo, f)
		} else {
			hi = math.Min(hi, f)
		}
		if lo > hi {
			return false
		}
	}
	return true
}

// inWindow reports whether the track is inside r at some instant of
// [t1, t2].
func (tr Track) inWindow(r Rect, t1, t2 float64) bool {
	if len(tr.S) == 0 || t2 < t1 || t2 < tr.Start() || t1 > tr.End() {
		return false
	}
	if len(tr.S) == 1 {
		return r.Contains(tr.S[0].X, tr.S[0].Y)
	}
	lo, hi := math.Max(t1, tr.Start()), math.Min(t2, tr.End())
	for i := tr.seg(lo); i < len(tr.S)-1 && tr.S[i].T <= hi; i++ {
		ta, tb := math.Max(lo, tr.S[i].T), math.Min(hi, tr.S[i+1].T)
		xa, ya, _ := tr.PosAt(ta)
		xb, yb, _ := tr.PosAt(tb)
		if segHitsRect(xa, ya, xb, yb, r) {
			return true
		}
	}
	// hi == End with a single point left over (lo == hi == End).
	x, y, _ := tr.PosAt(hi)
	return r.Contains(x, y)
}

// InWindow decides membership in a window query. graze is true when
// growing the rectangle by Eps gives another answer than shrinking it
// by Eps; in is the answer for the shrunk rectangle.
func (tr Track) InWindow(r Rect, t1, t2 float64) (in, graze bool) {
	inner := tr.inWindow(r.grow(-Eps), t1, t2)
	outer := tr.inWindow(r.grow(Eps), t1, t2)
	return inner, inner != outer
}

// Window returns the ids of the tracks inside r during [t1, t2],
// sorted, and the ids whose membership grazes the boundary.
func Window(tracks []Track, r Rect, t1, t2 float64) (in, graze []string) {
	for _, tr := range tracks {
		i, g := tr.InWindow(r, t1, t2)
		switch {
		case g:
			graze = append(graze, tr.ID)
		case i:
			in = append(in, tr.ID)
		}
	}
	sort.Strings(in)
	sort.Strings(graze)
	return in, graze
}

// Position is one object's location at an instant.
type Position struct {
	ID   string
	X, Y float64
}

// AtInstant returns the position of every track defined at t, sorted
// by id.
func AtInstant(tracks []Track, t float64) []Position {
	var pos []Position
	for _, tr := range tracks {
		if x, y, ok := tr.PosAt(t); ok {
			pos = append(pos, Position{tr.ID, x, y})
		}
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i].ID < pos[j].ID })
	return pos
}

// Hit is one nearest-neighbour answer.
type Hit struct {
	ID   string
	Dist float64
}

// Nearest returns every track defined at t within radius of (x, y)
// (radius < 0: no bound), nearest first, ties broken by id. The caller
// cuts the list at k; keeping the tail lets a comparison resolve ties
// at the cut.
func Nearest(tracks []Track, x, y, t, radius float64) []Hit {
	var out []Hit
	for _, tr := range tracks {
		px, py, ok := tr.PosAt(t)
		if !ok {
			continue
		}
		d := math.Hypot(px-x, py-y)
		if radius < 0 || d <= radius+Eps {
			out = append(out, Hit{tr.ID, d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CheckNearest compares a k-nearest answer (k <= 0: no count bound)
// with the oracle's full candidate list from Nearest. Hits whose
// distances lie within Eps of each other may come in either order, and
// the cut at k or at the radius may fall anywhere inside such a group.
func CheckNearest(got, want []Hit, k int, radius float64) error {
	dist := make(map[string]float64, len(want))
	for _, h := range want {
		dist[h.ID] = h.Dist
	}
	// The answer's length: every candidate strictly inside the radius
	// must appear (up to k); none beyond it may.
	minN, maxN := 0, 0
	for _, h := range want {
		if radius < 0 || h.Dist <= radius-Eps {
			minN++
		}
		maxN++
	}
	if k > 0 {
		minN, maxN = min(minN, k), min(maxN, k)
	}
	if len(got) < minN || len(got) > maxN {
		return fmt.Errorf("nearest: %d hits, want %d..%d", len(got), minN, maxN)
	}
	seen := make(map[string]bool, len(got))
	for i, h := range got {
		d, ok := dist[h.ID]
		if !ok {
			return fmt.Errorf("nearest: hit %d %q is not a candidate", i, h.ID)
		}
		if seen[h.ID] {
			return fmt.Errorf("nearest: %q listed twice", h.ID)
		}
		seen[h.ID] = true
		if math.Abs(d-h.Dist) > Eps {
			return fmt.Errorf("nearest: %q at distance %g, want %g", h.ID, h.Dist, d)
		}
		if math.Abs(want[i].Dist-h.Dist) > Eps {
			return fmt.Errorf("nearest: rank %d is %q at %g, want distance %g", i, h.ID, h.Dist, want[i].Dist)
		}
	}
	return nil
}

// PathLength is the length of the polyline through the samples.
func PathLength(s []Sample) float64 {
	n := 0.0
	for i := 1; i < len(s); i++ {
		n += math.Hypot(s[i].X-s[i-1].X, s[i].Y-s[i-1].Y)
	}
	return n
}

// MinDistance is the smallest distance between two tracks over their
// common definition time, in closed form: between consecutive
// breakpoints of either track both move linearly, so the squared
// distance is a quadratic in t minimised at its vertex or an end. ok is
// false when the tracks share no instant.
func MinDistance(a, b Track) (d float64, ok bool) {
	lo, hi := math.Max(a.Start(), b.Start()), math.Min(a.End(), b.End())
	if lo > hi {
		return 0, false
	}
	cuts := []float64{lo, hi}
	for _, tr := range []Track{a, b} {
		for _, s := range tr.S {
			if s.T > lo && s.T < hi {
				cuts = append(cuts, s.T)
			}
		}
	}
	sort.Float64s(cuts)
	best := math.Inf(1)
	for i := 0; i+1 < len(cuts); i++ {
		best = math.Min(best, pieceMin(a, b, cuts[i], cuts[i+1]))
	}
	return best, true
}

// pieceMin minimises the distance over [t0, t1], where both tracks move
// linearly.
func pieceMin(a, b Track, t0, t1 float64) float64 {
	ax0, ay0, _ := a.PosAt(t0)
	bx0, by0, _ := b.PosAt(t0)
	ax1, ay1, _ := a.PosAt(t1)
	bx1, by1, _ := b.PosAt(t1)
	dx0, dy0 := ax0-bx0, ay0-by0
	vx, vy := (ax1-bx1)-dx0, (ay1-by1)-dy0 // change of the offset over the piece
	vv := vx*vx + vy*vy
	f := 0.0
	if vv > 0 {
		f = math.Max(0, math.Min(1, -(dx0*vx+dy0*vy)/vv))
	}
	return math.Hypot(dx0+f*vx, dy0+f*vy)
}

// InsideRings reports whether (x, y) lies inside the region the rings
// bound, outer rings and holes alike, by the even-odd rule of a ray cast
// towards +x; graze is true when the point lies within Eps of an edge,
// where the answer may go either way.
func InsideRings(rings [][][2]float64, x, y float64) (in, graze bool) {
	for _, ring := range rings {
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			if segPointDist(a, b, x, y) <= Eps {
				graze = true
			}
			if (a[1] > y) != (b[1] > y) && x < a[0]+(y-a[1])*(b[0]-a[0])/(b[1]-a[1]) {
				in = !in
			}
		}
	}
	return in, graze
}

// segPointDist is the distance from (x, y) to the segment a-b.
func segPointDist(a, b [2]float64, x, y float64) float64 {
	dx, dy := b[0]-a[0], b[1]-a[1]
	f := 0.0
	if l := dx*dx + dy*dy; l > 0 {
		f = math.Max(0, math.Min(1, ((x-a[0])*dx+(y-a[1])*dy)/l))
	}
	return math.Hypot(x-a[0]-f*dx, y-a[1]-f*dy)
}

// Present reports whether the track is defined at t.
func (tr Track) Present(t float64) bool {
	return len(tr.S) > 0 && t >= tr.Start() && t <= tr.End()
}

// Edge is one enter/leave event of a standing query, reduced to what
// the property check needs.
type Edge struct {
	Object string
	Enter  bool
}

// CheckEdges checks a standing query's event stream by property: for
// every object the edges alternate, the first flips the state the
// object had when the subscription opened (initial), and the state
// after the last edge equals the predicate at the object's final
// position (final). Objects absent from final are not checked at the
// end.
func CheckEdges(edges []Edge, initial, final map[string]bool) error {
	state := make(map[string]bool, len(initial))
	for id, in := range initial {
		state[id] = in
	}
	for i, e := range edges {
		if state[e.Object] == e.Enter {
			what := "enter"
			if !e.Enter {
				what = "leave"
			}
			return fmt.Errorf("edge %d: %s for %q repeats its state", i, what, e.Object)
		}
		state[e.Object] = e.Enter
	}
	for id, in := range final {
		if state[id] != in {
			return fmt.Errorf("object %q ends %v, predicate says %v", id, state[id], in)
		}
	}
	return nil
}
