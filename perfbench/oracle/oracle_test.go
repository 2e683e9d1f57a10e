package oracle

import (
	"math"
	"reflect"
	"testing"
)

func track(id string, s ...Sample) Track { return Track{ID: id, S: s} }

// A single-sample object is defined at its one instant only: it is in
// a window covering that instant and its position, at that instant in
// an atinstant answer, and a nearest neighbour there.
func TestSingleSampleObject(t *testing.T) {
	one := track("solo", Sample{T: 10, X: 3, Y: 4})
	if x, y, ok := one.PosAt(10); !ok || x != 3 || y != 4 {
		t.Fatalf("PosAt(10) = %v,%v,%v; want 3,4,true", x, y, ok)
	}
	if _, _, ok := one.PosAt(10.5); ok {
		t.Fatal("defined after its only sample")
	}
	if in, g := one.InWindow(Rect{0, 0, 5, 5}, 0, 10); !in || g {
		t.Fatalf("window [0,10] = %v graze %v; want in", in, g)
	}
	if in, _ := one.InWindow(Rect{0, 0, 5, 5}, 10.5, 20); in {
		t.Fatal("in a window after its only sample")
	}
	pos := AtInstant([]Track{one}, 10)
	if !reflect.DeepEqual(pos, []Position{{"solo", 3, 4}}) {
		t.Fatalf("AtInstant(10) = %v", pos)
	}
	hits := Nearest([]Track{one}, 0, 0, 10, -1)
	if len(hits) != 1 || hits[0].Dist != 5 {
		t.Fatalf("Nearest = %v; want solo at 5", hits)
	}
}

// A track whose segment touches the window's edge grazes: growing the
// window by Eps takes it in, shrinking it leaves it out. One clearly
// inside or outside does not.
func TestWindowEdgeGraze(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	// Runs along y = 10, the top edge, between t=0 and t=10.
	edge := track("edge", Sample{0, 2, 10}, Sample{10, 8, 10})
	if _, g := edge.InWindow(r, 0, 10); !g {
		t.Error("segment on the top edge does not graze")
	}
	// Passes 1 unit above the top edge.
	above := track("above", Sample{0, 2, 11}, Sample{10, 8, 11})
	if in, g := above.InWindow(r, 0, 10); in || g {
		t.Errorf("segment above: in=%v graze=%v; want out", in, g)
	}
	// Crosses the window diagonally, but only after t=5: with the window
	// closed at t=4 it is still outside (at t=4 it is at x=-2).
	late := track("late", Sample{0, -10, 5}, Sample{10, 10, 5})
	if in, g := late.InWindow(r, 0, 4); in || g {
		t.Errorf("late crosser in [0,4]: in=%v graze=%v; want out", in, g)
	}
	if in, g := late.InWindow(r, 0, 6); !in || g {
		t.Errorf("late crosser in [0,6]: in=%v graze=%v; want in", in, g)
	}
	in, graze := Window([]Track{edge, above, late}, r, 0, 6)
	if !reflect.DeepEqual(in, []string{"late"}) || !reflect.DeepEqual(graze, []string{"edge"}) {
		t.Errorf("Window = %v graze %v", in, graze)
	}
}

// Two objects at the same distance come out in id order, and a
// comparison accepts either order for the tie and either member at the
// cut.
func TestNearestTieBrokenByID(t *testing.T) {
	ts := []Track{
		track("b", Sample{0, 3, 4}, Sample{10, 3, 4}),
		track("a", Sample{0, -3, -4}, Sample{10, -3, -4}),
		track("c", Sample{0, 6, 8}, Sample{10, 6, 8}),
	}
	want := Nearest(ts, 0, 0, 5, -1)
	if !reflect.DeepEqual(want, []Hit{{"a", 5}, {"b", 5}, {"c", 10}}) {
		t.Fatalf("Nearest = %v", want)
	}
	for _, got := range [][]Hit{{{"a", 5}}, {{"b", 5}}} {
		if err := CheckNearest(got, want, 1, -1); err != nil {
			t.Errorf("k=1 answer %v rejected: %v", got, err)
		}
	}
	if err := CheckNearest([]Hit{{"b", 5}, {"a", 5}}, want, 2, -1); err != nil {
		t.Errorf("tie in registration order rejected: %v", err)
	}
	if err := CheckNearest([]Hit{{"c", 10}}, want, 1, -1); err == nil {
		t.Error("farther object accepted as the nearest")
	}
	if err := CheckNearest([]Hit{{"a", 5}}, want, 2, -1); err == nil {
		t.Error("short answer accepted")
	}
	// radius 7 admits a and b; the answer must hold both.
	if err := CheckNearest([]Hit{{"a", 5}, {"b", 5}}, Nearest(ts, 0, 0, 5, 7), 0, 7); err != nil {
		t.Errorf("radius answer rejected: %v", err)
	}
}

// Two segments that cross in space: if they pass the crossing at the
// same instant the minimum distance is 0; if one passes it later, the
// minimum is the closed-form vertex of the squared-distance quadratic.
func TestCrossingSegments(t *testing.T) {
	// a runs (0,0)→(10,0), b runs (5,-5)→(5,5), both over [0,10]: both
	// reach (5,0) at t=5.
	a := track("a", Sample{0, 0, 0}, Sample{10, 10, 0})
	b := track("b", Sample{0, 5, -5}, Sample{10, 5, 5})
	if d, ok := MinDistance(a, b); !ok || math.Abs(d) > 1e-12 {
		t.Errorf("simultaneous crossing: d=%v ok=%v; want 0", d, ok)
	}
	// c runs (5,-7)→(5,3): at time t, a is at (t,0), c at (5,t-7); the
	// offset is (t-5, 7-t), squared length 2t²-24t+74, least at t=6:
	// offset (1,1), distance √2.
	c := track("c", Sample{0, 5, -7}, Sample{10, 5, 3})
	if d, ok := MinDistance(a, c); !ok || math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("late crossing: d=%v ok=%v; want √2", d, ok)
	}
	// Disjoint definition times have no distance.
	e := track("e", Sample{20, 0, 0}, Sample{30, 1, 1})
	if _, ok := MinDistance(a, e); ok {
		t.Error("distance over disjoint times")
	}
	// A breakpoint inside the common time splits the pieces: f turns
	// at t=5 from heading toward a to heading away.
	f := track("f", Sample{0, 0, 10}, Sample{5, 5, 2}, Sample{10, 10, 10})
	if d, ok := MinDistance(a, f); !ok || math.Abs(d-2) > 1e-12 {
		t.Errorf("turning track: d=%v ok=%v; want 2", d, ok)
	}
	if l := PathLength(f.S); math.Abs(l-2*math.Hypot(5, 8)) > 1e-12 {
		t.Errorf("PathLength = %v", l)
	}
}

func TestCheckEdges(t *testing.T) {
	initial := map[string]bool{"x": true}
	final := map[string]bool{"x": true, "y": false}
	ok := []Edge{{"x", false}, {"y", true}, {"x", true}, {"y", false}}
	if err := CheckEdges(ok, initial, final); err != nil {
		t.Errorf("alternating stream rejected: %v", err)
	}
	if err := CheckEdges([]Edge{{"x", true}}, initial, final); err == nil {
		t.Error("enter while already inside accepted")
	}
	if err := CheckEdges([]Edge{{"y", true}}, initial, final); err == nil {
		t.Error("stream ending inside accepted for an object that ends outside")
	}
}

// A square with a square hole: the even-odd ray cast puts the hole
// outside, and a point on an edge (outer or hole) grazes.
func TestInsideRings(t *testing.T) {
	outer := [][2]float64{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := [][2]float64{{4, 4}, {6, 4}, {6, 6}, {4, 6}}
	rings := [][][2]float64{outer, hole}
	for _, c := range []struct {
		x, y      float64
		in, graze bool
	}{
		{2, 2, true, false},
		{5, 5, false, false},
		{12, 5, false, false},
		{10, 5, false, true}, // on the outer edge, whichever side the cast gives
		{5, 4, false, true},  // on the hole's edge
		{2, 5, true, false},  // the ray crosses the hole: two more crossings
	} {
		in, graze := InsideRings(rings, c.x, c.y)
		if graze != c.graze || (!graze && in != c.in) {
			t.Errorf("(%g,%g): in %v graze %v; want in %v graze %v", c.x, c.y, in, graze, c.in, c.graze)
		}
	}
}
