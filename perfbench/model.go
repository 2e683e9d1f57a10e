package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"movingdb/internal/ingest"
	"movingdb/perfbench/oracle"
)

// model is the oracle's copy of the store's objects: every raw sample
// sent, per object, in the order the store registers objects (first
// appearance).
type model struct {
	tracks []oracle.Track
	idx    map[string]int
}

func newModel() *model { return &model{idx: map[string]int{}} }

func (m *model) observe(id string, s oracle.Sample) {
	i, ok := m.idx[id]
	if !ok {
		i = len(m.tracks)
		m.idx[id] = i
		m.tracks = append(m.tracks, oracle.Track{ID: id})
	}
	m.tracks[i].S = append(m.tracks[i].S, s)
}

func (m *model) observeBatch(b []ingest.Observation) {
	for _, o := range b {
		m.observe(o.ObjectID, oracle.Sample{T: o.T, X: o.X, Y: o.Y})
	}
}

// single reports whether the object has reported exactly once: it has
// no unit in the store, which is the fault the checks single out.
func (m *model) single(id string) bool {
	i, ok := m.idx[id]
	return ok && len(m.tracks[i].S) == 1
}

// outcome of checking one answer.
type outcome int

const (
	okAnswer outcome = iota
	// faultAnswer: the answer is exactly the correct one minus the
	// objects that have reported once (the single-observation fault).
	faultAnswer
	wrongAnswer
)

// sameSet reports whether got equals want up to the grazing ids, which
// may be present or absent.
func sameSet(got []string, want, graze map[string]bool) bool {
	seen := make(map[string]bool, len(got))
	for _, id := range got {
		if seen[id] || (!want[id] && !graze[id]) {
			return false
		}
		seen[id] = true
	}
	for id := range want {
		if !seen[id] {
			return false
		}
	}
	return true
}

// judge compares got against the correct set, and against the correct
// set without its single-observation members.
func (m *model) judge(got []string, want []string, graze []string) outcome {
	w, g := map[string]bool{}, map[string]bool{}
	for _, id := range graze {
		g[id] = true
	}
	hasSingle := false
	for _, id := range want {
		w[id] = true
		hasSingle = hasSingle || m.single(id)
	}
	if sameSet(got, w, g) {
		return okAnswer
	}
	if hasSingle {
		for id := range w {
			if m.single(id) {
				delete(w, id)
			}
		}
		if sameSet(got, w, g) {
			return faultAnswer
		}
	}
	return wrongAnswer
}

type windowQ struct {
	r      oracle.Rect
	t1, t2 float64
}

func (q windowQ) path() string {
	return "/v1/window?x1=" + f64(q.r.MinX) + "&y1=" + f64(q.r.MinY) + "&x2=" + f64(q.r.MaxX) +
		"&y2=" + f64(q.r.MaxY) + "&t1=" + f64(q.t1) + "&t2=" + f64(q.t2) + "&limit=10000"
}

type nearbyQ struct {
	x, y, t, radius float64
	k               int
}

func (q nearbyQ) path() string {
	p := "/v1/nearby?x=" + f64(q.x) + "&y=" + f64(q.y) + "&t=" + f64(q.t) + "&k=" + strconv.Itoa(q.k)
	if q.radius > 0 {
		p += "&radius=" + f64(q.radius)
	}
	return p
}

func atInstantPath(t float64) string { return "/v1/atinstant?t=" + f64(t) }

func f64(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

func (m *model) checkWindow(body []byte, q windowQ) (outcome, error) {
	var resp struct {
		Total int      `json:"total"`
		IDs   []string `json:"ids"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return wrongAnswer, err
	}
	if resp.Total != len(resp.IDs) {
		return wrongAnswer, fmt.Errorf("window total %d, %d ids", resp.Total, len(resp.IDs))
	}
	in, graze := oracle.Window(m.tracks, q.r, q.t1, q.t2)
	o := m.judge(resp.IDs, in, graze)
	if o == wrongAnswer {
		return o, fmt.Errorf("window %v [%g,%g]: got %d ids, oracle %d (+%d grazing)", q.r, q.t1, q.t2, len(resp.IDs), len(in), len(graze))
	}
	return o, nil
}

func (m *model) checkAtInstant(body []byte, t float64) (outcome, error) {
	var raw struct {
		Positions []struct {
			ID string  `json:"id"`
			X  float64 `json:"x"`
			Y  float64 `json:"y"`
		} `json:"positions"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return wrongAnswer, err
	}
	want := oracle.AtInstant(m.tracks, t)
	pos := make(map[string]oracle.Position, len(want))
	ids := make([]string, 0, len(want))
	for _, p := range want {
		pos[p.ID] = p
		ids = append(ids, p.ID)
	}
	got := make([]string, 0, len(raw.Positions))
	for _, p := range raw.Positions {
		w, ok := pos[p.ID]
		if ok && (math.Abs(w.X-p.X) > oracle.Eps || math.Abs(w.Y-p.Y) > oracle.Eps) {
			return wrongAnswer, fmt.Errorf("atinstant t=%g: %s at (%g,%g), oracle (%g,%g)", t, p.ID, p.X, p.Y, w.X, w.Y)
		}
		got = append(got, p.ID)
	}
	o := m.judge(got, ids, nil)
	if o == wrongAnswer {
		return o, fmt.Errorf("atinstant t=%g: got %d positions, oracle %d", t, len(got), len(ids))
	}
	return o, nil
}

func (m *model) checkNearby(body []byte, q nearbyQ) (outcome, error) {
	var resp struct {
		Results []struct {
			ID   string  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return wrongAnswer, err
	}
	got := make([]oracle.Hit, len(resp.Results))
	for i, h := range resp.Results {
		got[i] = oracle.Hit{ID: h.ID, Dist: h.Dist}
	}
	radius := q.radius
	if radius <= 0 {
		radius = -1
	}
	want := oracle.Nearest(m.tracks, q.x, q.y, q.t, radius)
	err := oracle.CheckNearest(got, want, q.k, radius)
	if err == nil {
		return okAnswer, nil
	}
	// Would a single-observation object have been in the answer? Then
	// check against the candidates without them.
	cut := want
	if q.k > 0 && len(cut) > q.k {
		cut = cut[:q.k]
	}
	hasSingle := false
	for _, h := range cut {
		hasSingle = hasSingle || m.single(h.ID)
	}
	if hasSingle {
		rest := make([]oracle.Hit, 0, len(want))
		for _, h := range want {
			if !m.single(h.ID) {
				rest = append(rest, h)
			}
		}
		if oracle.CheckNearest(got, rest, q.k, radius) == nil {
			return faultAnswer, nil
		}
	}
	return wrongAnswer, fmt.Errorf("nearby %+v: %v", q, err)
}

// checkObjects checks one page of /v1/objects: registration order,
// definition times, and a unit count between one and the number of
// sample gaps (the store may merge collinear steps into one unit).
func (m *model) checkObjects(body []byte, limit, offset int) error {
	var resp struct {
		Total   int `json:"total"`
		Objects []struct {
			ID    string  `json:"id"`
			Units int     `json:"units"`
			From  float64 `json:"from"`
			To    float64 `json:"to"`
		} `json:"objects"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Total != len(m.tracks) {
		return fmt.Errorf("objects total %d, oracle %d", resp.Total, len(m.tracks))
	}
	want := m.tracks[min(offset, len(m.tracks)):min(offset+limit, len(m.tracks))]
	if len(resp.Objects) != len(want) {
		return fmt.Errorf("objects page of %d, oracle %d", len(resp.Objects), len(want))
	}
	for i, o := range resp.Objects {
		tr := want[i]
		n := len(tr.S)
		if o.ID != tr.ID || o.From != tr.Start() || o.To != tr.End() ||
			(n > 1 && (o.Units < 1 || o.Units > n-1)) || (n == 1 && o.Units != 0) {
			return fmt.Errorf("objects[%d] = %+v, oracle %s %d samples [%g,%g]", offset+i, o, tr.ID, n, tr.Start(), tr.End())
		}
	}
	return nil
}
