package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/temporal"
)

// env runs the operations of a workload through the HTTP stack: it
// times each request, checks its answer against the model, and in a
// traced run repeats each read directly on the pinned epoch.
type env struct {
	r *run
	s *stack
	m *model

	// checked remembers (path, body) pairs already verified, so a
	// repeated read is checked once; see checkOnce.
	checked map[checkKey]bool
	seed    maphash.Seed

	// Traced runs only.
	traced    bool
	epochUS   map[string][]float64 // route class → direct epoch call, µs
	deltaSeen []float64            // delta-buffer size seen by each read
	windows   []windowQ            // every window read, for the index replay
	winHits   int                  // objects in those answers
	batches   [][]ingest.Observation
	queries   []sqlQuery
}

type checkKey struct {
	path    string
	digest  uint64
	version int
}

func newEnv(r *run, s *stack, m *model) *env {
	return &env{
		r: r, s: s, m: m,
		checked: map[checkKey]bool{},
		seed:    maphash.MakeSeed(),
		traced:  r.tr != nil,
		epochUS: map[string][]float64{},
	}
}

// checkOnce reports whether body still needs checking: the answer to a
// read that does not depend on later writes is checked the first time
// its bytes are seen. version distinguishes model states for reads whose
// answer changes with writes.
func (e *env) checkOnce(path string, body []byte, version int) bool {
	k := checkKey{path, maphash.Bytes(e.seed, body), version}
	if e.checked[k] {
		return false
	}
	e.checked[k] = true
	return true
}

func (e *env) judge(route string, o outcome, err error) {
	switch o {
	case faultAnswer:
		e.r.fail(route)
	case wrongAnswer:
		e.r.mismatch("%s: %v", route, err)
	}
}

// get issues one timed read and returns its body, or nil after
// recording a failure.
func (e *env) get(route, path string) []byte {
	st, body, d, err := e.s.cl.get(path)
	e.r.record(route, d)
	if err != nil || st != http.StatusOK {
		e.r.mismatch("%s %s: status %d err %v: %s", route, path, st, err, body)
		return nil
	}
	if e.traced {
		_, delta, _ := e.s.pipe.Store().IndexStats()
		e.deltaSeen = append(e.deltaSeen, float64(delta))
	}
	return body
}

func (e *env) window(q windowQ) {
	path := q.path()
	body := e.get(rWindow, path)
	if body == nil {
		return
	}
	if e.traced {
		ep := e.s.pipe.Epoch()
		start := time.Now()
		ids := ep.Window(geomRect(q), temporal.Closed(temporal.Instant(q.t1), temporal.Instant(q.t2)))
		e.epochUS[rWindow] = append(e.epochUS[rWindow], us(time.Since(start)))
		e.windows = append(e.windows, q)
		e.winHits += len(ids)
	}
	if e.checkOnce(path, body, 0) {
		o, err := e.m.checkWindow(body, q)
		e.judge(rWindow, o, err)
	}
}

func (e *env) nearby(q nearbyQ) {
	path := q.path()
	body := e.get(rNearby, path)
	if body == nil {
		return
	}
	if e.traced {
		ep := e.s.pipe.Epoch()
		radius := q.radius
		if radius <= 0 {
			radius = -1
		}
		start := time.Now()
		ep.Nearest(q.x, q.y, temporal.Instant(q.t), q.k, radius)
		e.epochUS[rNearby] = append(e.epochUS[rNearby], us(time.Since(start)))
	}
	if e.checkOnce(path, body, 0) {
		o, err := e.m.checkNearby(body, q)
		e.judge(rNearby, o, err)
	}
}

func (e *env) atInstant(t float64) {
	path := atInstantPath(t)
	body := e.get(rAtInstant, path)
	if body == nil {
		return
	}
	if e.traced {
		ep := e.s.pipe.Epoch()
		start := time.Now()
		ep.AtInstant(temporal.Instant(t))
		e.epochUS[rAtInstant] = append(e.epochUS[rAtInstant], us(time.Since(start)))
	}
	if e.checkOnce(path, body, 0) {
		o, err := e.m.checkAtInstant(body, t)
		e.judge(rAtInstant, o, err)
	}
}

// objects reads one page of the object listing; its answer changes with
// every write, so the model's size is part of the check key.
func (e *env) objects(limit, offset int, version int) {
	path := "/v1/objects?limit=" + strconv.Itoa(limit) + "&offset=" + strconv.Itoa(offset)
	body := e.get(rObjects, path)
	if body == nil {
		return
	}
	if e.checkOnce(path, body, version) {
		if err := e.m.checkObjects(body, limit, offset); err != nil {
			e.r.mismatch("objects: %v", err)
		}
	}
}

// ingest posts one pre-encoded batch with ?sync=1 and adds it to the
// model once acknowledged.
func (e *env) ingest(batch []ingest.Observation, body []byte) {
	st, resp, d, err := e.s.cl.post("/v1/ingest?sync=1", body)
	e.r.record(rIngest, d)
	if err != nil || st != http.StatusAccepted {
		e.r.mismatch("ingest: status %d err %v: %s", st, err, resp)
		return
	}
	var ack struct {
		Accepted int  `json:"accepted"`
		Synced   bool `json:"synced"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || ack.Accepted != len(batch) || !ack.Synced {
		e.r.mismatch("ingest: ack %s for %d observations", resp, len(batch))
		return
	}
	e.m.observeBatch(batch)
	e.r.acked(len(batch))
	if e.traced {
		e.batches = append(e.batches, batch)
	}
}

// query runs one SQL query over /v1/query and checks its rows.
func (e *env) query(q sqlQuery) {
	st, body, d, err := e.s.cl.get("/v1/query?q=" + url.QueryEscape(q.sql))
	e.r.record(rQuery, d)
	if err != nil || st != http.StatusOK {
		e.r.mismatch("query %s: status %d err %v: %s", q.tmpl, st, err, body)
		return
	}
	var resp struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		e.r.mismatch("query %s: %v", q.tmpl, err)
		return
	}
	if err := q.check(resp.Rows); err != nil {
		e.r.mismatch("query %s (%s): %v", q.tmpl, q.sql, err)
	}
	if e.traced {
		e.queries = append(e.queries, q)
	}
}

func geomRect(q windowQ) geom.Rect {
	return geom.Rect{MinX: q.r.MinX, MinY: q.r.MinY, MaxX: q.r.MaxX, MaxY: q.r.MaxY}
}

// encodeBatch renders a batch as the /v1/ingest body.
func encodeBatch(b []ingest.Observation) ([]byte, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("encode batch: %w", err)
	}
	return body, nil
}
