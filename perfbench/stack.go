package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/storage"
)

// stackConfig is what differs between the workloads' stacks; every
// other setting is cmd/moserver's default.
type stackConfig struct {
	stored  []*db.StoredRelation // the catalog, loaded at set-up
	seedIDs []string
	seeds   []moving.MPoint
	wal     *storage.PageStore // WAL medium; recovered by ingest.Open
	tr      *tracer            // nil: no seams wrapped
}

// stack is one in-process server over a loopback listener.
type stack struct {
	metrics *obs.Metrics
	pipe    *ingest.Pipeline
	reg     *live.Registry
	ts      *httptest.Server
	cl      *client
	catalog db.Catalog
}

// openStack builds the stack as cmd/moserver -ingest does — the
// catalog, ingest.Open with live.Registry.Notify as OnPublish, and
// server.New — and returns once the first request has been served.
func openStack(c stackConfig) (*stack, error) {
	cat := db.Catalog{}
	for _, sr := range c.stored {
		rel, err := sr.Load()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", sr.Name, err)
		}
		cat[sr.Name] = rel
	}
	metrics := obs.New(0)
	reg := live.NewRegistry(live.Config{BufferCap: 256, Metrics: metrics})
	icfg := ingest.Config{
		SeedIDs:           c.seedIDs,
		Seeds:             c.seeds,
		Log:               c.wal,
		FlushSize:         32,
		MaxAge:            100 * time.Millisecond,
		MaxQueued:         65536,
		CheckpointPages:   256,
		RetryAttempts:     4,
		DegradedThreshold: 3,
		ProbeInterval:     time.Second,
		Metrics:           metrics,
		OnPublish:         reg.Notify,
	}
	scfg := server.Config{
		Catalog:            cat,
		ObjectIDs:          c.seedIDs,
		Objects:            c.seeds,
		QueryTimeout:       10 * time.Second,
		MaxTimeout:         60 * time.Second,
		MaxQueryLen:        8192,
		MaxBodyBytes:       1 << 20,
		SlowQueryThreshold: 500 * time.Millisecond,
		Logger:             log.New(io.Discard, "", 0),
		Metrics:            metrics,
		Live:               reg,
		SSEHeartbeat:       15 * time.Second,
	}
	if c.tr != nil {
		c.tr.wrapStack(&icfg, &scfg, metrics)
	}
	pipe, err := ingest.Open(icfg)
	if err != nil {
		reg.Close()
		return nil, err
	}
	scfg.Ingest = pipe
	srv, err := server.New(scfg)
	if err != nil {
		reg.Close()
		pipe.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if c.tr != nil {
		h = c.tr.handler(h)
	}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ReadTimeout = 5 * time.Second
	ts.Config.ReadHeaderTimeout = 5 * time.Second
	ts.Config.WriteTimeout = 65 * time.Second
	ts.Config.IdleTimeout = 120 * time.Second
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	s := &stack{metrics: metrics, pipe: pipe, reg: reg, ts: ts, cl: newClient(ts.URL), catalog: cat}
	if st, body, _, err := s.cl.get("/v1/healthz"); err != nil || st != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("first request: status %d err %v body %s", st, err, body)
	}
	return s, nil
}

// close stops the stack in moserver's shutdown order: registry, HTTP,
// pipeline, and drops every reference to it. Closing twice is a no-op.
// The HTTP server's handler is dropped too: a stopped timer stays in the
// runtime's timer heap until the runtime sweeps it out, and the timers
// that httptest.Server.Close and the query timeouts stop reach the
// http.Server, so through its handler they would keep the whole closed
// stack live.
func (s *stack) close() {
	if s.ts == nil {
		return
	}
	s.reg.Close()
	s.cl.hc.CloseIdleConnections()
	s.ts.Close()
	s.ts.Config.Handler = nil
	s.pipe.Close()
	*s = stack{}
}

// heapMB closes the stack and returns the live heap only it held: the
// live heap with the stack open minus the same right after closing it.
// The benchmark's own state (inputs, model, checks) is the same at both
// readings, so it cancels out.
func (s *stack) heapMB() float64 {
	open := liveHeapMB()
	s.close()
	return open - liveHeapMB()
}

// client is the single closed-loop client: one goroutine, one
// keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

// get and post return the status, the body (valid until the next call)
// and the time from sending the request to reading the last body byte.
func (c *client) get(path string) (int, []byte, time.Duration, error) {
	return c.do(http.MethodGet, path, nil)
}

func (c *client) post(path string, body []byte) (int, []byte, time.Duration, error) {
	return c.do(http.MethodPost, path, body)
}

func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), d, nil
}
