package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"movingdb/internal/cache"
	"movingdb/internal/ingest"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/storage"
)

// span is one timed call into a layer. Spans of one HTTP request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the seams the program exposes:
// the HTTP handler, the result cache port, the WAL page I/O port and the
// epoch publish hook. The benchmark's client is single and closed-loop,
// so at most one request is in flight: a span opened while it runs is
// its child, whichever goroutine opens it.
type tracer struct {
	t0 time.Time // moguard: immutable

	mu    sync.Mutex
	spans []span // moguard: guarded by mu

	nextID  atomic.Uint64 // moguard: atomic
	nextReq atomic.Uint64 // moguard: atomic
	curID   atomic.Uint64 // moguard: atomic // span of the request in flight, 0 when idle
	curReq  atomic.Uint64 // moguard: atomic

	cacheGets atomic.Int64 // moguard: atomic
	cacheHits atomic.Int64 // moguard: atomic
	walBytes  atomic.Int64 // moguard: atomic
	readBytes atomic.Int64 // moguard: atomic
	readCount atomic.Int64 // moguard: atomic
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the request in flight.
func (t *tracer) begin(name string) span {
	return span{Name: name, ID: t.nextID.Add(1), Parent: t.curID.Load(), Req: t.curReq.Load(), Start: t.now()}
}

func (t *tracer) finish(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in µs of the spans named name that
// started at or after from (ns since the tracer's start).
func (t *tracer) durations(name string, from int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// handler wraps the server's handler with a root span per request and
// counts the bytes of read responses.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{Name: "server " + r.URL.Path, ID: t.nextID.Add(1), Req: t.nextReq.Add(1), Start: t.now()}
		t.curID.Store(s.ID)
		t.curReq.Store(s.Req)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.curID.Store(0)
		t.curReq.Store(0)
		t.finish(s)
		switch r.URL.Path {
		case "/v1/window", "/v1/nearby", "/v1/atinstant", "/v1/objects":
			t.readBytes.Add(cw.n)
			t.readCount.Add(1)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrapStack installs the traced seams into the stack's configuration:
// the result cache (the default in-memory cache, wrapped), the WAL
// medium and the publish hook.
func (t *tracer) wrapStack(icfg *ingest.Config, scfg *server.Config, metrics *obs.Metrics) {
	if icfg.Log == nil {
		icfg.Log = storage.NewPageStore()
	}
	icfg.LogIO = tracedLog{ps: icfg.Log, t: t}
	notify := icfg.OnPublish
	icfg.OnPublish = func(ep *ingest.Epoch, dirty []ingest.DirtyObject) {
		s := t.begin("live.notify")
		notify(ep, dirty)
		t.finish(s)
	}
	scfg.Cache = &tracedCache{inner: cache.NewMemory(0, 0, metrics), t: t}
}

// tracedCache times the result cache port around cache.NewMemory with
// the default budget.
type tracedCache struct {
	inner *cache.Memory
	t     *tracer
}

func (c *tracedCache) Get(k cache.Key) ([]byte, bool) {
	s := c.t.begin("cache.get")
	v, ok := c.inner.Get(k)
	c.t.finish(s)
	c.t.cacheGets.Add(1)
	if ok {
		c.t.cacheHits.Add(1)
	}
	return v, ok
}

func (c *tracedCache) Put(k cache.Key, v []byte) {
	s := c.t.begin("cache.put")
	c.inner.Put(k, v)
	c.t.finish(s)
}

func (c *tracedCache) Stats() cache.Stats { return c.inner.Stats() }

// tracedLog is the WAL's page I/O over a storage.PageStore, timing
// every page write.
type tracedLog struct {
	ps *storage.PageStore
	t  *tracer
}

func (l tracedLog) Put(data []byte) (storage.LOBRef, error) {
	s := l.t.begin("ingest.wal_put")
	ref := l.ps.Put(data)
	l.t.finish(s)
	l.t.walBytes.Add(int64(len(data)))
	return ref, nil
}

func (l tracedLog) Get(ref storage.LOBRef) ([]byte, error) { return l.ps.Get(ref) }
func (l tracedLog) NumPages() int                          { return l.ps.NumPages() }
func (l tracedLog) Truncate(n int)                         { l.ps.Truncate(n) }
func (l tracedLog) Compact(n int) error                    { l.ps.Compact(n); return nil }

// writeSpans writes every span as one JSON line under
// .bench_build/spans/ in the working directory.
func (t *tracer) writeSpans(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", n, path)
	return nil
}

// routeMetric names the server span metric of a route path.
func routeMetric(path string) string {
	return "server." + strings.TrimPrefix(path, "/v1/") + "_us"
}
