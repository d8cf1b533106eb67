package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// clock reads monotonic nanoseconds since its base, so spans recorded by
// the client and by the wrappers share one time axis.
type clock struct{ base time.Time }

func newClock() *clock      { return &clock{base: time.Now()} }
func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// Layers, from the outermost (the client's op) inwards. A span's parent
// is the innermost span of an outer layer, in the same op, that contains
// its midpoint.
const (
	layerOp    = iota // bench: one client op, end to end
	layerAPI          // serve.api: one request through API.Handler()
	layerWait         // serve.manager: run 202 → terminal state event
	layerRT           // serve.remote: one shard-protocol round trip
	layerShard        // serve.shardapi: one request through ShardHandler
	layerStore        // store: one Append through the serve.Store seam
	numLayers
)

// span is one timed call at a seam. Trace carries the X-Trace-Id the call
// saw; session the session ID it named. Either joins the span to its op.
type span struct {
	Layer   int    `json:"layer"`
	Trace   string `json:"trace,omitempty"`
	Session string `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Status  int    `json:"status,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
}

// tracer records spans in memory; they are analysed and written out when
// the run ends.
type tracer struct {
	clk   *clock
	mu    sync.Mutex
	spans []span
	// Calls the serving layer made on the store wrapper's optional
	// methods, to prove it forwarded them to the real log.
	instrumented, triggerSet atomic.Int64
}

func newTracer(clk *clock) *tracer { return &tracer{clk: clk} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// sessionOfPath extracts the session ID from an /api/sessions/{id}... or
// /shard/sessions/{id}/... path.
func sessionOfPath(p string) string {
	for _, prefix := range []string{"/api/sessions/", "/shard/sessions/"} {
		if strings.HasPrefix(p, prefix) {
			rest := p[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return ""
}

// statusRecorder captures the response status. It unwraps so the SSE
// handler's http.NewResponseController still reaches Flush.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handler times every request through h as a span of the given layer.
func (t *tracer) handler(layer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.clk.now()
		sw := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		t.add(span{Layer: layer, Trace: r.Header.Get(obs.TraceHeader), Session: sessionOfPath(r.URL.Path),
			Start: start, End: t.clk.now(), Status: sw.code})
	})
}

// transport times every shard-protocol round trip, from sending the
// request until the caller has read and closed the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper{t: t, base: base}
}

type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{Layer: layerRT, Trace: req.Header.Get(obs.TraceHeader), Session: sessionOfPath(req.URL.Path),
		Start: rt.t.clk.now(), Bytes: max(req.ContentLength, 0)}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.End, s.Status = rt.t.clk.now(), -1
		rt.t.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// timedBody ends its round trip's span when the body is closed.
type timedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.clk.now()
		b.t.add(b.s)
	})
	return err
}

// tracedStore is the serve.Store handed to Router.Restore in the traced
// run. Besides the Store methods it forwards the three optional methods
// serve type-asserts (Recover, SetCompactionTrigger, Instrument): without
// them the traced run would silently lose degraded recovery, online
// compaction and the WAL histograms, and measure a different program.
type tracedStore struct {
	log *store.Log
	t   *tracer
}

var _ interface {
	serve.Store
	Recover() error
	SetCompactionTrigger(func())
	Instrument(appendHist, fsyncHist *obs.Histogram)
} = (*tracedStore)(nil)

func (t *tracer) store(log *store.Log) *tracedStore { return &tracedStore{log: log, t: t} }

func (s *tracedStore) Records() []store.Record { return s.log.Records() }
func (s *tracedStore) Stats() store.Stats      { return s.log.Stats() }
func (s *tracedStore) Recover() error          { return s.log.Recover() }

func (s *tracedStore) Append(kind, id string, v any) (store.Record, error) {
	start := s.t.clk.now()
	rec, err := s.log.Append(kind, id, v)
	s.t.add(span{Layer: layerStore, Session: id, Start: start, End: s.t.clk.now()})
	return rec, err
}

func (s *tracedStore) Compact(records []store.Record) error { return s.log.Compact(records) }

func (s *tracedStore) SetCompactionTrigger(fn func()) {
	s.t.triggerSet.Add(1)
	s.log.SetCompactionTrigger(fn)
}

func (s *tracedStore) Instrument(appendHist, fsyncHist *obs.Histogram) {
	s.t.instrumented.Add(1)
	s.log.Instrument(appendHist, fsyncHist)
}

// breakdown is the traced phase's per-layer accounting.
type breakdown struct {
	count   [numLayers]int     // spans per layer (all, joined or not)
	dur     [numLayers]float64 // summed span ms per layer
	self    [numLayers]float64 // summed self ms per layer, joined spans only
	opMS    float64            // summed op time
	non2xx  int                // API responses outside 2xx
	rtBytes int64
}

// analyse joins spans to their ops, links each to its parent, and sums
// durations and self times per layer. sessionOp maps each session an op
// created to that op.
func analyse(spans []span, ops map[int64]bool, sessionOp map[string]int64) breakdown {
	var bd breakdown
	byOp := make(map[int64][]int)
	for i := range spans {
		s := &spans[i]
		s.Op, s.Parent = -1, -1
		if n := opOfTrace(s.Trace); n >= 0 && ops[n] {
			s.Op = n
		} else if n, ok := sessionOp[s.Session]; ok {
			s.Op = n
		}
		d := float64(s.End-s.Start) / 1e6
		bd.count[s.Layer]++
		bd.dur[s.Layer] += d
		switch s.Layer {
		case layerAPI:
			if s.Status < 200 || s.Status > 299 {
				bd.non2xx++
			}
		case layerRT:
			bd.rtBytes += s.Bytes
		}
		if s.Op >= 0 {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		// Outer layers first, so every candidate parent precedes its child.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Layer != sb.Layer {
				return sa.Layer < sb.Layer
			}
			return sa.Start < sb.Start
		})
		children := make(map[int][]int)
		for ci, c := range idx {
			mid := (spans[c].Start + spans[c].End) / 2
			best := -1
			for _, p := range idx[:ci] {
				ps := spans[p]
				if ps.Layer >= spans[c].Layer || mid < ps.Start || mid > ps.End {
					continue
				}
				if best < 0 || ps.Layer > spans[best].Layer ||
					(ps.Layer == spans[best].Layer && ps.End-ps.Start < spans[best].End-spans[best].Start) {
					best = p
				}
			}
			spans[c].Parent = best
			if best >= 0 {
				children[best] = append(children[best], c)
			}
		}
		// Self time is measured on each span clipped to its parent's
		// (already clipped) interval, so a layer's time is never counted
		// both inside and outside the span that caused it.
		for _, i := range idx {
			if p := spans[i].Parent; p >= 0 {
				spans[i].Start = max(spans[i].Start, spans[p].Start)
				spans[i].End = max(min(spans[i].End, spans[p].End), spans[i].Start)
			}
		}
		for _, i := range idx {
			s := spans[i]
			if s.Layer == layerOp {
				bd.opMS += float64(s.End-s.Start) / 1e6
			} else if s.Parent < 0 {
				continue // outside every span of its op: not on the op's path
			}
			bd.self[s.Layer] += float64(s.End-s.Start-covered(s, spans, children[i])) / 1e6
		}
	}
	return bd
}

// covered is the length of the part of parent's interval that the union
// of its children covers.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		if spans[k].End > spans[k].Start {
			ivs = append(ivs, iv{spans[k].Start, spans[k].End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes the traced phase's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Synced so the next run's WAL fsyncs do not wait on this file's
	// writeback (see syncFiles).
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
