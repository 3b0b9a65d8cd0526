// Request tracing: span-level latency decomposition for the serving
// and solving stack. The model is deliberately small — a trace is one
// root span (a request, an ingest, a spool refresh) plus a flat list
// of completed child spans — but wire-compatible with W3C Trace
// Context: inbound `traceparent` headers are parsed so an upstream
// gateway's trace id is adopted, and the server's own span is echoed
// back on the response for client-side correlation.
//
// Completed traces land in a lock-free ring buffer (recent traffic)
// and a small slowest-N set above a configurable threshold (the
// outliers worth keeping past ring churn), both served as JSON at
// GET /debug/traces. The same per-span durations feed the
// Server-Timing response header and the canonical wide-event request
// log, so one instrumentation pass answers "where did this request's
// time go" in three places: header, log line, debug endpoint.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C Trace Context propagation header,
// parsed on requests and set on responses.
const TraceparentHeader = "traceparent"

// TraceID identifies one trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// newTraceID returns a random trace id; on entropy failure it falls
// back to a timestamp-derived id rather than failing the request.
func newTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		now := uint64(time.Now().UnixNano())
		for i := 0; i < 8; i++ {
			t[i] = byte(now >> (8 * i))
			t[i+8] = ^t[i]
		}
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil {
		now := uint64(time.Now().UnixNano())
		for i := 0; i < 8; i++ {
			s[i] = byte(now >> (8 * i))
		}
		s[0] |= 1 // never all-zero
	}
	return s
}

// SpanContext is the part of a span that crosses process boundaries:
// the trace it belongs to, its own id, and the sampled flag.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both ids are non-zero (the W3C definition of
// a usable parent).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a version-00 traceparent value.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// hexDecodeLower fills dst from s, which must be exactly
// 2*len(dst) lowercase hex characters (the wire format requires
// lowercase; uppercase is a parse error per the W3C spec).
func hexDecodeLower(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//
// with each field lowercase hex. Malformed values — wrong field
// lengths, uppercase hex, the forbidden version ff, an all-zero
// trace or parent id — are errors; an unknown future version is
// accepted as long as its first four fields parse (per spec, a
// version-00 processor reads the known prefix and may ignore
// trailing fields introduced later).
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if h == "" {
		return sc, fmt.Errorf("obs: empty traceparent")
	}
	// version: exactly two lowercase hex chars, never "ff".
	if len(h) < 3 || h[2] != '-' {
		return sc, fmt.Errorf("obs: traceparent missing version field")
	}
	var ver [1]byte
	if !hexDecodeLower(ver[:], h[:2]) {
		return sc, fmt.Errorf("obs: bad traceparent version %q", h[:2])
	}
	if ver[0] == 0xff {
		return sc, fmt.Errorf("obs: traceparent version ff is forbidden")
	}
	rest := h[3:]
	// Fixed layout: 32-hex trace id, dash, 16-hex parent id, dash,
	// 2-hex flags. Version 00 requires the value to end there; future
	// versions may append "-extra".
	if len(rest) < 52 || rest[32] != '-' || rest[49] != '-' {
		return sc, fmt.Errorf("obs: traceparent field layout invalid")
	}
	if !hexDecodeLower(sc.TraceID[:], rest[:32]) {
		return sc, fmt.Errorf("obs: bad trace-id %q", rest[:32])
	}
	if sc.TraceID.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: all-zero trace-id")
	}
	if !hexDecodeLower(sc.SpanID[:], rest[33:49]) {
		return SpanContext{}, fmt.Errorf("obs: bad parent-id %q", rest[33:49])
	}
	if sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: all-zero parent-id")
	}
	var flags [1]byte
	if !hexDecodeLower(flags[:], rest[50:52]) {
		return SpanContext{}, fmt.Errorf("obs: bad trace-flags %q", rest[50:52])
	}
	switch {
	case len(rest) == 52:
	case ver[0] > 0 && rest[52] == '-':
		// Unknown future version with trailing fields: accepted.
	default:
		return SpanContext{}, fmt.Errorf("obs: trailing garbage after trace-flags")
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// SpanData is the immutable record of one completed span.
type SpanData struct {
	Name     string    `json:"name"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_span_id,omitempty"`
	Start    time.Time `json:"start"`
	// DurationMS is the span's wall time in milliseconds.
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Trace is one completed operation: a root span plus its completed
// descendant spans in completion order.
type Trace struct {
	TraceID string `json:"trace_id"`
	// RemoteParent is true when the trace id was adopted from an
	// inbound traceparent header (the root's ParentID is then the
	// caller's span).
	RemoteParent bool       `json:"remote_parent,omitempty"`
	Root         SpanData   `json:"root"`
	Spans        []SpanData `json:"spans,omitempty"`
}

// SpanMillis sums child-span durations by span name — the breakdown
// behind Server-Timing and the wide-event log. Names are returned
// sorted for deterministic rendering.
func (t *Trace) SpanMillis() (names []string, ms map[string]float64) {
	ms = make(map[string]float64, len(t.Spans))
	for _, s := range t.Spans {
		if _, ok := ms[s.Name]; !ok {
			names = append(names, s.Name)
		}
		ms[s.Name] += s.DurationMS
	}
	sort.Strings(names)
	return names, ms
}

// Find returns the first completed child span with the given name,
// or nil.
func (t *Trace) Find(name string) *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// Tracer collects completed traces. Recent traces go into a
// fixed-size ring updated with one atomic store per trace (readers
// snapshot without blocking writers); traces whose root meets the
// slow threshold are additionally retained in a small slowest-N set
// guarded by a mutex only those outliers ever touch.
type Tracer struct {
	ring []atomic.Pointer[Trace]
	head atomic.Uint64

	threshold time.Duration
	slowN     int
	slowMu    sync.Mutex
	slow      []*Trace
}

// Tracer sizing defaults, used when NewTracer gets zeros.
const (
	DefaultTraceRing    = 256
	DefaultTraceSlowest = 32
)

// NewTracer returns a tracer retaining the last ringSize traces and
// the slowN slowest traces at or above threshold. Zero ringSize and
// slowN select the defaults; threshold <= 0 considers every trace
// for the slowest set.
func NewTracer(ringSize, slowN int, threshold time.Duration) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	if slowN <= 0 {
		slowN = DefaultTraceSlowest
	}
	return &Tracer{
		ring:      make([]atomic.Pointer[Trace], ringSize),
		threshold: threshold,
		slowN:     slowN,
	}
}

func (tr *Tracer) publish(t *Trace, rootDur time.Duration) {
	i := tr.head.Add(1) - 1
	tr.ring[i%uint64(len(tr.ring))].Store(t)
	if rootDur < tr.threshold {
		return
	}
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	if len(tr.slow) < tr.slowN {
		tr.slow = append(tr.slow, t)
		return
	}
	// Replace the fastest retained trace if this one is slower.
	min := 0
	for i := 1; i < len(tr.slow); i++ {
		if tr.slow[i].Root.DurationMS < tr.slow[min].Root.DurationMS {
			min = i
		}
	}
	if t.Root.DurationMS > tr.slow[min].Root.DurationMS {
		tr.slow[min] = t
	}
}

// Count returns how many traces have completed since the tracer was
// created (including ones the ring has since overwritten).
func (tr *Tracer) Count() uint64 { return tr.head.Load() }

// Recent returns the retained traces, newest first.
func (tr *Tracer) Recent() []*Trace {
	n := tr.head.Load()
	size := uint64(len(tr.ring))
	if n > size {
		n = size
	}
	head := tr.head.Load()
	out := make([]*Trace, 0, n)
	for i := uint64(0); i < size && uint64(len(out)) < n; i++ {
		// Walk backwards from the most recent slot; slots may be mid
		// overwrite under concurrent publishes, so nil-check each.
		if t := tr.ring[(head-1-i)%size].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Slowest returns the retained slow traces, slowest first.
func (tr *Tracer) Slowest() []*Trace {
	tr.slowMu.Lock()
	out := make([]*Trace, len(tr.slow))
	copy(out, tr.slow)
	tr.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Root.DurationMS > out[j].Root.DurationMS })
	return out
}

// Handler serves the retained traces as JSON — mount it at
// GET /debug/traces.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"ring_size":         len(tr.ring),
			"slow_threshold_ms": float64(tr.threshold) / float64(time.Millisecond),
			"traces_recorded":   tr.Count(),
			"recent":            tr.Recent(),
			"slowest":           tr.Slowest(),
		}); err != nil {
			Logger("obs").Error("write traces", "error", err)
		}
	})
}

// activeTrace accumulates the completed spans of one in-progress
// trace. Child spans may end on other goroutines (solver hooks), so
// appends are mutex-guarded.
type activeTrace struct {
	tracer *Tracer
	id     TraceID
	remote bool

	mu    sync.Mutex
	spans []SpanData
}

// Span is one in-progress operation within a trace. A nil *Span is a
// valid no-op — StartSpan outside any trace returns one — so
// instrumented code never branches on whether tracing is active.
// SetAttr and End must be called by the goroutine that owns the span;
// concurrent spans of one trace may end concurrently.
type Span struct {
	at     *activeTrace
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	root   bool
	attrs  map[string]any
	ended  bool
	final  *Trace // set on root End
}

type spanKey struct{}
type tracerKey struct{}

// ContextWithTracer attaches a tracer so StartSpan can open root
// spans for background work (spool refreshes, boot solves) that has
// no inbound request.
func ContextWithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// BackgroundContext returns a fresh background context carrying the
// tracer — the root context for daemon goroutines, kept here so
// serving code never constructs a raw context.Background (the lint
// gate: request handlers must inherit the request context).
func (tr *Tracer) BackgroundContext() context.Context {
	return ContextWithTracer(context.Background(), tr)
}

// SpanFromContext returns the current span, or nil outside one.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartRoot opens a new trace rooted at name. A valid parent (from an
// inbound traceparent) donates the trace id and becomes the root's
// remote parent; a zero parent starts a fresh trace. The root span is
// stored in the returned context so StartSpan calls below it create
// children; End publishes the completed trace to the tracer.
func (tr *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext, attrs ...Attr) (context.Context, *Span) {
	at := &activeTrace{tracer: tr}
	sp := &Span{at: at, name: name, id: newSpanID(), start: time.Now(), root: true}
	if parent.Valid() {
		at.id = parent.TraceID
		at.remote = true
		sp.parent = parent.SpanID
	} else {
		at.id = newTraceID()
	}
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan opens a child of the current span in ctx. Outside any
// span it opens a new root when ctx carries a tracer (background
// operations), and otherwise returns a no-op span, so call sites are
// identical on every path.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil || parent.at == nil {
		if tr, ok := ctx.Value(tracerKey{}).(*Tracer); ok {
			return tr.StartRoot(ctx, name, SpanContext{}, attrs...)
		}
		return ctx, nil
	}
	sp := &Span{at: parent.at, name: name, id: newSpanID(), parent: parent.id, start: time.Now()}
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SetAttr annotates the span; no-op after End or on a no-op span.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil || sp.ended {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]any, 4)
	}
	sp.attrs[key] = value
}

// Context returns the span's propagation context (for outbound
// traceparent headers); zero for a no-op span.
func (sp *Span) Context() SpanContext {
	if sp == nil || sp.at == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.at.id, SpanID: sp.id, Sampled: true}
}

// Traceparent renders the span's propagation context as a
// traceparent header value; empty for a no-op span.
func (sp *Span) Traceparent() string {
	if sp == nil || sp.at == nil {
		return ""
	}
	return sp.Context().Traceparent()
}

// End completes the span. A child appends itself to the trace; the
// root assembles the finished Trace and publishes it to the tracer.
// End is idempotent and safe on a nil span.
func (sp *Span) End() {
	if sp == nil || sp.ended || sp.at == nil {
		return
	}
	sp.ended = true
	dur := time.Since(sp.start)
	data := SpanData{
		Name:       sp.name,
		SpanID:     sp.id.String(),
		Start:      sp.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Attrs:      sp.attrs,
	}
	if !sp.parent.IsZero() {
		data.ParentID = sp.parent.String()
	}
	if !sp.root {
		sp.at.mu.Lock()
		sp.at.spans = append(sp.at.spans, data)
		sp.at.mu.Unlock()
		return
	}
	sp.at.mu.Lock()
	spans := sp.at.spans
	sp.at.mu.Unlock()
	sp.final = &Trace{
		TraceID:      sp.at.id.String(),
		RemoteParent: sp.at.remote,
		Root:         data,
		Spans:        spans,
	}
	if sp.at.tracer != nil {
		sp.at.tracer.publish(sp.final, dur)
	}
}

// Trace returns the completed trace after a root span's End, nil
// before it (or for child and no-op spans).
func (sp *Span) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.final
}

// ServerTiming renders the spans completed so far — aggregated by
// name, in first-completion order — plus the elapsed total, as a
// Server-Timing header value: "queue;dur=0.05, cache;dur=0.11,
// index;dur=1.80, total;dur=2.31". Callable before End, which is the
// point: response headers must be written while the root is still
// open.
func (sp *Span) ServerTiming() string {
	if sp == nil || sp.at == nil {
		return ""
	}
	sp.at.mu.Lock()
	order := make([]string, 0, len(sp.at.spans))
	sum := make(map[string]float64, len(sp.at.spans))
	for _, s := range sp.at.spans {
		if _, ok := sum[s.Name]; !ok {
			order = append(order, s.Name)
		}
		sum[s.Name] += s.DurationMS
	}
	sp.at.mu.Unlock()
	var b strings.Builder
	for _, name := range order {
		fmt.Fprintf(&b, "%s;dur=%.3f, ", name, sum[name])
	}
	fmt.Fprintf(&b, "total;dur=%.3f", float64(time.Since(sp.start))/float64(time.Millisecond))
	return b.String()
}

// WideEventHeaders maps response headers worth folding into the
// canonical request event to the attribute name they appear under.
// The default surfaces the serving layer's ranking generation and the
// scorer that produced it, so every logged request is attributable to
// the ranking that answered it.
var WideEventHeaders = map[string]string{
	"X-Ranking-Version": "ranking_version",
	"X-Ranking-Scorer":  "ranking_scorer",
}

// timingWriter injects the Server-Timing and captures status/bytes.
// The header is rendered lazily at first write, after the child spans
// that measure the request's real work have completed but before the
// response is committed.
type timingWriter struct {
	statusWriter
	root     *Span
	injected bool
}

func (t *timingWriter) inject() {
	if t.injected {
		return
	}
	t.injected = true
	if st := t.root.ServerTiming(); st != "" {
		t.Header().Set("Server-Timing", st)
	}
}

func (t *timingWriter) WriteHeader(code int) {
	t.inject()
	t.statusWriter.WriteHeader(code)
}

func (t *timingWriter) Write(p []byte) (int, error) {
	t.inject()
	return t.statusWriter.Write(p)
}

// Middleware traces every request: the inbound traceparent (if any)
// is adopted, a root span covers the handler, the response carries
// the server's own traceparent and a Server-Timing breakdown of the
// completed child spans, and — when logger is non-nil — one
// canonical wide-event record is emitted per request carrying the
// route, status, size, correlation ids and per-span durations. Run
// it inside RequestID so the correlation id is populated.
func (tr *Tracer) Middleware(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := ParseTraceparent(r.Header.Get(TraceparentHeader))
		ctx, root := tr.StartRoot(r.Context(), r.URL.Path, parent)
		w.Header().Set(TraceparentHeader, root.Traceparent())
		tw := &timingWriter{statusWriter: statusWriter{ResponseWriter: w}, root: root}
		next.ServeHTTP(tw, r.WithContext(ctx))
		if tw.status == 0 {
			tw.status = http.StatusOK
		}
		root.SetAttr("method", r.Method)
		root.SetAttr("status", tw.status)
		root.SetAttr("bytes", tw.bytes)
		if id := RequestIDFrom(ctx); id != "" {
			root.SetAttr("request_id", id)
		}
		root.End()
		if logger != nil {
			wideEvent(logger, r, tw, root.Trace())
		}
	})
}

// wideEvent emits the canonical per-request log record: everything a
// latency investigation needs on one line, instead of a thin access
// line plus grepping.
func wideEvent(logger *slog.Logger, r *http.Request, tw *timingWriter, t *Trace) {
	if t == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("route", r.URL.Path),
		slog.Int("status", tw.status),
		slog.Int("bytes", tw.bytes),
		slog.Float64("duration_ms", t.Root.DurationMS),
		slog.String("request_id", RequestIDFrom(r.Context())),
		slog.String("trace_id", t.TraceID),
	}
	for header, attr := range WideEventHeaders {
		if v := tw.Header().Get(header); v != "" {
			attrs = append(attrs, slog.String(attr, v))
		}
	}
	if cache := t.Find("cache"); cache != nil {
		if hit, ok := cache.Attrs["hit"].(bool); ok {
			state := "miss"
			if hit {
				state = "hit"
			} else if coalesced, _ := cache.Attrs["coalesced"].(bool); coalesced {
				state = "coalesced"
			}
			attrs = append(attrs, slog.String("cache", state))
		}
	}
	// A personalised walk's convergence rides on its span; surface it so
	// an unconverged /related answer is visible on the request line.
	if walk := t.Find("walk"); walk != nil {
		if converged, ok := walk.Attrs["converged"].(bool); ok {
			attrs = append(attrs,
				slog.Any("walk_iters", walk.Attrs["iters"]),
				slog.Any("walk_residual", walk.Attrs["residual"]),
				slog.Bool("walk_converged", converged),
				slog.Any("walk_certified", walk.Attrs["certified"]),
				slog.Any("walk_cancelled", walk.Attrs["cancelled"]))
		}
	}
	if names, ms := t.SpanMillis(); len(names) > 0 {
		spanAttrs := make([]any, 0, len(names))
		for _, name := range names {
			spanAttrs = append(spanAttrs, slog.Float64(name, ms[name]))
		}
		attrs = append(attrs, slog.Group("spans", spanAttrs...))
	}
	logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}
