package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one traced pass share
// Run; Parent is the id of the span that caused this one (0 for a
// root). Alloc figures are runtime.MemStats deltas over the span and
// are recorded only for spans started with mem set, because reading
// MemStats stops the world.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Run        string `json:"run"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
	SelfNS     int64  `json:"self_ns"`

	mem        bool
	startBytes uint64
	startObjs  uint64
}

func (s *span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps the spans of one traced pass in memory; they are
// written out once, when the pass ends.
type recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []*span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns it.
func (r *recorder) start(name string, parent int, mem bool) *span {
	s := &span{Parent: parent, Run: r.run, Name: name, mem: mem}
	if mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.startBytes, s.startObjs = m.TotalAlloc, m.Mallocs
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.StartNS = time.Since(r.t0).Nanoseconds()
	return s
}

// end closes s.
func (r *recorder) end(s *span) {
	s.EndNS = time.Since(r.t0).Nanoseconds()
	if s.mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.AllocBytes, s.Allocs = m.TotalAlloc-s.startBytes, m.Mallocs-s.startObjs
	}
}

// timed records fn as a span with allocation deltas.
func (r *recorder) timed(name string, parent int, fn func()) *span {
	s := r.start(name, parent, true)
	fn()
	r.end(s)
	return s
}

// add records a span whose interval was measured elsewhere (a solver
// phase reported through the engine's trace callback).
func (r *recorder) add(name string, parent int, start, end time.Time) *span {
	s := r.start(name, parent, false)
	s.StartNS, s.EndNS = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	return s
}

// fillSelfTimes sets every span's self time: its duration minus the
// part of its interval that its child spans cover (overlapping
// children are counted once).
func fillSelfTimes(spans []*span) {
	children := make(map[int][]*span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		cursor := s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		s.SelfNS = (s.EndNS - s.StartNS) - covered
	}
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Run      string             `json:"run"`
	Workload string             `json:"workload"`
	Header   map[string]string  `json:"header"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []*span            `json:"spans"`
}

// write stores the pass as dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, header map[string]string, metrics map[string]float64) (string, error) {
	r.mu.Lock()
	spans := append([]*span(nil), r.spans...)
	r.mu.Unlock()
	fillSelfTimes(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(traceFile{Run: r.run, Workload: workload,
		Header: header, Metrics: metrics, Spans: spans}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// count reports how many spans were recorded.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
