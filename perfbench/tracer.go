package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation (a window, a chunk, an
// epoch, a converge, a kill) share op; parent is the enclosing span's
// id (0 at the top). A wait span covers time the operation spent
// waiting on a layer rather than running in it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Wait   bool   `json:"wait,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured itself.
func (t *tracer) record(name string, op int64, parent int, start, end time.Time, wait bool) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Wait: wait, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// layerStat is one layer's share of the traced run.
type layerStat struct {
	count       int
	self, wait  time.Duration
	byName      map[string]time.Duration
	countByName map[string]int
}

// summarize attributes each span to its layer (the name before the
// first '.'): self time is the span minus the union of its children's
// intervals; wait spans count as waiting time instead.
func (t *tracer) summarize() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		ls := out[layer]
		if ls == nil {
			ls = &layerStat{byName: map[string]time.Duration{}, countByName: map[string]int{}}
			out[layer] = ls
		}
		ls.count++
		ls.countByName[s.Name]++
		d := s.End - s.Start
		if s.Wait {
			ls.wait += time.Duration(d)
			continue
		}
		self := time.Duration(d - covered(s.Start, s.End, children[s.ID]))
		ls.self += self
		ls.byName[s.Name] += self
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// fill writes the span ledger into the per-layer metrics.
func (t *tracer) fill(r *result) {
	sum := t.summarize()
	for _, l := range spanLayers {
		if ls := sum[l]; ls != nil {
			r.layers["span."+l+".count"] = float64(ls.count)
			r.layers["span."+l+".self_ms"] = ms(ls.self)
			r.layers["span."+l+".wait_ms"] = ms(ls.wait)
		}
	}
	t.mu.Lock()
	r.layers["trace.spans"] = float64(len(t.spans))
	t.mu.Unlock()
}

// dump writes every span as one JSON line.
func (t *tracer) dump(dir, workload string, seed int64) error {
	if t == nil || !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
