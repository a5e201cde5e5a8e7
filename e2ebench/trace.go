package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public functions. Spans of one replayed request share Req;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// count is a quantity measured at a layer boundary (events emitted, bytes
// allocated), kept beside the spans so ratios come from where work happens.
type count struct {
	Name  string  `json:"count"`
	Req   int     `json:"req"`
	Value float64 `json:"value"`
}

// recorder keeps spans and counts in memory until the run ends. A disabled
// recorder makes every call a no-op, which is how the replay measures its
// own overhead. It is used from one goroutine.
type recorder struct {
	on     bool
	t0     time.Time
	spans  []span
	counts []count
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

func (r *recorder) count(name string, req int, v float64) {
	if r.on {
		r.counts = append(r.counts, count{Name: name, Req: req, Value: v})
	}
}

// selfTimes returns, per span name, every span's self time in ms: its
// duration minus the part of it that its child spans cover.
func (r *recorder) selfTimes() map[string][]float64 {
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range r.spans {
		self := s.End - s.Start - covered(children[i])
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			lo, hi, open = x[0], x[1], true
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// countValues returns every recorded value per count name.
func (r *recorder) countValues() map[string][]float64 {
	out := make(map[string][]float64)
	for _, c := range r.counts {
		out[c.Name] = append(out[c.Name], c.Value)
	}
	return out
}

// write dumps spans then counts as JSON Lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range r.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
