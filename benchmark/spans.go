package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Spans
// are recorded from this package only — the program under test is not
// touched — kept in memory, and written out when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
}

type spanRecorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{t0: time.Now(), workload: workload}
}

// add records a finished interval and returns its id.
func (r *spanRecorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds()})
	return id
}

// reserve hands out an id for a span whose children finish before it does.
func (r *spanRecorder) reserve(name string, parent int, start time.Time) int {
	return r.add(name, parent, start, start)
}

func (r *spanRecorder) finish(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].EndNs = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes every span as one JSON object per line.
func (r *spanRecorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeNs is a span's duration minus the part of its interval that its
// direct children cover. Children may overlap each other (parallel chunk
// transfers) and may stick out of the parent (clock reads race); the union
// is clipped to the parent before it is subtracted.
func selfTimeNs(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNs, parent.StartNs), min(c.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.EndNs - parent.StartNs - covered
}

// selfTimesByName groups root-level self times by span name.
func selfTimesByName(spans []span) map[string][]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]int64{}
	for _, s := range spans {
		if len(kids[s.ID]) > 0 {
			out[s.Name] = append(out[s.Name], selfTimeNs(s, kids[s.ID]))
		}
	}
	return out
}

// rpcSpanObserver turns every RPC a core client issues into a child span of
// whatever root span is open, using only the client's public observer hook.
type rpcSpanObserver struct {
	rec *spanRecorder
	mu  sync.Mutex
	cur int // open root span id, 0 when none
}

func (o *rpcSpanObserver) setRoot(id int) {
	o.mu.Lock()
	o.cur = id
	o.mu.Unlock()
}

func (o *rpcSpanObserver) ObserveCall(addr, method string, dur time.Duration, err error) {
	o.mu.Lock()
	parent := o.cur
	o.mu.Unlock()
	if parent == 0 {
		return
	}
	end := time.Now()
	o.rec.add("rpc:"+method, parent, end.Add(-dur), end)
}

func (o *rpcSpanObserver) ObserveRedial(addr string) {}
