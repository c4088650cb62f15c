package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made. Parent 0 means a root.
// Async spans run concurrently with their parent (the requests the open-loop
// generator fires); they do not count against the parent's blocking time
// and form their own subtrees. Req is the request ID shared by the spans of
// one serve-mixed operation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req,omitempty"`
	Async  bool          `json:"async,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs call the same code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// spanRef is an open span; its zero value (from a nil recorder) is inert.
type spanRef struct {
	r  *recorder
	id int
}

// start opens a synchronous child of parent.
func (r *recorder) start(parent spanRef, name string) spanRef {
	return r.open(parent, name, 0, false)
}

// startAsync opens a span that runs concurrently with parent.
func (r *recorder) startAsync(parent spanRef, name string, req int64) spanRef {
	return r.open(parent, name, req, true)
}

func (r *recorder) open(parent spanRef, name string, req int64, async bool) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Name: name, Req: req, Async: async, Start: now, End: -1})
	return spanRef{r: r, id: id}
}

// end closes the span.
func (s spanRef) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.origin)
	s.r.mu.Lock()
	s.r.spans[s.id-1].End = now
	s.r.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its synchronous children.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && !s.Async {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfSumOverWall sums the self times of the synchronous spans under root
// and divides by root's duration: 1 when the spans tile the run.
func selfSumOverWall(spans []span, root int) float64 {
	self := selfTimes(spans)
	kids := map[int][]int{}
	for _, s := range spans {
		if s.Parent != 0 && !s.Async {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	var sum time.Duration
	var walk func(id int)
	walk = func(id int) {
		sum += self[id]
		for _, k := range kids[id] {
			walk(k)
		}
	}
	walk(root)
	r := spans[root-1]
	return ratio(float64(sum), float64(r.End-r.Start))
}

// writeSpans writes one JSON object per span.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
