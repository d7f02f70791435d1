package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a call from the
// benchmark into a layer's exported function, or a grouping span (a
// fuzz session, a judged case, a replay pass) that parents such calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Group  string `json:"group"`  // the session or case the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Agg marks a span that stands for an aggregate the engine
	// accounted itself (an obs stage total): its length is exact, its
	// placement inside the parent is not.
	Agg bool `json:"agg,omitempty"`
}

// recorder keeps the traced run's spans in memory; they are written
// out once the run ends. A nil recorder records nothing, so untraced
// code paths call it unguarded.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name, group string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(time.Since(r.epoch))})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// addAgg records aggregate child spans of parent, one per named
// duration, laid end to end from the parent's start.
func (r *recorder) addAgg(parent int, names []string, durs []int64) {
	if r == nil || parent < 0 {
		return
	}
	p := r.spans[parent]
	at := p.Start
	for i, name := range names {
		r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Group: p.Group,
			Name: name, Start: at, End: at + durs[i], Agg: true})
		at += durs[i]
	}
}

// dur returns span id's length.
func (r *recorder) dur(id int) int64 { return r.spans[id].End - r.spans[id].Start }

// children indexes each span's direct children.
func (r *recorder) children() [][]int {
	kids := make([][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	return kids
}

// selfTimes returns each span's self time: its length minus the part of
// it that its children cover.
func (r *recorder) selfTimes(kids [][]int) []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = (s.End - s.Start) - covered(s, r.spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, all []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, p.Start), min(all[k].End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// checkAccount verifies that under each root span no parent's children
// overflow it and the self times of the whole subtree add up to the
// root's length. It returns the first discrepancy.
func (r *recorder) checkAccount(roots []int) error {
	kids := r.children()
	self := r.selfTimes(kids)
	for _, root := range roots {
		var total int64
		stack := []int{root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var inKids int64
			for _, k := range kids[id] {
				inKids += r.dur(k)
			}
			if inKids > r.dur(id) {
				return fmt.Errorf("span %s#%d: children cover %d ns of %d ns", r.spans[id].Name, id, inKids, r.dur(id))
			}
			total += self[id]
			stack = append(stack, kids[id]...)
		}
		if total != r.dur(root) {
			return fmt.Errorf("span %s#%d: self times add to %d ns, span is %d ns", r.spans[root].Name, root, total, r.dur(root))
		}
	}
	return nil
}

// selfByName sums self time per span name over the given roots' subtrees.
func (r *recorder) selfByName(roots []int) map[string]int64 {
	kids := r.children()
	self := r.selfTimes(kids)
	out := map[string]int64{}
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out[r.spans[id].Name] += self[id]
		stack = append(stack, kids[id]...)
	}
	return out
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
