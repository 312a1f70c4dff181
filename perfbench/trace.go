package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans form trees through
// Parent; every span of one request carries the request's trace ID.
type span struct {
	ID      int
	Parent  int // 0 for a root
	Name    string
	Layer   string
	TraceID string
	Start   time.Time
	End     time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer collects spans in memory; they are written once, when the run
// ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent int, name, layer, traceID string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if parent != 0 {
		// A child never leaves its parent's interval, so self times are
		// never negative.
		p := t.spans[parent-1]
		if start.Before(p.Start) {
			start = p.Start
		}
		if end.After(p.End) {
			end = p.End
		}
		if end.Before(start) {
			end = start
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, TraceID: traceID, Start: start, End: end})
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap one another
// (parallel work) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, which
// add keeps inside their parent's.
func covered(children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	var total time.Duration
	var curA, curB time.Time
	for i, c := range children {
		if i > 0 && !c.Start.After(curB) {
			if c.End.After(curB) {
				curB = c.End
			}
			continue
		}
		total += curB.Sub(curA)
		curA, curB = c.Start, c.End
	}
	return total + curB.Sub(curA)
}

// layerSelf sums self time per layer over the spans whose root is named
// rootName, and returns the number of such roots.
func layerSelf(spans []span, rootName string) (map[string]time.Duration, int) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	roots := 0
	for _, s := range spans {
		if rootOf(s).Name != rootName {
			continue
		}
		if s.Parent == 0 {
			roots++
		}
		out[s.Layer] += self[s.ID]
	}
	return out, roots
}

// writeChrome writes the spans as a Chrome trace_event document: one
// complete event per span, one thread per layer, with the trace ID, span ID
// and parent span ID in each event's args.
func writeChrome(w io.Writer, spans []span) error {
	if len(spans) == 0 {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []any
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]string{"name": s.Layer},
			})
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  us(s.Start.Sub(epoch)),
			Dur: us(s.dur()),
			Pid: 1, Tid: tid,
			Args: map[string]any{"trace_id": s.TraceID, "span_id": s.ID, "parent_id": s.Parent},
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

func writeChromeFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accessRecord is the part of one fpserve access-log line the benchmark
// reads.
type accessRecord struct {
	Msg          string  `json:"msg"`
	Path         string  `json:"path"`
	Status       int     `json:"status"`
	Bytes        int64   `json:"bytes"`
	TraceID      string  `json:"trace_id"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	Disposition  string  `json:"disposition"`
	QueueWaitMs  float64 `json:"queue_wait_ms"`
	ComputeMs    float64 `json:"compute_ms"`
	ForwardMs    float64 `json:"forward_ms"`
	InternalFrom string  `json:"internal_from"`
	NodeID       string  `json:"node_id"`
}

func (a accessRecord) unattributedMs() float64 {
	return a.ElapsedMs - a.QueueWaitMs - a.ComputeMs - a.ForwardMs
}

// readAccessLog parses the optimize-request records of a JSON access log.
func readAccessLog(path string) ([]accessRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []accessRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r accessRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Msg != "request" || r.Path != "/v1/optimize" {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}
