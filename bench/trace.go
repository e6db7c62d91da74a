package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the calls the benchmark makes, in memory, and
// writes them out as Chrome trace_event JSON when the run ends. Every method
// is a no-op on a nil tracer, which is how untraced passes run.
type tracer struct {
	origin time.Time
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the ID of the span that caused it (0 for
// the root); spans of one request share Req (0 outside requests). Lane is the
// goroutine that made the call: 0 is the driver, 1.. the clients.
type span struct {
	Name            string
	ID, Parent, Req int64
	Lane            int
	Start, End      time.Duration // since origin
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span or request ID, so children can name their parent
// before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records span id from start to end.
func (t *tracer) add(name string, id, parent, req int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{name, id, parent, req, lane, start.Sub(t.origin), end.Sub(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTime is a layer's time outside its children, summed over its spans.
type selfTime struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	MeanS  float64 `json:"mean_s"`
}

// selfTimes returns each span name's self time: a span's duration minus the
// part of its interval covered by its children. Children may overlap (the
// clients' requests under one traffic span), so the covered part is the
// union of their intervals.
func (t *tracer) selfTimes() map[string]selfTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Spans++
		st.TotalS += (s.End - s.Start - covered).Seconds()
		st.MeanS = st.TotalS / float64(st.Spans)
		out[s.Name] = st
	}
	return out
}

// traceEvent is one record of the Chrome trace_event format, in the shape
// the program's own trace export uses: complete ("X") events with
// microsecond timestamps, integer args, one lane (tid) per goroutine.
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans, sorted by start, to path.
func (t *tracer) writeChrome(path string) error {
	spans := slices.Clone(t.spans)
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(),
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", events})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
