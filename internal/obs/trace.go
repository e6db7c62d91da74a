package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracePID is the process id stamped on every event. The whole run is one
// simulated process; lanes distinguish simulated threads.
const tracePID = 1

// traceEvent is one Chrome trace_event record. Field order is the export
// order (encoding/json preserves struct order), so the format is stable and
// golden-testable.
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"` // microseconds since trace origin
	Dur  int64            `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// Trace collects phase spans from concurrently running (simulated) threads
// and exports them in the Chrome trace_event JSON format: one lane per
// simulated thread (named after its sched placement), one complete ("X")
// event per span. All methods are no-ops on a nil receiver and safe for
// concurrent use.
type Trace struct {
	mu     sync.Mutex
	origin time.Time
	lanes  map[int]string
	spans  []traceEvent
}

// NewTrace returns a trace whose timestamps are measured from now.
func NewTrace() *Trace {
	return &Trace{origin: time.Now(), lanes: map[int]string{}}
}

// SetLane names the lane of simulated thread tid, e.g. "t03 node1 cpu12".
// Lane names become thread_name metadata events so trace viewers label the
// row with the thread's simulated placement.
func (t *Trace) SetLane(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[tid] = name
	t.mu.Unlock()
}

// Span records a completed span on thread tid's lane from start to now.
// iter >= 0 is attached as the span's "iter" argument (use -1 for spans
// outside the iteration loop, e.g. preprocessing).
func (t *Trace) Span(tid int, name string, iter int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	ts := start.Sub(t.origin).Microseconds()
	if ts < 0 {
		ts = 0
	}
	dur := end.Sub(start).Microseconds()
	if dur < 0 {
		dur = 0
	}
	t.addSpan(tid, name, iter, ts, dur)
}

// AddSpanAt records a span with explicit microsecond timestamps. It exists
// for deterministic construction in tests and offline converters; engines
// use Span.
func (t *Trace) AddSpanAt(tid int, name string, iter int, tsMicros, durMicros int64) {
	if t == nil {
		return
	}
	t.addSpan(tid, name, iter, tsMicros, durMicros)
}

func (t *Trace) addSpan(tid int, name string, iter int, ts, dur int64) {
	ev := traceEvent{Name: name, Ph: "X", TS: ts, Dur: dur, PID: tracePID, TID: tid}
	if iter >= 0 {
		ev.Args = map[string]int64{"iter": int64(iter)}
	}
	t.mu.Lock()
	t.spans = append(t.spans, ev)
	t.mu.Unlock()
}

// NumSpans returns the number of recorded spans.
func (t *Trace) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteJSON exports the trace: thread_name metadata events first (by lane),
// then the spans sorted by (timestamp, lane, name) so output is
// deterministic for a deterministic input and timestamps are monotonically
// non-decreasing.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil trace")
	}
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.lanes)+len(t.spans))
	tids := make([]int, 0, len(t.lanes))
	for tid := range t.lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]int64{},
		})
	}
	spans := make([]traceEvent, len(t.spans))
	copy(spans, t.spans)
	laneNames := make(map[int]string, len(t.lanes))
	for tid, name := range t.lanes {
		laneNames[tid] = name
	}
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	events = append(events, spans...)

	// thread_name metadata carries a string arg, which traceEvent's int64
	// args cannot express; emit those records by hand, then the spans via
	// the struct encoder. Field order matches traceEvent.
	if _, err := io.WriteString(w, "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n"); err != nil {
		return err
	}
	for i, ev := range events {
		var line []byte
		if ev.Ph == "M" {
			name, _ := json.Marshal(laneNames[ev.TID])
			line = []byte(fmt.Sprintf(`{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":%s}}`, ev.PID, ev.TID, name))
		} else {
			var err error
			line, err = json.Marshal(ev)
			if err != nil {
				return err
			}
		}
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "    %s%s\n", line, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "  ]\n}\n")
	return err
}
