package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the process-wide metrics store of the telemetry layer: a
// Registry of named counters, gauges, and streaming log-bucketed histograms
// that outlive any single run (a run's trace and iteration statistics ride
// on its Recorder, obs.go).
// Recording is lock-free — counters and histogram buckets are plain atomics,
// gauges and histogram sums use small CAS loops — so engines can record from
// the superstep hot path without breaking the zero-allocations-per-iteration
// invariant. Registration (get-or-create of a metric handle) takes a mutex
// and may allocate; hot paths resolve their handles once, up front.

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; Add never allocates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. All methods are safe
// for concurrent use and never allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge at v (last write wins).
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket geometry: log-bucketed with histSubBuckets buckets per
// power of two, covering [2^histMinExp, 2^(histMaxExp+1)). The geometry is
// fixed for every histogram, so snapshots from different histograms (or
// different processes of the same build) merge bucket-by-bucket, and the
// relative quantile-estimation error is bounded by the in-octave bucket
// ratio: an estimate E for a true value v in range satisfies
// v <= E <= v * (1 + 1/histSubBuckets).
//
// With 8 sub-buckets over exponents [-40, 23] the histogram spans ~1e-12 to
// ~1.6e7 — residuals down to float32 noise, latencies from nanoseconds to
// hours, byte counts to tens of MB — in 514 fixed buckets (~4KB of atomics).
const (
	histMinExp      = -40
	histMaxExp      = 23
	histSubBuckets  = 8
	histSubShift    = 3 // log2(histSubBuckets)
	histRangeCount  = (histMaxExp - histMinExp + 1) * histSubBuckets
	histNumBuckets  = histRangeCount + 2 // + underflow and overflow buckets
	histUnderflowIx = 0
	histOverflowIx  = histNumBuckets - 1
)

// Histogram is a streaming log-bucketed distribution. Observe is lock-free
// and allocation-free (three atomic adds and two bounded CAS loops), so it
// is safe to call from the superstep hot path; Snapshot returns an immutable
// copy that a scraper reads without stopping writers.
type Histogram struct {
	counts  [histNumBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 CAS accumulator
	// minOrd/maxOrd hold orderedBits(sample)+1, so the zero value means "no
	// sample yet" and a real 0.0 sample is still representable.
	minOrd atomic.Uint64
	maxOrd atomic.Uint64
}

// orderedBits maps a non-NaN float64 to a uint64 that sorts in the same
// order (the usual sign-flip trick), letting min/max be maintained with
// integer CAS.
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

func fromOrderedBits(o uint64) float64 {
	if o&(1<<63) != 0 {
		return math.Float64frombits(o &^ (1 << 63))
	}
	return math.Float64frombits(^o)
}

// bucketIndex maps a value to its bucket. Values <= 0 (and values below the
// smallest bound) land in the underflow bucket, values beyond the largest
// bound in the overflow bucket; both are counted, so Count and Sum stay
// exact even when a sample escapes the bucketed range.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return histUnderflowIx
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7FF) - 1023
	if exp < histMinExp {
		return histUnderflowIx
	}
	if exp > histMaxExp {
		return histOverflowIx
	}
	sub := int(bits >> (52 - histSubShift) & (histSubBuckets - 1))
	return 1 + (exp-histMinExp)*histSubBuckets + sub
}

// BucketUpper returns the inclusive upper bound of bucket i — the "le" value
// of the Prometheus exposition. The underflow bucket's bound is the smallest
// representable bucket edge; the overflow bucket's is +Inf.
func BucketUpper(i int) float64 {
	switch {
	case i <= histUnderflowIx:
		return math.Ldexp(1, histMinExp)
	case i >= histOverflowIx:
		return math.Inf(1)
	}
	o, s := (i-1)/histSubBuckets, (i-1)%histSubBuckets
	// The conversion rounds the quotient (a multiply by the reciprocal)
	// before the add, so no platform fuses the two.
	return math.Ldexp(1+float64(float64(s+1)/histSubBuckets), histMinExp+o)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if !math.IsNaN(v) {
		ord := orderedBits(v) + 1 // +1 keeps 0 free as the "unset" sentinel
		for {
			old := h.minOrd.Load()
			if old != 0 && old <= ord {
				break
			}
			if h.minOrd.CompareAndSwap(old, ord) {
				break
			}
		}
		for {
			old := h.maxOrd.Load()
			if old >= ord {
				break
			}
			if h.maxOrd.CompareAndSwap(old, ord) {
				break
			}
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns an immutable copy of the histogram. Writers may race with
// the copy, so a snapshot taken mid-Observe can be ahead/behind by in-flight
// samples, but it is always internally plausible (bucket sums are monotone
// reads of monotone counters) and two snapshots merge exactly.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, histNumBuckets)}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	if mo := h.minOrd.Load(); mo != 0 {
		s.Min = fromOrderedBits(mo - 1)
	}
	if mo := h.maxOrd.Load(); mo != 0 {
		s.Max = fromOrderedBits(mo - 1)
	}
	return s
}

// HistogramSnapshot is an immutable histogram state: mergeable (Merge is
// commutative and associative because the bucket geometry is fixed) and
// queryable for bounded-error quantile estimates.
type HistogramSnapshot struct {
	Counts []uint64 // len histNumBuckets; Counts[i] samples in bucket i
	Count  uint64
	Sum    float64
	Min    float64 // smallest sample; 0 when Count == 0
	Max    float64 // largest sample; 0 when Count == 0
}

// Merge returns the snapshot of the union of the two sample streams.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Counts) == 0 {
		s.Counts = make([]uint64, histNumBuckets)
	}
	m := HistogramSnapshot{Counts: make([]uint64, histNumBuckets)}
	copy(m.Counts, s.Counts)
	for i, c := range o.Counts {
		m.Counts[i] += c
	}
	m.Count = s.Count + o.Count
	m.Sum = s.Sum + o.Sum
	switch {
	case s.Count == 0:
		m.Min, m.Max = o.Min, o.Max
	case o.Count == 0:
		m.Min, m.Max = s.Min, s.Max
	default:
		m.Min, m.Max = math.Min(s.Min, o.Min), math.Max(s.Max, o.Max)
	}
	return m
}

// Mean returns the exact sample mean (Sum/Count), or 0 for an empty
// snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the rank-⌈q·Count⌉ sample, clamped to [Min, Max]. For
// samples inside the bucketed range the estimate E of a true value v
// satisfies v <= E <= v·(1 + 1/8). Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	est := s.Max
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			est = BucketUpper(i)
			break
		}
	}
	if est < s.Min {
		est = s.Min
	}
	if est > s.Max {
		est = s.Max
	}
	return est
}

// metricType tags a registry family for the exposition format.
type metricType uint8

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with any number of label-distinguished series.
type family struct {
	name   string
	help   string
	typ    metricType
	series map[string]any // label signature -> *Counter | *Gauge | *Histogram
}

// Registry is a concurrency-safe collection of named metrics. Metric handles
// are created on first request (get-or-create) and live for the registry's
// lifetime; the handles themselves record lock-free. A Registry is
// exposition-ready at any time via WritePrometheus.
//
// Metric and label names must match [a-zA-Z_:][a-zA-Z0-9_:]* (the Prometheus
// rules); requesting the same name with a different metric type, or passing
// an odd-length label list, panics — both are programmer errors, caught at
// the registration site.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the one the engines, the prep
// cache, and the arena pool record into, and the one the telemetry server
// exposes at /metrics.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for name with the given label pairs
// (key1, value1, key2, value2, ...), creating it on first request.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.metric(name, typeCounter, labels).(*Counter)
}

// Gauge returns the gauge for name with the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.metric(name, typeGauge, labels).(*Gauge)
}

// Histogram returns the histogram for name with the given label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.metric(name, typeHistogram, labels).(*Histogram)
}

// SetHelp attaches HELP text to the named family (created as needed on the
// family's first metric). Help set before any series exists is kept.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		// Family type is fixed by the first metric request; remember the help
		// on a typeless placeholder until then.
		f = &family{name: name, series: map[string]any{}}
		r.families[name] = f
	}
	f.help = help
}

func (r *Registry) metric(name string, typ metricType, labels []string) any {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: map[string]any{}}
		r.families[name] = f
	}
	if f.typ == 0 {
		f.typ = typ // help-only placeholder adopts the first requested type
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q requested as %s but registered as %s", name, typ, f.typ))
	}
	m := f.series[sig]
	if m == nil {
		switch typ {
		case typeCounter:
			m = &Counter{}
		case typeGauge:
			m = &Gauge{}
		default:
			m = &Histogram{}
		}
		f.series[sig] = m
	}
	return m
}

// labelSignature canonicalizes label pairs into the exposition form,
// sorted by key: `k1="v1",k2="v2"`. Empty labels produce "".
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want key, value pairs)", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validMetricName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
