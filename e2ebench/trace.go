package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"` // heap allocations during the span
	// Replay marks a span that repeats work the program does inside a
	// later call, so that work can be timed on its own (see fpReplay).
	Replay bool `json:"replay,omitempty"`
}

// tracer records spans in memory. It is not safe for concurrent use:
// allocation deltas are only meaningful on a single goroutine, so traced
// operations run one at a time.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	ms    runtime.MemStats
	// units counts the work units (points, requests, jobs) each operation
	// stands for; per-layer figures are per unit.
	units []int
	// rootsOnly records only the operations' root spans and skips replay
	// spans: the baseline that tracing overhead is measured against.
	rootsOnly bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp starts operation accounting for units work units.
func (t *tracer) beginOp(units int) {
	t.op++
	t.units = append(t.units, units)
}

// do runs f inside a span named after the called function
// ("layer.Function").
func (t *tracer) do(name string, f func() error) error {
	return t.run(name, false, f)
}

// replay runs f inside a replay span.
func (t *tracer) replay(name string, f func() error) error {
	return t.run(name, true, f)
}

func (t *tracer) run(name string, replay bool, f func() error) error {
	if t.rootsOnly && len(t.stack) > 0 {
		if replay {
			return nil
		}
		return f()
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Replay: replay})
	t.stack = append(t.stack, id)
	runtime.ReadMemStats(&t.ms)
	allocs := t.ms.Mallocs
	start := time.Since(t.t0)
	err := f()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[id]
	sp.Start, sp.End, sp.Allocs = int64(start), int64(end), t.ms.Mallocs-allocs
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a span name to the module it times. calib.Calibrate is a
// loop over rtl.CalibrateReport plus an O(configs) merge, so it counts as
// calibration (rtl); annotate is the core estimator's program-level entry.
func layerOf(name string) string {
	switch name {
	case "op":
		return "unattributed"
	case "calib.Calibrate":
		return "rtl"
	}
	layer, _, _ := strings.Cut(name, ".")
	if layer == "annotate" {
		return "core"
	}
	return layer
}

// attribution is the self-time breakdown of the traced operations.
type attribution struct {
	units int
	// selfNs and allocs are summed over all operations, by layer and by
	// span name. Replay spans count toward their own name and layer; the
	// same amount is taken off the layer whose call repeats the work.
	layerNs, nameNs         map[string]int64
	layerAllocs, nameAllocs map[string]uint64
	// totalNs is the summed duration of the calls named in totalNs keys.
	totalNs map[string]int64
	// opNs is each operation's wall time, replays excluded, per unit;
	// opTotalNs their sum over all operations.
	opNs      []float64
	opTotalNs int64
}

// replayOwner names the layer whose calls repeat the work a replay span
// times on its own.
var replayOwner = map[string]string{"cdfg.Block.Fingerprint": "core"}

// attribute computes self times: a span's duration minus its direct
// children's durations.
func (t *tracer) attribute() *attribution {
	a := &attribution{
		layerNs: map[string]int64{}, nameNs: map[string]int64{},
		layerAllocs: map[string]uint64{}, nameAllocs: map[string]uint64{},
		totalNs: map[string]int64{},
	}
	childNs := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	opWall := make([]int64, len(t.units))
	replayNs := map[string]int64{}
	replayAllocs := map[string]uint64{}
	for i, s := range t.spans {
		self := s.End - s.Start - childNs[i]
		allocs := s.Allocs - childAllocs[i]
		layer := layerOf(s.Name)
		a.layerNs[layer] += self
		a.nameNs[s.Name] += self
		a.layerAllocs[layer] += allocs
		a.nameAllocs[s.Name] += allocs
		a.totalNs[s.Name] += s.End - s.Start
		if s.Replay {
			replayNs[replayOwner[s.Name]] += s.End - s.Start
			replayAllocs[replayOwner[s.Name]] += s.Allocs
			if s.Op >= 0 {
				opWall[s.Op] -= s.End - s.Start
			}
		}
		if s.Parent < 0 && s.Op >= 0 {
			opWall[s.Op] += s.End - s.Start
		}
	}
	for owner, ns := range replayNs {
		a.layerNs[owner] -= ns
		a.layerAllocs[owner] -= min(a.layerAllocs[owner], replayAllocs[owner])
	}
	for i, u := range t.units {
		a.units += u
		a.opTotalNs += opWall[i]
		if u > 0 {
			a.opNs = append(a.opNs, float64(opWall[i])/float64(u))
		}
	}
	return a
}

// shares is each layer's self time as a percentage of the operations'
// wall time.
func (a *attribution) shares() map[string]float64 {
	out := make(map[string]float64, len(a.layerNs))
	for layer, ns := range a.layerNs {
		if a.opTotalNs > 0 {
			out[layer] = 100 * float64(ns) / float64(a.opTotalNs)
		}
	}
	return out
}

// perUnitMs is a summed nanosecond figure in milliseconds per work unit.
func (a *attribution) perUnitMs(ns int64) float64 {
	if a.units == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(a.units)
}

// perUnit is a summed count per work unit.
func (a *attribution) perUnit(n uint64) float64 {
	if a.units == 0 {
		return 0
	}
	return float64(n) / float64(a.units)
}
