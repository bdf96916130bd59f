package main

import (
	"fmt"
	"math/rand"
	"os/exec"
	"testing"
	"time"

	"ese/internal/dse"
	"ese/internal/jobspec"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		value  float64
		beyond int
	}{
		{100, 90, 10}, // p90: ten samples (91..100) beyond
		{11, 1, 10},   // the smallest qualifying sample count
		{25, 15, 10},
		{10, 10, 0}, // too few: the maximum, flagged by Beyond < 10
		{1, 1, 0},
	} {
		got := tail(seq(c.n))
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("tail(n=%d) = %+v, want value %v beyond %d", c.n, got, c.value, c.beyond)
		}
		if c.beyond == minBeyond && got.Pct != 100*float64(c.n-minBeyond)/float64(c.n) {
			t.Errorf("tail(n=%d) percentile %v", c.n, got.Pct)
		}
	}
	if got := tail(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("tail(nil) = %+v", got)
	}
}

func TestWindowTail(t *testing.T) {
	// Three windows of 20 samples; one window holds a stall. The median of
	// the windows' tails ignores it, the run-wide tail does not.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 20; i++ {
			v := 1.0
			if w == 1 && i >= 5 {
				v = 100
			}
			xs = append(xs, v)
		}
	}
	if got := windowTail(xs, 3); got.Value != 1 || got.Windows != 3 || got.N != 20 {
		t.Errorf("windowTail = %+v, want value 1 over 3 windows of 20", got)
	}
	if got := windowTail(xs, 1); got.Value != 100 {
		t.Errorf("windowTail(1 window) = %+v, want the run-wide tail 100", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	dues := make([]time.Duration, 8)
	for i := range dues {
		dues[i] = time.Duration(i) * gap
	}
	samples := openLoop(dues, 1, func(i int) (int, []byte, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	})
	for i, s := range samples {
		if s.due != dues[i] {
			t.Fatalf("sample %d due %v, want %v", i, s.due, dues[i])
		}
		// The generator keeps its schedule while the only connection is
		// stalled: requests queue in the client instead of being delayed
		// at the source.
		if late := s.sent - s.due; late > stall/2 {
			t.Errorf("sample %d sent %v late", i, late)
		}
	}
	// Request 1 was due 10ms in but could only start after the stall: its
	// latency counts the wait, its service time does not.
	s := samples[1]
	if s.latency() < stall-2*gap {
		t.Errorf("stalled-behind request latency %v, want >= %v", s.latency(), stall-2*gap)
	}
	if s.service() > stall/2 {
		t.Errorf("stalled-behind request service time %v, want small", s.service())
	}
	if samples[0].latency() < stall {
		t.Errorf("stalled request latency %v, want >= %v", samples[0].latency(), stall)
	}
}

func mustGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckTLMRejectsPerturbedCycles(t *testing.T) {
	g := mustGolden(t)
	s := oneshotSpecs()[7]
	want, ok := g.TLM[key(&s)]
	if !ok {
		t.Fatalf("no golden entry for %s/%s", s.App, s.Design)
	}
	if err := g.checkTLM(&s, want.Cycles, int64(want.EndPs), want.Steps); err != nil {
		t.Fatalf("recorded statistics rejected: %v", err)
	}
	perturbed := make(map[string]uint64)
	for pe, c := range want.Cycles {
		perturbed[pe] = c
	}
	perturbed["mb"]++
	if err := g.checkTLM(&s, perturbed, int64(want.EndPs), want.Steps); err == nil {
		t.Error("a cycle count off by one passed")
	}
	if err := g.checkTLM(&s, want.Cycles, int64(want.EndPs), want.Steps+1); err == nil {
		t.Error("a step count off by one passed")
	}
	if err := g.checkTLM(&s, want.Cycles, int64(want.EndPs)+1, want.Steps); err == nil {
		t.Error("an end time off by one passed")
	}
}

// recordedRows builds a sweep's rows from the recorded point statistics.
func recordedRows(t *testing.T, g *golden, points []dse.Point) []dse.Row {
	t.Helper()
	rows := make([]dse.Row, len(points))
	for i, p := range points {
		rows[i] = dse.Row{Index: i, App: p.Spec.App, Design: p.Spec.Design, ICache: p.Spec.ICache, DCache: p.Spec.DCache, Area: p.Area}
		if _, err := fmt.Sscanf(g.Points[key(&p.Spec)], "%d %d %d", &rows[i].EndPs, &rows[i].BusCycles, &rows[i].Steps); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	return rows
}

func TestCheckRowsRejectsPerturbedRow(t *testing.T) {
	g := mustGolden(t)
	points, err := drawSweep(rand.New(rand.NewSource(3))).Expand()
	if err != nil {
		t.Fatal(err)
	}
	rows := recordedRows(t, g, points)
	if bad, err := g.checkRows(points, rows); bad != 0 {
		t.Fatalf("recorded rows rejected: %v", err)
	}
	rows[5].Steps++
	if bad, _ := g.checkRows(points, rows); bad != 1 {
		t.Errorf("one perturbed row: %d rows rejected, want 1", bad)
	}
	if bad, _ := g.checkRows(points, rows[1:]); bad != len(points) {
		t.Errorf("a missing row: %d rows rejected, want all %d", bad, len(points))
	}
}

func TestDigestsRejectPerturbation(t *testing.T) {
	blocks := []jobspec.BlockEstimate{{Func: "main", Block: 0, Ops: 3, Sched: 4, Total: 5.5}}
	base := estimateDigest("mb", "annotation for PE \"mb\"\n  annotation time: 1ms\n", blocks)
	if got := estimateDigest("mb", "annotation for PE \"mb\"\n  annotation time: 9ms\n", blocks); got != base {
		t.Error("the annotation wall time changed the estimate digest")
	}
	perturbed := append([]jobspec.BlockEstimate(nil), blocks...)
	perturbed[0].Total += 1
	if estimateDigest("mb", "annotation for PE \"mb\"\n", perturbed) == base {
		t.Error("a perturbed block estimate kept its digest")
	}
	out := map[string][]int32{"mb": {1, 2, 3}, "hw": nil}
	if !sameOut(out, map[string][]int32{"mb": {1, 2, 3}}) {
		t.Error("an empty stream differs from an absent one")
	}
	if sameOut(out, map[string][]int32{"mb": {1, 2, 4}}) {
		t.Error("a perturbed output stream passed")
	}
}

func TestAttributionAccountsForWallTime(t *testing.T) {
	// op [0,100] > job [10,90] > {parse [20,40], replay fp [40,45],
	// annotate [45,80]}: the replay's 5 moves from core to cdfg and out of
	// the operation's wall time.
	tr := &tracer{units: []int{2}, spans: []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "jobspec.Job", Start: 10, End: 90},
		{ID: 2, Parent: 1, Op: 0, Name: "cfront.Parse", Start: 20, End: 40, Allocs: 7},
		{ID: 3, Parent: 1, Op: 0, Name: "cdfg.Block.Fingerprint", Start: 40, End: 45, Replay: true},
		{ID: 4, Parent: 1, Op: 0, Name: "annotate.AnnotateCtx", Start: 45, End: 80},
	}}
	a := tr.attribute()
	want := map[string]int64{"unattributed": 20, "jobspec": 20, "cfront": 20, "cdfg": 5, "core": 30}
	var sum int64
	for layer, ns := range a.layerNs {
		sum += ns
		if ns != want[layer] {
			t.Errorf("layer %s self %d, want %d", layer, ns, want[layer])
		}
	}
	if a.opTotalNs != 95 || sum != a.opTotalNs {
		t.Errorf("op wall %d, layers sum to %d, want both 95", a.opTotalNs, sum)
	}
	if a.units != 2 || a.opNs[0] != 47.5 {
		t.Errorf("per-unit op wall %v over %d units, want 47.5 over 2", a.opNs, a.units)
	}
	if a.layerAllocs["cfront"] != 7 {
		t.Errorf("cfront allocs %d, want 7", a.layerAllocs["cfront"])
	}
}

func TestRootsOnlyTracerKeepsOperationsAndSkipsReplays(t *testing.T) {
	tr := newTracer()
	tr.rootsOnly = true
	calls, replays := 0, 0
	for op := 0; op < 2; op++ {
		tr.beginOp(1)
		err := tr.do("op", func() error {
			return tr.do("jobspec.Job", func() error {
				calls++
				return tr.replay("cdfg.Block.Fingerprint", func() error { replays++; return nil })
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 || replays != 0 {
		t.Errorf("%d calls and %d replays ran, want 2 and 0", calls, replays)
	}
	if len(tr.spans) != 2 || tr.spans[0].Name != "op" || tr.spans[1].Name != "op" || tr.spans[1].Op != 1 {
		t.Fatalf("spans %+v, want one root span per operation", tr.spans)
	}
	if a := tr.attribute(); len(a.opNs) != 2 || a.layerNs["jobspec"] != 0 {
		t.Errorf("attribution %+v, want two operation times and no layer time", a)
	}
}

func TestMeasuredRunReportsTheChildsOwnPeak(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/rssexec", "./rssexec").CombinedOutput(); err != nil {
		t.Fatalf("building rssexec: %v: %s", err, out)
	}
	// A spawning process this large would show in the child's own
	// accounting if the child were spawned from it directly.
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	out, d, rss, err := measuredRun(bin, "/bin/sh", []string{"-c", "echo ok"})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok\n" || d <= 0 || rss <= 0 || rss >= 32 {
		t.Errorf("output %q, time %v, peak %.1f MB: want ok, a positive time and the shell's few MB", out, d, rss)
	}
	if ballast[len(ballast)-1] != 1 {
		t.Fatal("ballast lost")
	}
	if _, _, _, err := measuredRun(bin, "/bin/sh", []string{"-c", "exit 3"}); err == nil {
		t.Error("a failing command passed")
	}
}
