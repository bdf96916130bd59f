package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"ese/internal/core"
	"ese/internal/dse"
	"ese/internal/tlm"
)

// layerReport is what a traced run measured.
type layerReport struct {
	tally
	metrics map[string]metric
	notes   map[string]any
}

// tracedRun spends a third of the run on the untraced workload and the
// rest on the workload's operations composed call by call. Each composed
// operation runs twice: once with only its root span, the baseline for
// the tracing overhead, and once with every call inside a span.
func tracedRun(e *env) (*layerReport, error) {
	total := e.seconds
	e.seconds = total / 3
	o, err := untracedRun(e)
	if err != nil {
		return nil, err
	}
	e.seconds = total - e.seconds
	e.rng = rand.New(rand.NewSource(e.seed))
	lr := &layerReport{tally: o.tally, notes: map[string]any{}}
	bt, tr := newTracer(), newTracer()
	bt.rootsOnly = true
	cs := []*composer{newComposer(bt, core.NewCache(), nil), newComposer(tr, core.NewCache(), nil)}
	switch e.workload {
	case "oneshot":
		err = traceOneshot(e, cs, lr)
	case "sweep":
		err = traceSweep(e, cs, lr)
	case "serve":
		err = traceServe(e, cs, lr)
	case "scoreboard":
		err = traceScoreboard(e, cs, lr)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.json", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	a := tr.attribute()
	lr.notes["spans"] = path
	lr.notes["layer_share_pct"] = a.shares()
	lr.metrics = layerMetrics(a, cs[1], median(o.lat), median(bt.attribute().opNs)/1e6)
	if e.workload == "serve" {
		addServerMetrics(lr, o)
	}
	return lr, nil
}

// alternate runs op on every composer, the baseline and the traced one,
// in an order that alternates from operation n to the next, so drift in
// host speed falls on both alike.
func alternate(cs []*composer, n int, op func(c *composer)) {
	for k := range cs {
		op(cs[(n+k)%len(cs)])
	}
}

// traced runs one operation of the given units inside an "op" root span,
// then its correctness check outside the span, and records the outcome.
func traced(tr *tracer, lr *layerReport, units int, op, check func() error) {
	tr.beginOp(units)
	lr.attempted += units
	err := tr.do("op", op)
	if err == nil {
		err = check()
	}
	if err != nil {
		lr.failed += units - 1
		lr.fail(err)
	}
}

// traceOneshot runs oneshot jobs in process, each calibrating afresh with
// a fresh estimation cache, as a new esetlm process does.
func traceOneshot(e *env, cs []*composer, lr *layerReport) error {
	specs := oneshotSpecs()
	for n, start := 0, time.Now(); time.Since(start) < e.seconds; n++ {
		s := &specs[e.rng.Intn(len(specs))]
		alternate(cs, n, func(c *composer) {
			c.newCache()
			var res *tlm.Result
			traced(c.tr, lr, 1, func() (err error) {
				res, _, err = c.tlmJob(s)
				return err
			}, func() error {
				if err := e.golden.checkTLM(s, res.CyclesByPE, int64(res.EndPs), res.Steps); err != nil {
					return err
				}
				return e.oracle.checkOut(s, res.OutByPE)
			})
		})
	}
	return nil
}

// traceSweep runs the seed's sweep point by point on one goroutine with
// the memoized base model, a fresh cache per sweep.
func traceSweep(e *env, cs []*composer, lr *layerReport) error {
	base, err := calibratedBase()
	if err != nil {
		return err
	}
	sw := drawSweep(e.rng)
	points, err := sw.Expand()
	if err != nil {
		return err
	}
	for n, start := 0, time.Now(); time.Since(start) < e.seconds; n++ {
		alternate(cs, n, func(c *composer) {
			c.base = base
			c.newCache()
			var rows []dse.Row
			traced(c.tr, lr, len(points), func() error {
				return c.tr.do("dse.Run", func() error {
					points, err := sw.Expand()
					if err != nil {
						return err
					}
					for i := range points {
						res, bus, err := c.tlmJob(&points[i].Spec)
						if err != nil {
							return err
						}
						rows = append(rows, dse.Row{Index: i, EndPs: uint64(res.EndPs), BusCycles: bus, Steps: res.Steps})
					}
					return nil
				})
			}, func() error {
				for i, row := range rows {
					if got, want := pointStat(row), e.golden.Points[key(&points[i].Spec)]; got != want {
						return fmt.Errorf("point %d: %s, recorded %s", i, got, want)
					}
				}
				return nil
			})
		})
	}
	lr.notes["points_per_sweep"] = len(points)
	return nil
}

// traceServe replays the serve mix's requests one at a time in process
// against one shared cache and the memoized base model, as the daemon's
// runner holds them.
func traceServe(e *env, cs []*composer, lr *layerReport) error {
	m, err := newMix(e.rng)
	if err != nil {
		return err
	}
	base, err := calibratedBase()
	if err != nil {
		return err
	}
	for _, c := range cs {
		c.base = base
	}
	for n, start := 0, time.Now(); time.Since(start) < e.seconds; n++ {
		r := m.next()
		alternate(cs, n, func(c *composer) {
			if r.kind == kindEstimate {
				var got string
				traced(c.tr, lr, 1, func() (err error) {
					got, err = c.estimateJob(&r.spec)
					return err
				}, func() error {
					if want := e.golden.Estimates[key(&r.spec)]; got != want {
						return fmt.Errorf("estimate %s: digest %s, recorded %s", r.spec.Source.Name, got, want)
					}
					return nil
				})
				return
			}
			var res *tlm.Result
			var bus uint64
			traced(c.tr, lr, 1, func() (err error) {
				res, bus, err = c.tlmJob(&r.spec)
				return err
			}, func() error {
				if r.kind == kindTuned {
					row := dse.Row{EndPs: uint64(res.EndPs), BusCycles: bus, Steps: res.Steps}
					if got, want := pointStat(row), e.golden.Points[key(&r.spec)]; got != want {
						return fmt.Errorf("tuned %s/%s: %s, recorded %s", r.spec.App, r.spec.Design, got, want)
					}
				} else if err := e.golden.checkTLM(&r.spec, res.CyclesByPE, int64(res.EndPs), res.Steps); err != nil {
					return err
				}
				return e.oracle.checkOut(&r.spec, res.OutByPE)
			})
		})
	}
	return nil
}

// traceScoreboard runs the standard scoreboard composed call by call,
// each with a fresh cache as calib.RunScoreboard's pipeline has.
func traceScoreboard(e *env, cs []*composer, lr *layerReport) error {
	for n, start := 0, time.Now(); time.Since(start) < e.seconds; n++ {
		alternate(cs, n, func(c *composer) {
			c.newCache()
			var pairs map[string]string
			traced(c.tr, lr, 1, func() (err error) {
				pairs, err = c.scoreboard()
				return err
			}, func() error {
				if len(pairs) != len(e.golden.Scoreboard.Pairs) {
					return fmt.Errorf("scoreboard has %d points, recorded %d", len(pairs), len(e.golden.Scoreboard.Pairs))
				}
				for k, v := range pairs {
					if want := e.golden.Scoreboard.Pairs[k]; v != want {
						return fmt.Errorf("scoreboard %s: board/est %q, recorded %q", k, v, want)
					}
				}
				return nil
			})
		})
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans: self times
// and allocations per work unit, work counts per unit, and the traced
// operation time against the baseline's and the untraced workload's.
func layerMetrics(a *attribution, c *composer, untracedMs, baselineMs float64) map[string]metric {
	msOf := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += a.nameNs[n]
		}
		return a.perUnitMs(ns)
	}
	rate := func(steps uint64, names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += a.totalNs[n]
		}
		if ns == 0 {
			return 0
		}
		return float64(steps) / 1e6 / (float64(ns) / 1e9)
	}
	cs := c.cacheStats()
	opP50 := median(a.opNs) / 1e6
	return map[string]metric{
		"apps.source_ms":           {a.perUnitMs(a.layerNs["apps"]), "ms"},
		"apps.allocs":              {a.perUnit(a.layerAllocs["apps"]), "count"},
		"cfront.parse_ms":          {msOf("cfront.Parse"), "ms"},
		"cfront.check_ms":          {msOf("cfront.Check"), "ms"},
		"cfront.allocs":            {a.perUnit(a.layerAllocs["cfront"]), "count"},
		"cdfg.lower_ms":            {msOf("cdfg.Lower"), "ms"},
		"cdfg.simplify_ms":         {msOf("cdfg.SimplifyProgram"), "ms"},
		"cdfg.fingerprint_ms":      {msOf("cdfg.Block.Fingerprint"), "ms"},
		"cdfg.blocks":              {a.perUnit(c.blocks), "count"},
		"rtl.calibrate_ms":         {msOf("rtl.CalibrateReport", "calib.Calibrate"), "ms"},
		"rtl.calibrate_minstr":     {a.perUnit(c.calibSteps) / 1e6, "Minstr"},
		"rtl.board_ms":             {msOf("rtl.RunBoard"), "ms"},
		"rtl.board_minstr":         {a.perUnit(c.boardSteps) / 1e6, "Minstr"},
		"rtl.minstr_per_s":         {rate(c.calibSteps+c.boardSteps, "rtl.CalibrateReport", "calib.Calibrate", "rtl.RunBoard"), "Minstr/s"},
		"core.annotate_ms":         {a.perUnitMs(a.layerNs["core"]), "ms"},
		"core.sched_misses":        {a.perUnit(cs.SchedMisses), "count"},
		"core.est_misses":          {a.perUnit(cs.EstMisses), "count"},
		"core.hit_ratio":           {hitRatio(cs), "ratio"},
		"tlm.simulate_ms":          {msOf("tlm.Run"), "ms"},
		"tlm.minstr":               {a.perUnit(c.tlmSteps) / 1e6, "Minstr"},
		"tlm.minstr_per_s":         {rate(c.tlmSteps, "tlm.Run"), "Minstr/s"},
		"tlm.allocs":               {a.perUnit(a.layerAllocs["tlm"]), "count"},
		"jobspec.job_ms":           {a.perUnitMs(a.totalNs["jobspec.Job"]), "ms"},
		"jobspec.self_ms":          {a.perUnitMs(a.layerNs["jobspec"]), "ms"},
		"dse.self_ms":              {a.perUnitMs(a.layerNs["dse"]), "ms"},
		"calib.self_ms":            {a.perUnitMs(a.layerNs["calib"]), "ms"},
		"server.wait_ms":           {0, "ms"},
		"server.coalesced_ratio":   {0, "ratio"},
		"server.rejected":          {0, "count"},
		"trace.op_ms":              {a.perUnitMs(a.opTotalNs), "ms"},
		"trace.op_ms_p50":          {opP50, "ms"},
		"trace.untraced_op_ms_p50": {untracedMs, "ms"},
		"trace.baseline_op_ms_p50": {baselineMs, "ms"},
		"trace.overhead_ms":        {opP50 - baselineMs, "ms"},
		"trace.unattributed_ms":    {a.perUnitMs(a.layerNs["unattributed"]), "ms"},
	}
}

// addServerMetrics fills the server layer's metrics from the untraced
// HTTP third of a serve run.
func addServerMetrics(lr *layerReport, o *outcome) {
	lr.metrics["server.wait_ms"] = metric{o.notes["server_wait_ms_p50"].(float64), "ms"}
	if o.attempted > 0 {
		lr.metrics["server.coalesced_ratio"] = metric{float64(o.notes["coalesced"].(uint64)) / float64(o.attempted), "ratio"}
	}
	lr.metrics["server.rejected"] = metric{float64(o.notes["rejected"].(uint64)), "count"}
}
