package main

import (
	"context"
	"time"

	"ese/internal/core"
	"ese/internal/dse"
	"ese/internal/jobspec"
	"ese/internal/pum"
)

// baseReps is how many calibrations a sweep's set-up time is the median of.
const baseReps = 5

// calibratedRunner returns a Runner whose calibrated base model is
// memoized, and the times baseReps calibrations took.
func calibratedRunner() (*jobspec.Runner, []time.Duration, error) {
	var r *jobspec.Runner
	var times []time.Duration
	spec := jobspec.DefaultTLM()
	for i := 0; i < baseReps; i++ {
		r = &jobspec.Runner{}
		t0 := time.Now()
		if _, err := r.BaseModel(&spec); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return r, times, nil
}

// calibratedBase is the calibrated base processor model every TLM job of
// the benchmark starts from.
func calibratedBase() (*pum.PUM, error) {
	spec := jobspec.DefaultTLM()
	return spec.BaseModel()
}

// sweep runs one seed-drawn sweep repeatedly through dse.Run with nproc
// workers, each time with a fresh estimation cache, as a fresh esedse
// process would have. One operation is one point; an operation's latency
// is its sweep's wall time per point.
func sweep(e *env) (*outcome, error) {
	o := &outcome{notes: map[string]any{}}
	runner, setup, err := calibratedRunner()
	if err != nil {
		return nil, err
	}
	o.setup = setup
	sw := drawSweep(e.rng)
	points, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	var results [][]dse.Row
	var cs core.CacheStats
	start := time.Now()
	for time.Since(start) < e.seconds {
		runner.Cache = core.NewCache()
		t0 := time.Now()
		res, err := dse.Run(context.Background(), sw, dse.Options{Workers: e.nproc, Runner: runner})
		d := time.Since(t0)
		o.attempted += len(points)
		if err != nil {
			o.failed += len(points) - 1
			o.fail(err)
			continue
		}
		o.lat = append(o.lat, ms(d)/float64(len(points)))
		o.busy += d
		results = append(results, res.Rows)
		addStats(&cs, runner.Cache.Stats())
	}
	o.rssMB = peakRSSMB()
	for _, rows := range results {
		bad, err := e.golden.checkRows(points, rows)
		if bad > 0 {
			o.failed += bad - 1
			o.fail(err)
		}
		o.done += len(points) - bad
	}
	o.notes["points_per_sweep"] = len(points)
	o.notes["sweeps"] = len(results)
	o.notes["cache_hit_ratio"] = hitRatio(cs)
	o.notes["sweep_fingerprint"] = sw.Fingerprint()[:16]
	return o, accuracyGuard(e, o)
}

// addStats accumulates cache counters.
func addStats(dst *core.CacheStats, s core.CacheStats) {
	dst.SchedHits += s.SchedHits
	dst.SchedMisses += s.SchedMisses
	dst.EstHits += s.EstHits
	dst.EstMisses += s.EstMisses
	dst.Evictions += s.Evictions
}

// hitRatio is hits over lookups across both cache sides, as dse.Summary
// reports it.
func hitRatio(s core.CacheStats) float64 {
	hits := s.SchedHits + s.EstHits
	total := hits + s.SchedMisses + s.EstMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
