package rtl

import (
	"errors"
	"fmt"

	"ese/internal/branch"
	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/iss"
	"ese/internal/pum"
)

// ErrUncalibrated reports that a calibration run had no cached cache
// configuration to profile: every entry of cfgs was the uncached {0,0}
// geometry, which needs no statistics (every access pays the external
// latency), so neither the memory table nor the branch misprediction ratio
// was measured. Returning the base model unchanged in that case used to be
// silent; callers that meant to calibrate must be told nothing happened.
var ErrUncalibrated = errors.New("rtl: no cached configuration to calibrate on (statistical models unchanged)")

// CalibStats is one cached configuration's measured statistics: the memory
// snapshot that enters the PUM table, plus the branch misprediction ratio
// and dynamic instruction count of the profiling run under that
// configuration — the per-config provenance of the calibration.
type CalibStats struct {
	Cfg        pum.CacheCfg
	Mem        pum.MemStats
	BranchMiss float64
	Steps      uint64
}

// CalibReport is the provenance of one training run: what was measured per
// cached configuration, which configurations were skipped as uncached, and
// the config-independent branch misprediction ratio that entered the model.
type CalibReport struct {
	// Train labels the training program. Calibrate sets it to the entry
	// name; multi-program drivers (internal/calib) overwrite it with the
	// application label before merging reports.
	Train string
	Entry string
	// Stats holds one entry per cached configuration, in cfgs order.
	Stats []CalibStats
	// Uncached lists the configurations skipped because both sides are
	// absent: every access pays the external latency (see PUM.WithCache),
	// so there is nothing to measure.
	Uncached []pum.CacheCfg
	// BranchMiss is the misprediction ratio recorded into the model. The
	// branch predictor sees the same retired instruction stream whatever
	// the caches do, and calibration drives one predictor with that one
	// stream, so every Stats entry carries this same value.
	BranchMiss float64
	// Steps is the dynamic instruction count of the profiling run, shared
	// by every Stats entry.
	Steps uint64
}

// Calibrate profiles a training process against the board's caches and
// branch predictor for each cache configuration and returns a copy of the
// base PUM whose statistical memory table and branch misprediction ratio
// hold the measured values — the way a designer populates the paper's
// statistical memory and branch delay models. The training entry must be a
// self-contained process (no channel communication), typically a reduced
// or representative input; evaluating on different inputs is what makes the
// statistical model approximate.
//
// The training process retires once, on a functional machine. Each
// retired instruction's fetch address goes to one I-cache per distinct
// I-cache size, its data addresses to one D-cache per distinct D-cache
// size, and its conditional branch outcome to one predictor, in program
// order — exactly the accesses the cycle-accurate CPU makes per retired
// instruction, so the statistics equal a separate CPU run per
// configuration. The run fails once it has retired more than limit
// instructions (0 = no limit) without finishing.
//
// Configuration semantics:
//   - {0,0} is uncached: no statistics are needed, the configuration is
//     skipped (every access pays ExtLatency, see PUM.WithCache). If every
//     configuration is uncached the call fails with ErrUncalibrated
//     instead of silently returning an uncalibrated clone.
//   - Mixed geometry ({0,D} or {I,0}): the absent side pays the external
//     latency on every access and is recorded with hit rate 0; real
//     statistics are measured for the present side.
//
// Branch model: the predictor sees one retired instruction stream, so the
// misprediction ratio is config-independent by construction; it is
// recorded in the model, with per-config provenance in the returned PUM's
// Calib list and in the CalibReport.
func Calibrate(base *pum.PUM, prog *cdfg.Program, entry string, cfgs []pum.CacheCfg, limit uint64) (*pum.PUM, error) {
	out, _, err := CalibrateReport(base, prog, entry, cfgs, limit)
	return out, err
}

// CalibrateReport is Calibrate returning the per-config provenance next to
// the calibrated model.
func CalibrateReport(base *pum.PUM, prog *cdfg.Program, entry string, cfgs []pum.CacheCfg, limit uint64) (*pum.PUM, *CalibReport, error) {
	isa, err := iss.Generate(prog)
	if err != nil {
		return nil, nil, err
	}
	rep := &CalibReport{Train: entry, Entry: entry}
	var cached []pum.CacheCfg
	for _, cfg := range cfgs {
		if cfg.ISize == 0 && cfg.DSize == 0 {
			// The uncached configuration needs no statistics: every access
			// pays the external latency (see PUM.WithCache).
			rep.Uncached = append(rep.Uncached, cfg)
		} else {
			cached = append(cached, cfg)
		}
	}
	if len(cached) == 0 {
		return nil, nil, fmt.Errorf("%w: every configuration in %v is uncached", ErrUncalibrated, cfgs)
	}
	ic, dc := newCacheSet(), newCacheSet()
	for _, cfg := range cached {
		ic.get(cfg.ISize)
		dc.get(cfg.DSize)
	}
	pred, err := predictorFor(base.Branch.Predictor)
	if err != nil {
		return nil, nil, err
	}
	bp := branch.Stats{P: pred}
	m := iss.NewMachine(isa)
	if err := m.Start(entry); err != nil {
		return nil, nil, err
	}
	var t iss.Trace
	for {
		if err := m.Step(&t); err != nil {
			return nil, nil, fmt.Errorf("rtl: calibrating %v: %w", cached, err)
		}
		if !t.Executed {
			break
		}
		pc := iss.PCAddr(t.PC)
		for _, c := range ic.live {
			c.Access(pc)
		}
		for _, c := range dc.live {
			for _, a := range t.DAddrs {
				c.Access(a)
			}
		}
		if t.Branch {
			bp.Resolve(pc, t.Taken)
		}
		if t.Done {
			break
		}
		if limit != 0 && m.Steps > limit {
			return nil, nil, fmt.Errorf("rtl: calibrating %v: step limit %d exceeded", cached, limit)
		}
	}

	out := base.Clone()
	out.Calib = nil // recalibration replaces any prior provenance
	extLat := uint64(base.Mem.ExtLatency)
	rep.BranchMiss = bp.MissRate()
	rep.Steps = m.Steps
	for _, cfg := range cached {
		st := memStats(ic.get(cfg.ISize), dc.get(cfg.DSize), extLat)
		if err := st.Validate(); err != nil {
			return nil, nil, fmt.Errorf("rtl: calibrating %v: degenerate statistics: %w", cfg, err)
		}
		out.Mem.Table[cfg] = st
		rep.Stats = append(rep.Stats, CalibStats{
			Cfg: cfg, Mem: st, BranchMiss: rep.BranchMiss, Steps: rep.Steps,
		})
		out.Calib = append(out.Calib, pum.CalibSource{
			Cfg: cfg, Train: rep.Train, Steps: rep.Steps, BranchMiss: rep.BranchMiss,
		})
	}
	out.Branch.MissRate = rep.BranchMiss
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("rtl: calibrated model invalid: %w", err)
	}
	return out, rep, nil
}

// cacheSet holds one board cache per distinct size, so configurations that
// share a geometry share its statistics.
type cacheSet struct {
	bySize map[int]*cache.Cache
	live   []*cache.Cache // the enabled caches, in first-use order
}

func newCacheSet() *cacheSet { return &cacheSet{bySize: map[int]*cache.Cache{}} }

// get returns the cache of the given size, building it on first use; a
// size of 0 yields a disabled cache that is never accessed.
func (s *cacheSet) get(size int) *cache.Cache {
	c, ok := s.bySize[size]
	if !ok {
		c = cache.New(RealCacheConfig(size))
		s.bySize[size] = c
		if c.Enabled() {
			s.live = append(s.live, c)
		}
	}
	return c
}
