package main

import (
	"context"
	"fmt"
	"strings"

	"ese/internal/annotate"
	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/jobspec"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// composer runs jobs the way the program composes them — jobspec.Runner,
// jobspec.Spec.BuildDesignFrom, apps.*Design, engine.Pipeline and
// calib.RunScoreboard — but makes every call into a layer itself, inside a
// span. Its results are checked against the recorded ones, which is what
// keeps the composition faithful to the program.
type composer struct {
	tr    *tracer
	cache *core.Cache
	reg   *metrics.Registry
	// base is the memoized calibrated processor model; nil makes every
	// job calibrate, as a fresh esetlm process does.
	base *pum.PUM

	// Work counts summed over the traced operations, and the counters of
	// the caches replaced so far.
	blocks, calibSteps, boardSteps, tlmSteps uint64
	cs                                       core.CacheStats
}

func newComposer(tr *tracer, c *core.Cache, base *pum.PUM) *composer {
	return &composer{tr: tr, cache: c, reg: metrics.NewRegistry(), base: base}
}

// newCache replaces the estimation cache, as a fresh process would start
// with, keeping the old one's counters.
func (c *composer) newCache() {
	addStats(&c.cs, c.cache.Stats())
	c.cache = core.NewCache()
}

// cacheStats sums the counters of every cache used so far.
func (c *composer) cacheStats() core.CacheStats {
	s := c.cs
	addStats(&s, c.cache.Stats())
	return s
}

// compile is apps.Compile: parse, check and lower.
func (c *composer) compile(name, src string) (*cdfg.Program, error) {
	var (
		f    *cfront.File
		u    *cfront.Unit
		prog *cdfg.Program
	)
	if err := c.tr.do("cfront.Parse", func() (err error) { f, err = cfront.Parse(name, src); return }); err != nil {
		return nil, err
	}
	if err := c.tr.do("cfront.Check", func() (err error) { u, err = cfront.Check(f); return }); err != nil {
		return nil, err
	}
	if err := c.tr.do("cdfg.Lower", func() (err error) { prog, err = cdfg.Lower(u); return }); err != nil {
		return nil, err
	}
	c.blocks += uint64(prog.NumBlocks())
	return prog, nil
}

// source generates a program's C source inside an apps span.
func (c *composer) source(name string, gen func() (string, error)) (string, error) {
	var src string
	err := c.tr.do(name, func() (err error) { src, err = gen(); return })
	return src, err
}

// baseModel is jobspec.Spec.BaseModel with calibration on: compile the
// MP3 training program and profile it on the cycle-accurate processor.
func (c *composer) baseModel() (*pum.PUM, error) {
	src, err := c.source("apps.MP3Source", func() (string, error) { return apps.MP3Source("SW", apps.TrainMP3) })
	if err != nil {
		return nil, err
	}
	prog, err := c.compile("train.c", src)
	if err != nil {
		return nil, err
	}
	var m *pum.PUM
	var rep *rtl.CalibReport
	err = c.tr.do("rtl.CalibrateReport", func() (err error) {
		m, rep, err = rtl.CalibrateReport(pum.MicroBlaze(), prog, "main", pum.StandardCacheConfigs, 0)
		return
	})
	if err != nil {
		return nil, err
	}
	c.calibSteps += rep.Steps * uint64(len(rep.Stats))
	return m, nil
}

// design is jobspec.Spec.BuildDesignFrom followed by apps.MP3Design or
// apps.JPEGDesign.
func (c *composer) design(s *jobspec.Spec, base *pum.PUM) (*platform.Design, error) {
	mb := base
	if t := s.Tune; t != nil {
		var err error
		if mb, err = base.WithDatapath(t.Depth, t.Issue, t.FUs); err != nil {
			return nil, err
		}
		if t.BranchMiss != nil {
			mb.Branch.MissRate = *t.BranchMiss
		}
		if t.BranchPenalty != nil {
			mb.Branch.Penalty = *t.BranchPenalty
		}
	}
	cc := pum.CacheCfg{ISize: s.ICache, DSize: s.DCache}
	seed := s.Normalized().Seed
	var (
		src, file, name string
		hw              [][2]string // PE name, entry
		err             error
	)
	switch s.App {
	case "mp3":
		src, err = c.source("apps.MP3Source", func() (string, error) {
			return apps.MP3Source(s.Design, apps.MP3Config{Frames: s.Frames, Seed: seed})
		})
		file, name = "mp3_"+s.Design+".c", fmt.Sprintf("%s@%s", s.Design, cc)
		switch s.Design {
		case "SW+1":
			hw = [][2]string{{"fc_l", "fc_left_hw"}}
		case "SW+2":
			hw = [][2]string{{"imdct_l", "imdct_left_hw"}, {"fc_l", "fc_left_hw"}}
		case "SW+4":
			hw = [][2]string{{"imdct_l", "imdct_left_hw"}, {"fc_l", "fc_left_hw"}, {"imdct_r", "imdct_right_hw"}, {"fc_r", "fc_right_hw"}}
		}
	case "jpeg":
		cfg := apps.JPEGConfig{Blocks: s.Frames, Seed: seed}
		if s.Design == "SW+DCT" {
			src, err = c.source("apps.JPEGSourceDCTHW", func() (string, error) { return apps.JPEGSourceDCTHW(cfg), nil })
			hw = [][2]string{{"dct", "dct_hw"}}
		} else {
			src, err = c.source("apps.JPEGSource", func() (string, error) { return apps.JPEGSource(cfg), nil })
		}
		file, name = "jpeg_"+s.Design+".c", fmt.Sprintf("jpeg-%s@%s", s.Design, cc)
	default:
		return nil, fmt.Errorf("unknown app %q", s.App)
	}
	if err != nil {
		return nil, err
	}
	prog, err := c.compile(file, src)
	if err != nil {
		return nil, err
	}
	cpu, err := mb.WithCache(cc)
	if err != nil {
		return nil, err
	}
	d := &platform.Design{Name: name, Program: prog, Bus: platform.DefaultBus()}
	d.PEs = append(d.PEs, &platform.PE{
		Name: "mb", Kind: platform.Processor, Entry: "main", PUM: cpu,
		ICache: cache.Config{Size: cc.ISize, LineBytes: cache.DefaultLine, Assoc: 2},
		DCache: cache.Config{Size: cc.DSize, LineBytes: cache.DefaultLine, Assoc: 2},
	})
	for _, h := range hw {
		d.PEs = append(d.PEs, &platform.PE{Name: h[0], Kind: platform.HWUnit, Entry: h[1], PUM: pum.CustomHW(h[0], 100_000_000)})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, d.ValidateChannels()
}

// fpReplay times the block fingerprinting that core.EstimateBlocksCtx
// does inside the next annotation call (one Block.Fingerprint per block
// when a cache is in use). The program offers no hook to time it in
// place, so the benchmark repeats it in a replay span; attribution moves
// that time from core to cdfg and leaves it out of the operation's wall
// time.
func (c *composer) fpReplay(prog *cdfg.Program) error {
	return c.tr.replay("cdfg.Block.Fingerprint", func() error {
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				_ = b.Fingerprint()
			}
		}
		return nil
	})
}

// annotate is engine.Pipeline's annotation of one program for one PE,
// single-threaded so allocation deltas stay attributable.
func (c *composer) annotate(prog *cdfg.Program, p *pum.PUM) (*annotate.Annotated, error) {
	if err := c.fpReplay(prog); err != nil {
		return nil, err
	}
	var a *annotate.Annotated
	err := c.tr.do("annotate.AnnotateCtx", func() (err error) {
		a, err = annotate.AnnotateCtx(context.Background(), prog, p, core.FullDetail,
			core.EstOptions{Workers: 1, Cache: c.cache, FallbackCycles: core.DefaultFallbackCycles, Metrics: c.reg})
		return
	})
	return a, err
}

// simulate is engine.Pipeline.SimulateCtx for a timed run.
func (c *composer) simulate(d *platform.Design) (*tlm.Result, error) {
	delays := make(map[string]map[*cdfg.Block]float64, len(d.PEs))
	for _, pe := range d.PEs {
		a, err := c.annotate(d.Program, pe.PUM)
		if err != nil {
			return nil, err
		}
		delays[pe.Name] = a.Delays()
	}
	var res *tlm.Result
	err := c.tr.do("tlm.Run", func() (err error) {
		res, err = tlm.Run(d, tlm.Options{
			Timed: true, WaitMode: tlm.WaitAtTransactions, Detail: core.FullDetail,
			Delays: delays, Ctx: context.Background(), Metrics: c.reg,
		})
		return
	})
	if err != nil {
		return nil, err
	}
	c.tlmSteps += res.Steps
	return res, nil
}

// tlmJob is jobspec.Runner.Run on a timed TLM spec. It also returns the
// simulated end time in bus cycles.
func (c *composer) tlmJob(s *jobspec.Spec) (*tlm.Result, uint64, error) {
	n := s.Normalized()
	var res *tlm.Result
	var busCycles uint64
	err := c.tr.do("jobspec.Job", func() error {
		base := c.base
		if base == nil {
			var err error
			if base, err = c.baseModel(); err != nil {
				return err
			}
		}
		d, err := c.design(&n, base)
		if err != nil {
			return err
		}
		if res, err = c.simulate(d); err != nil {
			return err
		}
		busCycles = res.EndCycles(d.Bus.ClockHz)
		return nil
	})
	return res, busCycles, err
}

// estimateJob is jobspec.Runner.Run on an estimate spec; it returns the
// digest golden.json records.
func (c *composer) estimateJob(s *jobspec.Spec) (string, error) {
	var dig string
	err := c.tr.do("jobspec.Job", func() error {
		prog, err := c.compile(s.Source.Name, s.Source.Code)
		if err != nil {
			return err
		}
		model, err := s.ResolveModel()
		if err != nil {
			return err
		}
		if model, err = s.ApplyCache(model); err != nil {
			return err
		}
		a, err := c.annotate(prog, model)
		if err != nil {
			return err
		}
		var blocks []jobspec.BlockEstimate
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				e := a.Est[b]
				blocks = append(blocks, jobspec.BlockEstimate{
					Func: fn.Name, Block: b.ID, Ops: e.Ops, Operands: e.Operands, Sched: e.Sched,
					Branch: e.BranchPen, IDelay: e.IDelay, DDelay: e.DDelay, Total: e.Total, Unmapped: e.Unmapped,
				})
			}
		}
		dig = estimateDigest(model.Name, a.Summary(), blocks)
		return nil
	})
	return dig, err
}

// scoreboard is calib.RunScoreboard over the standard matrix. It returns
// the estimate-vs-board pairs keyed as golden.json records them.
func (c *composer) scoreboard() (map[string]string, error) {
	pairs := make(map[string]string)
	err := c.tr.do("calib.RunScoreboard", func() error {
		board := make(map[string]uint64)
		for _, label := range calib.StandardTrains {
			var ts []calib.Training
			for _, app := range strings.Split(label, "+") {
				tr, err := c.training(app)
				if err != nil {
					return err
				}
				ts = append(ts, tr)
			}
			var model *pum.PUM
			var reps []*rtl.CalibReport
			err := c.tr.do("calib.Calibrate", func() (err error) {
				model, reps, err = calib.Calibrate(pum.MicroBlaze(), ts, pum.StandardCacheConfigs, 0)
				return
			})
			if err != nil {
				return err
			}
			for _, rep := range reps {
				c.calibSteps += rep.Steps * uint64(len(rep.Stats))
			}
			for _, ad := range exampleDesigns {
				for _, cc := range pum.StandardCacheConfigs {
					s := tlmSpec(ad, cc, apps.DefaultMP3.Frames, 0)
					if ad.App == "jpeg" {
						s.Frames = apps.DefaultJPEG.Blocks
					}
					d, err := c.design(&s, model)
					if err != nil {
						return err
					}
					bk := fmt.Sprintf("%s/%s/%s", ad.App, ad.Design, cc)
					ref, ok := board[bk]
					if !ok {
						var br *rtl.BoardResult
						if err := c.tr.do("rtl.RunBoard", func() (err error) { br, err = rtl.RunBoard(d, 0); return }); err != nil {
							return err
						}
						c.boardSteps += br.Steps
						ref = br.EndCycles(d.Bus.ClockHz)
						board[bk] = ref
					}
					res, err := c.simulate(d)
					if err != nil {
						return err
					}
					pairs[pairKey(label, ad.App, ad.Design, cc.ISize, cc.DSize)] =
						fmt.Sprintf("%d %d", ref, res.EndCycles(d.Bus.ClockHz))
				}
			}
		}
		return nil
	})
	return pairs, err
}

// training is calib.Trainings for one application.
func (c *composer) training(app string) (calib.Training, error) {
	var (
		src, file string
		err       error
	)
	switch app {
	case "mp3":
		src, err = c.source("apps.MP3Source", func() (string, error) { return apps.MP3Source("SW", apps.TrainMP3) })
		file = "mp3_SW.c"
	case "jpeg":
		src, err = c.source("apps.JPEGSource", func() (string, error) { return apps.JPEGSource(apps.TrainJPEG), nil })
		file = "jpeg_train.c"
	default:
		return calib.Training{}, fmt.Errorf("unknown training app %q", app)
	}
	if err != nil {
		return calib.Training{}, err
	}
	prog, err := c.compile(file, src)
	if err != nil {
		return calib.Training{}, err
	}
	return calib.Training{Name: app, Prog: prog, Entry: "main"}, nil
}
