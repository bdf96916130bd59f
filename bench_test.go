// Benchmarks regenerating the paper's evaluation (Tables 1–3) and the
// ablations of DESIGN.md, plus microbenchmarks of every engine in the
// stack. Run with:
//
//	go test -bench=. -benchmem
//
// Table benches report simulated cycles (and estimation error where
// applicable) as custom metrics next to the wall-clock numbers, so one run
// reproduces both the speed and the accuracy story.
package ese

import (
	"testing"

	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/experiments"
	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/sim"
	"ese/internal/tlm"
)

// benchEval is the workload for benchmarks: one frame keeps -bench=. runs
// in seconds; scale with esebench -frames for longer experiments.
var benchEval = apps.MP3Config{Frames: 1, Seed: 0xC0FFEE}

var benchSetupCache *experiments.Setup

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	if benchSetupCache == nil {
		s, err := experiments.NewSetup(benchEval, apps.TrainMP3)
		if err != nil {
			b.Fatal(err)
		}
		benchSetupCache = s
	}
	return benchSetupCache
}

func benchDesign(b *testing.B, s *experiments.Setup, name string, cc pum.CacheCfg) *Design {
	b.Helper()
	d, err := apps.MP3Design(name, s.Eval, s.MB, cc)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

var benchCache = pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}

// ---- Table 1: scalability (per-design simulation speed) ----

// benchTimedTLM times the simulation stage alone under the chosen
// execution engine: delays are precomputed once outside the timer (the
// paper reports annotation and simulation as separate columns), so the
// engine-vs-engine ratio measures execution, not annotation.
func benchTimedTLM(b *testing.B, design string, eng interp.EngineKind) {
	s := benchSetup(b)
	d := benchDesign(b, s, design, benchCache)
	dm, annoTime := s.Pipe.Delays(d, core.FullDetail)
	opts := tlm.Options{
		Timed:    true,
		WaitMode: tlm.WaitAtTransactions,
		Detail:   core.FullDetail,
		Delays:   dm,
		AnnoTime: annoTime,
		Engine:   eng,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tlm.Run(d, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EndCycles(d.Bus.ClockHz)), "sim-cycles")
	}
}

func BenchmarkTable1_TimedTLM_SW(b *testing.B)  { benchTimedTLM(b, "SW", interp.EngineCompiled) }
func BenchmarkTable1_TimedTLM_SW1(b *testing.B) { benchTimedTLM(b, "SW+1", interp.EngineCompiled) }
func BenchmarkTable1_TimedTLM_SW2(b *testing.B) { benchTimedTLM(b, "SW+2", interp.EngineCompiled) }
func BenchmarkTable1_TimedTLM_SW4(b *testing.B) { benchTimedTLM(b, "SW+4", interp.EngineCompiled) }

func BenchmarkTable1_TimedTLM_SW_Tree(b *testing.B)  { benchTimedTLM(b, "SW", interp.EngineTree) }
func BenchmarkTable1_TimedTLM_SW1_Tree(b *testing.B) { benchTimedTLM(b, "SW+1", interp.EngineTree) }
func BenchmarkTable1_TimedTLM_SW2_Tree(b *testing.B) { benchTimedTLM(b, "SW+2", interp.EngineTree) }
func BenchmarkTable1_TimedTLM_SW4_Tree(b *testing.B) { benchTimedTLM(b, "SW+4", interp.EngineTree) }

// BenchmarkTable1_TimedTLM_SW_WithAnno keeps the old end-to-end shape
// (annotation inside the timer) for trend comparison with earlier baselines.
func BenchmarkTable1_TimedTLM_SW_WithAnno(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW", benchCache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tlm.RunTimed(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EndCycles(d.Bus.ClockHz)), "sim-cycles")
	}
}

func BenchmarkTable1_FunctionalTLM_SW4(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlm.RunFunctional(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Annotation_SW4(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pe := range d.PEs {
			core.EstimateBlocks(d.Program, pe.PUM, core.FullDetail)
		}
	}
}

func BenchmarkTable1_ISS_SW(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW", benchCache)
	isa, err := iss.Generate(d.Program)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := iss.NewMachine(isa)
		if err := m.Start("main"); err != nil {
			b.Fatal(err)
		}
		sim := iss.NewISS(m, iss.DefaultTiming(benchCache.ISize, benchCache.DSize))
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sim.Cycles), "sim-cycles")
	}
}

func benchPCAM(b *testing.B, design string) {
	s := benchSetup(b)
	d := benchDesign(b, s, design, benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rtl.RunBoard(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EndCycles(d.Bus.ClockHz)), "sim-cycles")
	}
}

func BenchmarkTable1_PCAM_SW(b *testing.B)  { benchPCAM(b, "SW") }
func BenchmarkTable1_PCAM_SW4(b *testing.B) { benchPCAM(b, "SW+4") }

// ---- Table 2: SW-only accuracy sweep ----

func BenchmarkTable2_FullSweep(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2, err := experiments.RunTable2(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t2.AvgTLMErr, "tlm-avg-err-%")
		b.ReportMetric(t2.AvgISSErr, "iss-avg-err-%")
	}
}

// ---- Table 3: HW-design accuracy sweep ----

func BenchmarkTable3_FullSweep(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3, err := experiments.RunTable3(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t3.AvgErr["SW+4"], "sw4-avg-err-%")
	}
}

// ---- Ablations ----

func BenchmarkAblationGranularity_PerTransaction(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlm.Run(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Detail: core.FullDetail}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGranularity_PerBlock(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlm.Run(d, tlm.Options{Timed: true, WaitMode: tlm.WaitPerBlock, Detail: core.FullDetail}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSensitivity(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sens, err := experiments.RunSensitivity(s, pum.CacheCfg{ISize: 2048, DSize: 2048},
			[]float64{-0.25, 0, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sens.Points[2].Err-sens.Points[0].Err, "err-spread-%")
	}
}

func BenchmarkAblationPUMDetail(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPUMDetail(s, pum.CacheCfg{ISize: 2048, DSize: 2048}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Engine microbenchmarks ----

func BenchmarkEngine_Interp(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(prog)
		if err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Steps)) // "bytes" = dynamic IR ops, for MB/s-style rates
	}
}

// BenchmarkEngine_Compiled is the flat engine on the same program: one
// machine reused across iterations (Reset), the pattern the TLM layer's
// steady state resembles once frame pools are warm.
func BenchmarkEngine_Compiled(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := interp.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	m := interp.NewCompiled(cp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.StepCount()))
	}
}

func BenchmarkEngine_ISAMachine(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := iss.NewMachine(isa)
		if err := m.Start("main"); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Steps))
	}
}

func BenchmarkEngine_BoardCPU(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := iss.NewMachine(isa)
		if err := m.Start("main"); err != nil {
			b.Fatal(err)
		}
		cpu, err := rtl.NewCPU(m, rtl.CPUConfig{
			Model:  pum.MicroBlaze(),
			ICache: rtl.RealCacheConfig(benchCache.ISize),
			DCache: rtl.RealCacheConfig(benchCache.DSize),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cpu.Run(0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Steps))
	}
}

func BenchmarkEngine_ScheduleAlgorithm1(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model := pum.MicroBlaze()
	var dfgs []*cdfg.DFG
	for _, fn := range prog.Funcs {
		for _, blk := range fn.Blocks {
			dfgs = append(dfgs, cdfg.BuildDFG(blk))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dfgs {
			core.Schedule(d, model)
		}
	}
}

func BenchmarkEngine_AnnotateProgram(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EstimateBlocks(prog, model, core.FullDetail)
	}
}

// ---- Staged pipeline: parallel and memoized annotation ----

// BenchmarkAnnotateSerial is the reference single-worker, uncached
// estimation pass over the MP3 SW program.
func BenchmarkAnnotateSerial(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EstimateBlocksWith(prog, model, core.FullDetail, core.EstOptions{Workers: 1})
	}
}

// BenchmarkAnnotateParallel is the same pass through the bounded worker
// pool (GOMAXPROCS workers), still uncached.
func BenchmarkAnnotateParallel(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EstimateBlocksWith(prog, model, core.FullDetail, core.EstOptions{})
	}
}

// benchSweep annotates the MP3 SW program for every standard cache
// configuration through one pipeline (shared or fresh per iteration).
func benchSweep(b *testing.B, fresh bool) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	base := pum.MicroBlaze()
	models := make([]*pum.PUM, 0, len(pum.StandardCacheConfigs))
	for _, cc := range pum.StandardCacheConfigs {
		m, err := base.WithCache(cc)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	pl := NewPipeline(PipelineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			pl = NewPipeline(PipelineOptions{})
		}
		for _, m := range models {
			pl.Annotate(prog, m)
		}
	}
	b.StopTimer()
	cs := pl.Stats()
	b.ReportMetric(float64(cs.SchedHits), "sched-hits")
	b.ReportMetric(float64(cs.SchedMisses), "sched-misses")
}

// BenchmarkRetargetSweepCold rebuilds the cache every sweep: each
// iteration pays one full schedule pass plus four statistical
// recompositions (the paper's retargeting workflow from scratch).
func BenchmarkRetargetSweepCold(b *testing.B) { benchSweep(b, true) }

// BenchmarkRetargetSweepCached shares one pipeline across iterations, so
// after the first sweep every schedule and estimate is served from cache.
func BenchmarkRetargetSweepCached(b *testing.B) { benchSweep(b, false) }

func BenchmarkEngine_CompileMP3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := apps.CompileMP3("SW", benchEval); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_KernelPingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		ping := k.NewEvent("ping")
		pong := k.NewEvent("pong")
		const rounds = 1000
		k.Spawn("a", func(p *sim.Process) {
			for r := 0; r < rounds; r++ {
				ping.Notify(1)
				p.WaitEvent(pong)
			}
		})
		k.Spawn("b", func(p *sim.Process) {
			for r := 0; r < rounds; r++ {
				p.WaitEvent(ping)
				pong.Notify(1)
			}
		})
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrate profiles the standard MP3 training program under
// every standard cache configuration: the calibration step that dominates
// a one-shot esetlm run.
func BenchmarkCalibrate(b *testing.B) {
	prog, err := apps.CompileMP3("SW", apps.TrainMP3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := rtl.CalibrateReport(pum.MicroBlaze(), prog, "main", pum.StandardCacheConfigs, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(rep.Steps))
	}
}

func BenchmarkEngine_CacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Size: 8192, LineBytes: 16, Assoc: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*52) & 0xFFFF)
	}
}
