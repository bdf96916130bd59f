package rtl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/iss"
	"ese/internal/pum"
)

// Bugfix regression: calibrating with only uncached configurations used to
// silently return an uncalibrated clone of the base model; it must fail
// with ErrUncalibrated so callers know nothing was measured.
func TestCalibrateAllUncachedIsError(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	_, err := Calibrate(pum.MicroBlaze(), prog, "main", []pum.CacheCfg{{ISize: 0, DSize: 0}}, 0)
	if !errors.Is(err, ErrUncalibrated) {
		t.Fatalf("want ErrUncalibrated, got %v", err)
	}
	_, err = Calibrate(pum.MicroBlaze(), prog, "main", nil, 0)
	if !errors.Is(err, ErrUncalibrated) {
		t.Fatalf("empty cfgs: want ErrUncalibrated, got %v", err)
	}
}

// Bugfix regression: a mixed geometry must record hit rate 0 for the
// absent side (every access there pays the external latency on the board)
// and real statistics for the present side. Pre-fix the absent side was
// recorded with the idle-cache HitRate default of 1.0, making the
// estimator charge nothing for a path the board charges ExtLatency on.
func TestCalibrateMixedGeometry(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	cfgs := []pum.CacheCfg{{ISize: 0, DSize: 4096}, {ISize: 4096, DSize: 0}}
	out, rep, err := CalibrateReport(pum.MicroBlaze(), prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	dOnly := out.Mem.Table[cfgs[0]]
	if dOnly.IHitRate != 0 {
		t.Errorf("{0,4096}: IHitRate = %v, want 0 (absent side pays external latency)", dOnly.IHitRate)
	}
	if dOnly.DHitRate <= 0.5 {
		t.Errorf("{0,4096}: DHitRate = %v, want measured rate > 0.5", dOnly.DHitRate)
	}
	iOnly := out.Mem.Table[cfgs[1]]
	if iOnly.DHitRate != 0 {
		t.Errorf("{4096,0}: DHitRate = %v, want 0", iOnly.DHitRate)
	}
	if iOnly.IHitRate <= 0.5 {
		t.Errorf("{4096,0}: IHitRate = %v, want measured rate > 0.5", iOnly.IHitRate)
	}
	if len(rep.Stats) != 2 {
		t.Fatalf("report has %d stats, want 2", len(rep.Stats))
	}
}

// The branch misprediction ratio is recorded once and repeated in every
// cached configuration's provenance; the recorded value and per-config
// provenance must agree. (Before calibration became one pass, whichever
// cached config came first won silently.)
func TestCalibrateBranchConfigIndependent(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	cfgs := []pum.CacheCfg{
		{ISize: 2048, DSize: 2048},
		{ISize: 0, DSize: 0},
		{ISize: 16384, DSize: 16384},
		{ISize: 0, DSize: 4096},
	}
	out, rep, err := CalibrateReport(pum.MicroBlaze(), prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BranchMiss <= 0 || rep.BranchMiss >= 1 {
		t.Fatalf("branch miss %v outside (0,1)", rep.BranchMiss)
	}
	if out.Branch.MissRate != rep.BranchMiss {
		t.Errorf("model MissRate %v != report %v", out.Branch.MissRate, rep.BranchMiss)
	}
	if len(out.Calib) != 3 {
		t.Fatalf("provenance has %d entries, want 3 (one per cached config)", len(out.Calib))
	}
	for _, cs := range out.Calib {
		if cs.BranchMiss != rep.BranchMiss {
			t.Errorf("%v: provenance miss %v != common %v", cs.Cfg, cs.BranchMiss, rep.BranchMiss)
		}
		if cs.Steps != rep.Steps || cs.Steps == 0 {
			t.Errorf("%v: steps %d, want common nonzero %d", cs.Cfg, cs.Steps, rep.Steps)
		}
		if cs.Train != "main" {
			t.Errorf("%v: train label %q, want %q", cs.Cfg, cs.Train, "main")
		}
	}
	if len(rep.Uncached) != 1 || rep.Uncached[0] != (pum.CacheCfg{}) {
		t.Errorf("uncached list %v, want [{0 0}]", rep.Uncached)
	}
}

// Every snapshot passes validation, including the degenerate one: a
// cached side that never sees an access reads its idle hit rate.
func TestCalibrateSnapshotsValidate(t *testing.T) {
	// A program with no data traffic at all: the d-cache never sees an
	// access, so its idle HitRate would be the degenerate case.
	prog, _ := generate(t, `void main() { out(7); }`)
	out, _, err := CalibrateReport(pum.MicroBlaze(), prog, "main", pum.StandardCacheConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cfg, st := range out.Mem.Table {
		if err := st.Validate(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Calibrated models round-trip through JSON with their provenance intact.
func TestCalibrateProvenanceJSONRoundTrip(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	out, err := Calibrate(pum.MicroBlaze(), prog, "main", []pum.CacheCfg{{ISize: 4096, DSize: 4096}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := out.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"calib"`) {
		t.Fatal("serialized PUM lacks calib provenance")
	}
	back, err := pum.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Calib) != len(out.Calib) {
		t.Fatalf("round-trip provenance %d entries, want %d", len(back.Calib), len(out.Calib))
	}
	for i := range back.Calib {
		if back.Calib[i] != out.Calib[i] {
			t.Errorf("entry %d: %+v != %+v", i, back.Calib[i], out.Calib[i])
		}
	}
}

// oracleCalibrate is the per-config reference calibration: one
// cycle-accurate CPU run per cached configuration, each with its own
// caches and predictor. CalibrateReport must reproduce its statistics bit
// for bit from a single functional pass.
func oracleCalibrate(base *pum.PUM, prog *cdfg.Program, entry string, cfgs []pum.CacheCfg, limit uint64) ([]CalibStats, error) {
	isa, err := iss.Generate(prog)
	if err != nil {
		return nil, err
	}
	var stats []CalibStats
	for _, cfg := range cfgs {
		if cfg.ISize == 0 && cfg.DSize == 0 {
			continue
		}
		m := iss.NewMachine(isa)
		if err := m.Start(entry); err != nil {
			return nil, err
		}
		cpu, err := NewCPU(m, CPUConfig{
			Model:  base,
			ICache: RealCacheConfig(cfg.ISize),
			DCache: RealCacheConfig(cfg.DSize),
		})
		if err != nil {
			return nil, err
		}
		if err := cpu.Run(limit); err != nil {
			return nil, fmt.Errorf("%v: %w", cfg, err)
		}
		stats = append(stats, CalibStats{
			Cfg: cfg, Mem: cpu.MemStatsSnapshot(), BranchMiss: cpu.BP.MissRate(), Steps: cpu.M.Steps,
		})
	}
	return stats, nil
}

// trainingPrograms compiles the programs calib.Trainings("mp3+jpeg")
// builds (internal/calib imports this package, so it is not imported
// here).
func trainingPrograms(t *testing.T) map[string]*cdfg.Program {
	t.Helper()
	mp3, err := apps.CompileMP3("SW", apps.TrainMP3)
	if err != nil {
		t.Fatal(err)
	}
	jpeg, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.TrainJPEG))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*cdfg.Program{"mp3": mp3, "jpeg": jpeg}
}

// requireMatchesOracle checks that the one-pass report equals the oracle's
// per-config statistics bit for bit: memory snapshot, branch ratio and
// step count, per configuration and in order.
func requireMatchesOracle(t *testing.T, base *pum.PUM, prog *cdfg.Program, cfgs []pum.CacheCfg) {
	t.Helper()
	want, err := oracleCalibrate(base, prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := CalibrateReport(base, prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats) != len(want) {
		t.Fatalf("report has %d stats, oracle %d", len(rep.Stats), len(want))
	}
	for i, w := range want {
		got := rep.Stats[i]
		if got != w {
			t.Errorf("%v: one pass %+v, oracle %+v", w.Cfg, got, w)
		}
		if out.Mem.Table[w.Cfg] != w.Mem {
			t.Errorf("%v: model table %+v, oracle %+v", w.Cfg, out.Mem.Table[w.Cfg], w.Mem)
		}
		if rep.BranchMiss != w.BranchMiss || rep.Steps != w.Steps {
			t.Errorf("%v: report miss %v over %d steps, oracle %v over %d",
				w.Cfg, rep.BranchMiss, rep.Steps, w.BranchMiss, w.Steps)
		}
	}
	if out.Branch.MissRate != rep.BranchMiss {
		t.Errorf("model MissRate %v != report %v", out.Branch.MissRate, rep.BranchMiss)
	}
}

// TestCalibrateMatchesPerConfigCPU is the differential test of the one-pass
// calibration against one cycle-accurate CPU run per configuration, over
// both training programs and both predictors with the standard configs,
// and over mixed and duplicated geometries. It is also the guard that the
// branch ratio and step count are config-independent: the oracle measures
// them separately under every configuration.
func TestCalibrateMatchesPerConfigCPU(t *testing.T) {
	progs := trainingPrograms(t)
	bimodal := pum.MicroBlaze()
	bimodal.Branch.Predictor = "2bit"
	for _, name := range []string{"mp3", "jpeg"} {
		t.Run(name, func(t *testing.T) {
			requireMatchesOracle(t, pum.MicroBlaze(), progs[name], pum.StandardCacheConfigs)
		})
		t.Run(name+"/2bit", func(t *testing.T) {
			requireMatchesOracle(t, bimodal, progs[name], pum.StandardCacheConfigs)
		})
	}
	t.Run("mixed", func(t *testing.T) {
		requireMatchesOracle(t, pum.MicroBlaze(), progs["jpeg"], []pum.CacheCfg{
			{ISize: 0, DSize: 4096}, {ISize: 2048, DSize: 0}, {ISize: 2048, DSize: 4096}, {ISize: 0, DSize: 0},
		})
	})
	t.Run("duplicated", func(t *testing.T) {
		requireMatchesOracle(t, pum.MicroBlaze(), progs["jpeg"], []pum.CacheCfg{
			{ISize: 2048, DSize: 2048}, {ISize: 8192, DSize: 2048}, {ISize: 2048, DSize: 2048},
			{ISize: 2048, DSize: 16384}, {ISize: 8192, DSize: 2048},
		})
	})
}

// TestCalibrateStepLimitMatchesOracle pins the step-limit semantics in
// both implementations: a run fails once it has retired more than limit
// instructions without finishing, so the final instruction may retire one
// past the limit.
func TestCalibrateStepLimitMatchesOracle(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	cfgs := []pum.CacheCfg{{ISize: 2048, DSize: 2048}, {ISize: 0, DSize: 4096}}
	_, rep, err := CalibrateReport(pum.MicroBlaze(), prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		limit uint64
		fail  bool
	}{
		{rep.Steps / 2, true},
		{rep.Steps - 2, true},
		{rep.Steps - 1, false},
		{rep.Steps, false},
		{rep.Steps + 1, false},
	} {
		_, oerr := oracleCalibrate(pum.MicroBlaze(), prog, "main", cfgs, tc.limit)
		_, _, err := CalibrateReport(pum.MicroBlaze(), prog, "main", cfgs, tc.limit)
		if (oerr != nil) != tc.fail || (err != nil) != tc.fail {
			t.Errorf("limit %d of %d steps: oracle err %v, one pass err %v, want failure %v",
				tc.limit, rep.Steps, oerr, err, tc.fail)
		}
		if err != nil && !strings.Contains(err.Error(), "step limit") {
			t.Errorf("limit %d: error %q does not name the step limit", tc.limit, err)
		}
	}
}
