package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"ese/internal/calib"
	"ese/internal/dse"
	"ese/internal/interp"
	"ese/internal/jobspec"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// golden holds the simulated statistics recorded from the program for
// every input any seed can draw (see -record). Host-independent values
// only: a later change that keeps the model must reproduce them exactly.
type golden struct {
	// TLM maps a TLM spec fingerprint to its simulated statistics.
	TLM map[string]tlmStat `json:"tlm"`
	// Points maps a sweep point's spec fingerprint to "end_ps bus_cycles
	// steps".
	Points map[string]string `json:"points"`
	// Estimates maps an estimate spec fingerprint to the digest of its
	// model, summary and per-block estimates.
	Estimates map[string]string `json:"estimates"`
	// Scoreboard is the standard accuracy scoreboard.
	Scoreboard scoreGolden `json:"scoreboard"`
}

// tlmStat is the host-independent outcome of one TLM job.
type tlmStat struct {
	Cycles map[string]uint64 `json:"cycles"`
	EndPs  uint64            `json:"end_ps"`
	Steps  uint64            `json:"steps"`
}

// scoreGolden is the recorded scoreboard: the digest of its JSON, the
// estimate-vs-board pairs by "train/app/design/icache/dcache", and the
// mp3+jpeg training aggregate.
type scoreGolden struct {
	Digest  string            `json:"digest"`
	Pairs   map[string]string `json:"pairs"`
	MAPE    float64           `json:"mape"`
	Pearson float64           `json:"pearson"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// key shortens a spec fingerprint to the golden map key.
func key(s *jobspec.Spec) string { return s.Fingerprint()[:16] }

// digest is a short sha256 of the canonical JSON of v.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// estimateDigest digests the host-independent part of an estimate result:
// everything but the summary's annotation wall time.
func estimateDigest(model, summary string, blocks []jobspec.BlockEstimate) string {
	var keep []string
	for _, line := range strings.Split(summary, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "annotation time:") {
			keep = append(keep, line)
		}
	}
	summary = strings.Join(keep, "\n")
	return digest(struct {
		Model   string
		Summary string
		Blocks  []jobspec.BlockEstimate
	}{model, summary, blocks})
}

// pointStat renders a sweep row's simulated statistics.
func pointStat(r dse.Row) string {
	return fmt.Sprintf("%d %d %d", r.EndPs, r.BusCycles, r.Steps)
}

// pairKey names one scoreboard point.
func pairKey(train, app, design string, isize, dsize int) string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", train, app, design, isize, dsize)
}

// scorePairs flattens a scoreboard into its estimate-vs-board pairs.
func scorePairs(sb *calib.Scoreboard) map[string]string {
	out := make(map[string]string)
	for _, r := range sb.Rows {
		for _, p := range r.Points {
			out[pairKey(r.Train, r.App, r.Design, p.ISize, p.DSize)] = fmt.Sprintf("%d %d", p.Board, p.Est)
		}
	}
	return out
}

// aggregate returns a scoreboard's aggregate for one training set.
func aggregate(sb *calib.Scoreboard, train string) (calib.Aggregate, bool) {
	for _, a := range sb.Aggregates {
		if a.Train == train {
			return a, true
		}
	}
	return calib.Aggregate{}, false
}

// checkTLM compares a TLM outcome with the recorded one. endPs < 0 skips
// the end-time comparison (esetlm -json does not print it).
func (g *golden) checkTLM(s *jobspec.Spec, cycles map[string]uint64, endPs int64, steps uint64) error {
	want, ok := g.TLM[key(s)]
	if !ok {
		return fmt.Errorf("no recorded statistics for %s/%s", s.App, s.Design)
	}
	if steps != want.Steps {
		return fmt.Errorf("%s/%s: steps %d, recorded %d", s.App, s.Design, steps, want.Steps)
	}
	if endPs >= 0 && uint64(endPs) != want.EndPs {
		return fmt.Errorf("%s/%s: end %d ps, recorded %d", s.App, s.Design, endPs, want.EndPs)
	}
	if len(cycles) != len(want.Cycles) {
		return fmt.Errorf("%s/%s: %d PEs, recorded %d", s.App, s.Design, len(cycles), len(want.Cycles))
	}
	for pe, c := range want.Cycles {
		if cycles[pe] != c {
			return fmt.Errorf("%s/%s: PE %s %d cycles, recorded %d", s.App, s.Design, pe, cycles[pe], c)
		}
	}
	return nil
}

// checkRows compares one sweep's rows with the recorded point statistics
// and the rows' digest with the digest of the recorded rows. It returns
// the number of mismatching rows and the first mismatch.
func (g *golden) checkRows(points []dse.Point, rows []dse.Row) (bad int, first error) {
	note := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	if len(rows) != len(points) {
		return len(points), fmt.Errorf("sweep returned %d rows for %d points", len(rows), len(points))
	}
	want := make([]dse.Row, len(rows))
	for i, r := range rows {
		want[i] = r
		st, ok := g.Points[key(&points[i].Spec)]
		if !ok {
			note(fmt.Errorf("point %d: no recorded statistics", i))
			continue
		}
		if _, err := fmt.Sscanf(st, "%d %d %d", &want[i].EndPs, &want[i].BusCycles, &want[i].Steps); err != nil {
			note(fmt.Errorf("point %d: bad recorded statistics %q", i, st))
			continue
		}
		if got := pointStat(r); got != st {
			note(fmt.Errorf("point %d (%s/%s): %s, recorded %s", i, r.App, r.Design, got, st))
		}
	}
	if bad == 0 && rowsDigest(rows) != rowsDigest(want) {
		note(fmt.Errorf("sweep row digest differs from the recorded rows"))
	}
	return bad, first
}

// rowsDigest digests a sweep's row table as esedse writes it.
func rowsDigest(rows []dse.Row) string {
	var buf bytes.Buffer
	if err := dse.WriteJSON(&buf, rows); err != nil {
		return "unwritable:" + err.Error()
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// checkScoreboard compares a scoreboard with the recorded one. A full
// scoreboard must match byte for byte; a partial one (a subset of the
// training sets) must match on every pair it has.
func (g *golden) checkScoreboard(sb *calib.Scoreboard, full bool) error {
	if full {
		data, err := sb.ToJSON()
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:8]); got != g.Scoreboard.Digest {
			return fmt.Errorf("scoreboard digest %s, recorded %s", got, g.Scoreboard.Digest)
		}
	}
	for k, v := range scorePairs(sb) {
		if want := g.Scoreboard.Pairs[k]; v != want {
			return fmt.Errorf("scoreboard %s: board/est %q, recorded %q", k, v, want)
		}
	}
	agg, ok := aggregate(sb, calib.TrainMP3JPEG)
	if !ok {
		return fmt.Errorf("scoreboard has no %s aggregate", calib.TrainMP3JPEG)
	}
	if agg.MAPE != g.Scoreboard.MAPE || agg.Pearson != g.Scoreboard.Pearson {
		return fmt.Errorf("%s aggregate MAPE %v r %v, recorded %v %v",
			calib.TrainMP3JPEG, agg.MAPE, agg.Pearson, g.Scoreboard.MAPE, g.Scoreboard.Pearson)
	}
	return nil
}

// oracle computes functional outputs with the tree-walking interpreter,
// the repository's slow-path reference, memoized per workload. Outputs do
// not depend on timing, calibration or tuning, only on the program and
// its input.
type oracle struct {
	mu  sync.Mutex
	out map[string]map[string][]int32
}

func newOracle() *oracle { return &oracle{out: make(map[string]map[string][]int32)} }

// outputs returns the reference out() streams of a TLM spec's workload.
func (o *oracle) outputs(s *jobspec.Spec) (map[string][]int32, error) {
	ref := jobspec.DefaultTLM()
	ref.App, ref.Design, ref.Frames, ref.Seed = s.App, s.Design, s.Frames, s.Seed
	ref.Calibrate = false
	k := key(&ref)
	o.mu.Lock()
	defer o.mu.Unlock()
	if out, ok := o.out[k]; ok {
		return out, nil
	}
	d, err := ref.BuildDesignFrom(pum.MicroBlaze())
	if err != nil {
		return nil, err
	}
	res, err := tlm.Run(d, tlm.Options{Engine: interp.EngineTree})
	if err != nil {
		return nil, fmt.Errorf("tree oracle %s/%s: %w", s.App, s.Design, err)
	}
	o.out[k] = res.OutByPE
	return res.OutByPE, nil
}

// checkOut compares a job's out() streams with the oracle's.
func (o *oracle) checkOut(s *jobspec.Spec, got map[string][]int32) error {
	want, err := o.outputs(s)
	if err != nil {
		return err
	}
	if !sameOut(got, want) {
		return fmt.Errorf("%s/%s: outputs differ from the tree interpreter", s.App, s.Design)
	}
	return nil
}

// sameOut compares out() streams, treating nil and empty alike.
func sameOut(a, b map[string][]int32) bool {
	keys := func(m map[string][]int32) []string {
		var ks []string
		for k, v := range m {
			if len(v) > 0 {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	ka, kb := keys(a), keys(b)
	if strings.Join(ka, ",") != strings.Join(kb, ",") {
		return false
	}
	for _, k := range ka {
		x, y := a[k], b[k]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// record runs every input of every population through the program and
// writes golden.json.
func record(path string) error {
	ctx := context.Background()
	g := golden{
		TLM:       make(map[string]tlmStat),
		Points:    make(map[string]string),
		Estimates: make(map[string]string),
	}
	runner := &jobspec.Runner{}
	specs := append(oneshotSpecs(), serveTLMSpecs()...)
	for i := range specs {
		s := &specs[i]
		res, err := runner.Run(ctx, s)
		if err != nil {
			return err
		}
		g.TLM[key(s)] = tlmStat{Cycles: res.TLM.CyclesByPE, EndPs: res.TLM.EndPs, Steps: res.TLM.Steps}
	}
	for _, sw := range populationSweeps() {
		points, err := sw.Expand()
		if err != nil {
			return err
		}
		res, err := dse.Run(ctx, sw, dse.Options{Runner: runner})
		if err != nil {
			return err
		}
		for i, r := range res.Rows {
			g.Points[key(&points[i].Spec)] = pointStat(r)
		}
	}
	ests, err := estimateSpecs()
	if err != nil {
		return err
	}
	for i := range ests {
		s := &ests[i]
		res, err := runner.Run(ctx, s)
		if err != nil {
			return err
		}
		g.Estimates[key(s)] = estimateDigest(res.Model, res.Summary, res.Blocks)
	}
	sb, err := calib.RunScoreboard(calib.Options{})
	if err != nil {
		return err
	}
	data, err := sb.ToJSON()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	agg, _ := aggregate(sb, calib.TrainMP3JPEG)
	g.Scoreboard = scoreGolden{Digest: hex.EncodeToString(sum[:8]), Pairs: scorePairs(sb), MAPE: agg.MAPE, Pearson: agg.Pearson}
	out, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
