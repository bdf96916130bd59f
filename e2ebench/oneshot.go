package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ese/internal/calib"
	"ese/internal/jobspec"
)

// startReps is how many process starts a set-up time is the median of.
const startReps = 61

// esetlmArgs are the command-line flags of a oneshot job.
func esetlmArgs(s *jobspec.Spec) []string {
	return []string{"-json", "-app", s.App, "-design", s.Design,
		"-frames", strconv.Itoa(s.Frames),
		"-icache", strconv.Itoa(s.ICache), "-dcache", strconv.Itoa(s.DCache)}
}

// oneshot is a closed loop with one client: each operation is one
// calibrated `esetlm -json` job in a fresh process, timed and measured by
// rssexec around the esetlm process alone.
func oneshot(e *env) (*outcome, error) {
	esetlm := filepath.Join(e.bin, "esetlm")
	o := &outcome{notes: map[string]any{}}
	var err error
	if o.setup, err = timeStarts(esetlm, startReps); err != nil {
		return nil, err
	}
	specs := oneshotSpecs()
	type job struct {
		spec *jobspec.Spec
		out  []byte
		err  error
	}
	var jobs []job
	start := time.Now()
	for time.Since(start) < e.seconds {
		s := &specs[e.rng.Intn(len(specs))]
		t0 := time.Now()
		out, d, rss, err := measuredRun(e.bin, esetlm, esetlmArgs(s))
		if err != nil {
			d = time.Since(t0)
			err = fmt.Errorf("esetlm %v: %w", esetlmArgs(s), err)
		} else {
			o.rssMB = max(o.rssMB, rss)
		}
		o.lat = append(o.lat, ms(d))
		o.busy += d
		jobs = append(jobs, job{s, out, err})
	}
	// Checks, outside the timed region.
	for _, j := range jobs {
		o.attempted++
		if err := checkOneshot(e, j.spec, j.out, j.err); err != nil {
			o.fail(err)
			continue
		}
		o.done++
	}
	o.notes["designs"] = len(specs)
	return o, accuracyGuard(e, o)
}

// measuredRun runs a command through rssexec and returns its standard
// output, its wall time and its own peak resident set in megabytes.
func measuredRun(bin, path string, args []string) ([]byte, time.Duration, float64, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.Close()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "rssexec"), append([]string{path}, args...)...)
	cmd.Stdout, cmd.Stderr, cmd.ExtraFiles = &stdout, &stderr, []*os.File{w}
	err = cmd.Run()
	w.Close()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %s", err, stderr.String())
	}
	var ns int64
	var kb float64
	if _, err := fmt.Fscan(r, &ns, &kb); err != nil {
		return nil, 0, 0, fmt.Errorf("rssexec report: %w", err)
	}
	return stdout.Bytes(), time.Duration(ns), kb / 1024, nil
}

// checkOneshot checks one esetlm -json result.
func checkOneshot(e *env, s *jobspec.Spec, out []byte, runErr error) error {
	if runErr != nil {
		return runErr
	}
	var sum struct {
		CyclesByPE map[string]uint64  `json:"cycles_by_pe"`
		OutByPE    map[string][]int32 `json:"out_by_pe"`
		Steps      uint64             `json:"steps"`
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		return fmt.Errorf("esetlm output: %w", err)
	}
	if err := e.golden.checkTLM(s, sum.CyclesByPE, -1, sum.Steps); err != nil {
		return err
	}
	return e.oracle.checkOut(s, sum.OutByPE)
}

// accuracyGuard scores the mp3+jpeg-trained model against the board
// after the timed region, so every workload reports the accuracy a speed
// change must not worsen. Board references do not depend on calibration,
// so the aggregate equals the full scoreboard's.
func accuracyGuard(e *env, o *outcome) error {
	if o.rssMB == 0 {
		o.rssMB = peakRSSMB()
	}
	sb, err := calib.RunScoreboard(calib.Options{Trains: []string{calib.TrainMP3JPEG}})
	if err != nil {
		return err
	}
	if err := e.golden.checkScoreboard(sb, false); err != nil {
		o.attempted++
		o.fail(err)
	}
	agg, _ := aggregate(sb, calib.TrainMP3JPEG)
	o.mape, o.pearson = agg.MAPE, agg.Pearson
	o.notes["accuracy"] = "mp3+jpeg scoreboard aggregate, scored after the timed region"
	return nil
}

// scoreboard runs calib.RunScoreboard over the standard matrix; one
// operation is one full scoreboard. Its inputs are fixed: the seed does
// not apply.
func scoreboard(e *env) (*outcome, error) {
	o := &outcome{notes: map[string]any{"seed_applies": false}}
	var err error
	if o.setup, err = timeStarts(filepath.Join(e.bin, "esebench"), startReps); err != nil {
		return nil, err
	}
	var boards []*calib.Scoreboard
	start := time.Now()
	for time.Since(start) < e.seconds {
		t0 := time.Now()
		sb, err := calib.RunScoreboard(calib.Options{})
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail(err)
			continue
		}
		o.lat = append(o.lat, ms(d))
		o.busy += d
		boards = append(boards, sb)
	}
	o.rssMB = peakRSSMB()
	for _, sb := range boards {
		if err := e.golden.checkScoreboard(sb, true); err != nil {
			o.fail(err)
			continue
		}
		o.done++
		agg, _ := aggregate(sb, calib.TrainMP3JPEG)
		o.mape, o.pearson = agg.MAPE, agg.Pearson
	}
	return o, nil
}
