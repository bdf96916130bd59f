// Command e2ebench is the repository benchmark: it measures the surfaces
// users run — a one-shot esetlm job, a DSE sweep, the esed service under
// load, and the accuracy scoreboard — end to end, checks every result
// against golden.json and the tree-walking interpreter, and, with -trace
// 1, times every call into each layer from the benchmark's side to
// attribute each operation's wall time.
//
// Run it through run.sh, which builds it and the CLIs it drives:
//
//	bash e2ebench/run.sh --workload oneshot|sweep|serve|scoreboard \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with -trace 0, per-layer with -trace
// 1). The line before it carries the run's metadata.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one benchmark run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding the esetlm, esebench and rssexec binaries
	out      string // directory for span files
	limitMs  float64
	nproc    int
	rng      *rand.Rand
	golden   *golden
	oracle   *oracle
}

// outcome is what an untraced run measured.
type outcome struct {
	setup []time.Duration
	// lat holds per-operation latencies in milliseconds.
	lat []float64
	// done operations over busy time give the throughput.
	done int
	busy time.Duration
	// tailWindows, when above 1, reports the tail as the median of that
	// many windows' tails (see windowTail).
	tailWindows int
	rssMB       float64
	mape        float64
	pearson     float64
	tally
	notes map[string]any
}

// tally counts operations attempted and failed, keeping the first errors.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineIndependent lists the metrics that do not depend on the host:
// compare them exactly across commits, and raw times only on one host.
var machineIndependent = []string{
	"mape_pct", "pearson_r",
	"apps.allocs", "cfront.allocs", "tlm.allocs", "cdfg.blocks",
	"rtl.calibrate_minstr", "rtl.board_minstr", "tlm.minstr",
	"core.sched_misses", "core.est_misses", "core.hit_ratio",
}

func main() {
	var e env
	var seconds, traced int
	var recordPath string
	flag.StringVar(&e.workload, "workload", "", "oneshot | sweep | serve | scoreboard")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.bin, "bin", ".bench_build/bin", "directory holding the esetlm, esebench and rssexec binaries")
	flag.StringVar(&e.out, "out", ".bench_build", "directory for span files")
	flag.Float64Var(&e.limitMs, "tail-limit-ms", 100, "serve: latency limit on the tail percentile for max_ops_per_s")
	flag.StringVar(&recordPath, "record", "", "record golden statistics to this file and exit")
	flag.Parse()

	if recordPath != "" {
		if err := record(recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(&e, seconds, traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(e *env, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	e.seconds = time.Duration(seconds) * time.Second
	e.nproc = runtime.NumCPU()
	e.rng = rand.New(rand.NewSource(e.seed))
	e.oracle = newOracle()
	var err error
	if e.golden, err = loadGolden(); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(e.bin, "esetlm")); err != nil {
		return fmt.Errorf("esetlm binary: %w (run through run.sh)", err)
	}

	meta := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": seconds, "trace": traced,
		"nproc": e.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "machine_independent": machineIndependent,
	}
	var res result
	if traced {
		lr, err := tracedRun(e)
		if err != nil {
			return err
		}
		res = result{Attempted: lr.attempted, Failed: lr.failed, Metrics: lr.metrics}
		meta["errors"], meta["notes"] = lr.errs, lr.notes
	} else {
		o, err := untracedRun(e)
		if err != nil {
			return err
		}
		res = result{Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics()}
		meta["errors"], meta["notes"] = o.errs, o.notes
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func untracedRun(e *env) (*outcome, error) {
	switch e.workload {
	case "oneshot":
		return oneshot(e)
	case "sweep":
		return sweep(e)
	case "serve":
		return serve(e)
	case "scoreboard":
		return scoreboard(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want oneshot, sweep, serve or scoreboard)", e.workload)
}

// metrics renders the end-to-end metrics.
func (o *outcome) metrics() map[string]metric {
	tl := windowTail(o.lat, o.tailWindows)
	if o.notes == nil {
		o.notes = map[string]any{}
	}
	o.notes["op_ms_tail"] = tl
	thr := 0.0
	if o.busy > 0 {
		thr = float64(o.done) / o.busy.Seconds()
	}
	// The tail is reported in the notes, with its percentile and sample
	// count, and not as a metric: on the 2-vCPU host the benchmark was
	// sized on, CPU steal moves serve's tail by more than any bound the
	// benchmark may set.
	return map[string]metric{
		"setup_s":     {median(secAll(o.setup)), "s"},
		"op_ms_p50":   {median(o.lat), "ms"},
		"ops_per_s":   {thr, "ops/s"},
		"peak_rss_mb": {o.rssMB, "MB"},
		"mape_pct":    {o.mape, "%"},
		"pearson_r":   {o.pearson, "r"},
	}
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// timeStarts times reps starts of a CLI that exits right after package
// initialization (-h prints usage and exits 0).
func timeStarts(path string, reps int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < reps; i++ {
		cmd := exec.Command(path, "-h")
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s -h: %w", filepath.Base(path), err)
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// commit identifies the code under test: the git revision when the
// checkout is a repository, otherwise a digest of its Go sources.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "source-" + hex.EncodeToString(h.Sum(nil)[:8])
}
