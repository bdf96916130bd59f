package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ese/internal/apps"
	"ese/internal/dse"
	"ese/internal/jobspec"
	"ese/internal/pum"
)

// The input populations. Every workload draws its inputs from these finite
// menus with the benchmark seed, which is what lets golden.json hold the
// recorded statistics of every input any seed can produce.

// appDesign is one of the six example designs.
type appDesign struct{ App, Design string }

// exampleDesigns are the example designs of both applications.
var exampleDesigns = []appDesign{
	{"mp3", "SW"}, {"mp3", "SW+1"}, {"mp3", "SW+2"}, {"mp3", "SW+4"},
	{"jpeg", "SW"}, {"jpeg", "SW+DCT"},
}

// workloadSeeds is the pool of application workload seeds (0 selects the
// app's standard evaluation seed). A small pool makes identical job specs
// recur on the serve workload.
var workloadSeeds = []uint32{0, 0xA11CE}

// tlmSpec is a calibrated timed TLM job.
func tlmSpec(ad appDesign, cc pum.CacheCfg, frames int, seed uint32) jobspec.Spec {
	s := jobspec.DefaultTLM()
	s.App, s.Design, s.Frames, s.Seed = ad.App, ad.Design, frames, seed
	s.ICache, s.DCache = cc.ISize, cc.DSize
	return s
}

// oneshotFrames is the esetlm default workload size.
const oneshotFrames = 2

// oneshotSpecs is the oneshot population: esetlm's defaults over every
// example design and standard cache geometry. esetlm has no workload-seed
// flag, so every job uses its app's standard seed.
func oneshotSpecs() []jobspec.Spec {
	var out []jobspec.Spec
	for _, ad := range exampleDesigns {
		for _, cc := range pum.StandardCacheConfigs {
			out = append(out, tlmSpec(ad, cc, oneshotFrames, 0))
		}
	}
	return out
}

// serveFrames sizes every serve request's workload.
const serveFrames = 1

// serveRate is the serve workload's offered request rate (requests/s).
const serveRate = 100

// serveTLMSpecs is the population of serve type (a) requests.
func serveTLMSpecs() []jobspec.Spec {
	var out []jobspec.Spec
	for _, ad := range exampleDesigns {
		for _, cc := range pum.StandardCacheConfigs {
			for _, ws := range workloadSeeds {
				out = append(out, tlmSpec(ad, cc, serveFrames, ws))
			}
		}
	}
	return out
}

// appSource generates the C source of one design at the serve workload
// size, the program an eseest user would send.
func appSource(ad appDesign, seed uint32) (string, error) {
	switch ad.App {
	case "mp3":
		cfg := apps.MP3Config{Frames: serveFrames, Seed: seed}
		if seed == 0 {
			cfg.Seed = apps.DefaultMP3.Seed
		}
		return apps.MP3Source(ad.Design, cfg)
	case "jpeg":
		cfg := apps.JPEGConfig{Blocks: serveFrames, Seed: seed}
		if seed == 0 {
			cfg.Seed = apps.DefaultJPEG.Seed
		}
		if ad.Design == "SW+DCT" {
			return apps.JPEGSourceDCTHW(cfg), nil
		}
		return apps.JPEGSource(cfg), nil
	}
	return "", fmt.Errorf("unknown app %q", ad.App)
}

// sourceName names a generated source after its design and seed.
func sourceName(ad appDesign, seed uint32) string {
	return fmt.Sprintf("%s_%s_%x.c", ad.App, ad.Design, seed)
}

// designOfSource inverts sourceName.
func designOfSource(name string) appDesign {
	app, rest, _ := strings.Cut(name, "_")
	design, _, _ := strings.Cut(rest, "_")
	return appDesign{app, design}
}

// estimateSpecs is the population of serve type (c) requests: generated
// application source estimated against the stock soft-core model.
func estimateSpecs() ([]jobspec.Spec, error) {
	var out []jobspec.Spec
	for _, ad := range exampleDesigns {
		for _, ws := range workloadSeeds {
			src, err := appSource(ad, ws)
			if err != nil {
				return nil, err
			}
			for _, cc := range pum.StandardCacheConfigs {
				s := jobspec.Default()
				s.Source = jobspec.Source{Name: sourceName(ad, ws), Code: src}
				s.ICache, s.DCache = cc.ISize, cc.DSize
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// The sweep menus: the axis values of the CI smoke sweep.
var (
	menuDepths     = []int{0, 4, 6}
	menuIssues     = []int{0, 2}
	menuFUMixes    = []map[string]int{nil, {"alu": 2}}
	menuBranchMiss = []float64{0.1, 0.5}
)

// menuCaches are the smoke sweep's cache geometries (the standard ones).
func menuCaches() []dse.CacheGeom {
	var out []dse.CacheGeom
	for _, cc := range pum.StandardCacheConfigs {
		out = append(out, dse.CacheGeom{I: cc.ISize, D: cc.DSize})
	}
	return out
}

// smokeSweep is a calibrated one-frame sweep over MP3 and JPEG with the
// given axes.
func smokeSweep(name string, seed uint32, axes dse.Axes) *dse.Sweep {
	axes.Apps = []string{"mp3", "jpeg"}
	axes.Designs = []string{"SW", "SW+1", "SW+DCT"}
	return &dse.Sweep{Name: name, Frames: serveFrames, Seed: seed, Calibrate: true, Axes: axes, Limit: 1000}
}

// populationSweeps are the full smoke-sweep menus, once per workload seed:
// every sweep point any seed can draw is one of their points.
func populationSweeps() []*dse.Sweep {
	var out []*dse.Sweep
	for _, ws := range workloadSeeds {
		out = append(out, smokeSweep("population", ws, dse.Axes{
			Depths: menuDepths, Issues: menuIssues, FUMixes: menuFUMixes,
			Caches: menuCaches(), BranchMiss: menuBranchMiss,
		}))
	}
	return out
}

// pick returns k distinct elements of xs in menu order.
func pick[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:k]
	keep := make([]bool, len(xs))
	for _, i := range idx {
		keep[i] = true
	}
	var out []T
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// drawSweep draws one sweep of fixed shape from the menus: every app and
// design, two of three depths, both issue widths and FU mixes, three of
// five cache geometries, one branch-miss ratio and one workload seed —
// 4 x 2 x 2 x 2 x 3 = 96 points, so every seed costs about the same.
func drawSweep(rng *rand.Rand) *dse.Sweep {
	return smokeSweep("e2ebench", workloadSeeds[rng.Intn(len(workloadSeeds))], dse.Axes{
		Depths:     pick(rng, menuDepths, 2),
		Issues:     menuIssues,
		FUMixes:    menuFUMixes,
		Caches:     pick(rng, menuCaches(), 3),
		BranchMiss: pick(rng, menuBranchMiss, 1),
	})
}
