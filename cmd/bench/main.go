// Command bench measures the end-to-end cost of regenerating the
// heaviest evaluation artifacts (Fig. 18, Fig. 19, Fig. 22 in their
// Quick configuration) and records the numbers as a JSON file under
// results/, so performance work on the scheduler and the experiment
// engine stays honest across commits.
//
// Usage:
//
//	bench [-workers N] [-seed S] [-out DIR] [-baseline FILE]
//
// Each artifact runs once (the simulations are long enough that a
// single iteration is a stable measurement) and is reported as
// wall-clock time, heap allocations, and bytes allocated. When the
// baseline file exists, a comparison table with speedup and allocation
// ratios is printed; CI keeps results/BENCH_baseline.json pinned at the
// numbers measured before the parallel engine and the allocation work
// landed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"adainf/internal/app"
	"adainf/internal/cliflags"
	"adainf/internal/experiments"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/serving"
)

type benchResult struct {
	Name        string `json:"name"`
	WallNS      int64  `json:"wall_ns"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// ProfileWorkers marks parallel-profiler variants (absent on the
	// serial measurements the baseline comparison runs against).
	ProfileWorkers int `json:"profile_workers,omitempty"`
}

type benchFile struct {
	Date       string        `json:"date"`
	Note       string        `json:"note,omitempty"`
	GoVersion  string        `json:"go_version,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Seed       int64         `json:"seed"`
	Benchmarks []benchResult `json:"benchmarks"`
}

var artifacts = []struct {
	name string
	fn   func(experiments.Options) (*experiments.Result, error)
}{
	{"fig18", experiments.Fig18},
	{"fig19", experiments.Fig19},
	{"fig22", experiments.Fig22},
}

func main() {
	var (
		workers  = flag.Int("workers", 0, "experiment workers (0 = one per CPU)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		outDir   = flag.String("out", "results", "directory for BENCH_<date>.json")
		baseline = flag.String("baseline", filepath.Join("results", "BENCH_baseline.json"),
			"baseline file to compare against (skipped if missing)")
		note    = flag.String("note", "", "free-form note recorded in the output file")
		tag     = flag.String("tag", "", "suffix for the output file name: BENCH_<date>-<tag>.json")
		profDir = flag.String("profile-cache", "", "directory for cached offline profiles (empty = rebuild every run)")
		auditOn = flag.Bool("audit", false,
			"validate every simulation against the paper's invariants (fail-fast; adds auditor overhead to the measurement)")
		histOn = flag.Bool("hist", false,
			"collect latency histograms per arm (adds telemetry overhead to the measurement)")
		traceDir = flag.String("trace", "",
			"write one JSONL decision trace per arm into this directory (adds trace-write overhead to the measurement)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering all artifacts to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the last artifact to this file")
		failAbove  = flag.Float64("fail-above", 0,
			"exit non-zero if any artifact's wall-clock regresses more than this fraction vs the baseline (0 disables, e.g. 0.2 = +20%)")
		profileWorkers = flag.Int("profile-workers", 0,
			"offline-profiler workers for the cold-profiling variant (0 = GOMAXPROCS; 1 skips the variant)")
		profClear = flag.Bool("profile-cache-clear", false,
			"clear the -profile-cache directory before measuring (forces the artifacts cold)")
		faultSpec = flag.String("faults", "",
			"deterministic fault injection: \"default\" or comma-separated k=v "+
				"(adds injector overhead to the measurement; empty = disabled)")
		faultSeed = flag.Int64("fault-seed", 1,
			"seed of the fault injector (independent of -seed)")
		gpus = flag.Int("gpus", 1,
			"GPU lanes to shard each simulated server into (1 = unsharded; adds lane-placement work to the measurement)")
	)
	flag.Parse()

	faultCfg, faultErr := cliflags.Faults("-faults", *faultSpec, *faultSeed)
	if err := cliflags.First(
		cliflags.Workers("-workers", *workers),
		cliflags.Workers("-profile-workers", *profileWorkers),
		cliflags.Lanes("-gpus", *gpus),
		faultErr,
	); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	pfw := *profileWorkers
	if pfw == 0 {
		pfw = runtime.GOMAXPROCS(0)
	}
	if *profClear && *profDir != "" {
		if _, err := profile.CleanCache(*profDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: clearing profile cache: %v\n", err)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	out := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		Note:       *note,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Seed:       *seed,
	}
	opts := experiments.Options{
		Quick: true, Seed: *seed, Workers: *workers, ProfileCache: *profDir,
		Audit: *auditOn, Hist: *histOn, TraceDir: *traceDir,
		NGPUs: *gpus,
	}
	opts.Faults = faultCfg
	for _, a := range artifacts {
		r, err := measure(a.fn, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", a.name, err)
			os.Exit(1)
		}
		r.Name = a.name
		out.Benchmarks = append(out.Benchmarks, r)
		fmt.Printf("%-12s %12v  %12d allocs  %14d B\n",
			r.Name, time.Duration(r.WallNS).Round(time.Millisecond), r.AllocsPerOp, r.BytesPerOp)
	}

	// Cold profiling: the dominant cost of any cold experiment run.
	// Each measurement builds the full catalog's profiles into a fresh
	// temporary cache directory, so the store path is included and no
	// warm entry can satisfy the build. The serial entry anchors the
	// baseline comparison; the pw<N> variant measures the parallel
	// profiler's speedup.
	cold, err := measureCold(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: profile-cold failed: %v\n", err)
		os.Exit(1)
	}
	cold.Name = "profile-cold"
	out.Benchmarks = append(out.Benchmarks, cold)
	fmt.Printf("%-12s %12v  %12d allocs  %14d B\n",
		cold.Name, time.Duration(cold.WallNS).Round(time.Millisecond), cold.AllocsPerOp, cold.BytesPerOp)
	if pfw > 1 {
		coldP, err := measureCold(pfw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: profile-cold (profile-workers %d) failed: %v\n", pfw, err)
			os.Exit(1)
		}
		coldP.Name = fmt.Sprintf("profile-cold-pw%d", pfw)
		coldP.ProfileWorkers = pfw
		out.Benchmarks = append(out.Benchmarks, coldP)
		fmt.Printf("%-12s %12v  %12d allocs  %14d B  (%.2fx vs serial)\n",
			coldP.Name, time.Duration(coldP.WallNS).Round(time.Millisecond), coldP.AllocsPerOp, coldP.BytesPerOp,
			float64(cold.WallNS)/float64(coldP.WallNS))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	name := "BENCH_" + out.Date
	if *tag != "" {
		name += "-" + *tag
	}
	path := filepath.Join(*outDir, name+".json")
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)

	base, err := readBaseline(*baseline)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("no baseline at %s; skipping comparison\n", *baseline)
		return
	}
	compare(base, out)
	if *failAbove > 0 {
		if worst, name := worstRegression(base, out); worst > *failAbove {
			fmt.Fprintf(os.Stderr, "bench: %s regressed %.1f%% vs baseline (limit %.1f%%)\n",
				name, worst*100, *failAbove*100)
			os.Exit(1)
		}
	}
}

// worstRegression returns the largest fractional wall-clock slowdown of
// any artifact vs the baseline (negative when everything got faster).
func worstRegression(base, cur benchFile) (float64, string) {
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	worst, worstName := -1.0, ""
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok || b.WallNS == 0 {
			continue
		}
		reg := float64(c.WallNS-b.WallNS) / float64(b.WallNS)
		if reg > worst {
			worst, worstName = reg, c.Name
		}
	}
	return worst, worstName
}

// measure runs one artifact and reports its wall-clock time and heap
// traffic. A single iteration suffices: the quick simulations run for
// seconds, far above timer and GC noise.
func measure(fn func(experiments.Options) (*experiments.Result, error),
	o experiments.Options) (benchResult, error) {

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := fn(o)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchResult{}, err
	}
	if len(res.Series) == 0 && len(res.Tables) == 0 {
		return benchResult{}, fmt.Errorf("%s produced no output", res.ID)
	}
	return benchResult{
		WallNS:      wall.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// measureCold times a from-scratch profile build of the full §4
// catalog with w workers: a fresh temp cache directory per iteration
// keeps every measurement cold (build + store, never a load). Unlike
// the multi-second artifacts, one build runs in fractions of a
// second, so the best of three iterations is reported to keep the
// -fail-above gate off scheduler noise.
func measureCold(w int) (benchResult, error) {
	best := benchResult{}
	for i := 0; i < 3; i++ {
		r, err := measureColdOnce(w)
		if err != nil {
			return benchResult{}, err
		}
		if best.WallNS == 0 || r.WallNS < best.WallNS {
			best = r
		}
	}
	return best, nil
}

func measureColdOnce(w int) (benchResult, error) {
	dir, err := os.MkdirTemp("", "adainf-bench-profiles-")
	if err != nil {
		return benchResult{}, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	profs, err := serving.BuildProfilesWith(app.Catalog(), gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} },
		serving.ProfileBuildOptions{CacheDir: dir, Workers: w})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchResult{}, err
	}
	if len(profs) == 0 {
		return benchResult{}, fmt.Errorf("cold profiling produced no profiles")
	}
	return benchResult{
		WallNS:      wall.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}

func writeJSON(path string, v benchFile) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readBaseline(path string) (benchFile, error) {
	var f benchFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	err = json.Unmarshal(buf, &f)
	return f, err
}

func compare(base, cur benchFile) {
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Printf("\nvs baseline (%s%s):\n", base.Date, noteSuffix(base.Note))
	fmt.Printf("%-8s %10s %10s %9s %8s %12s %12s %8s\n",
		"bench", "base", "now", "speedup", "wall Δ%", "base allocs", "now allocs", "ratio")
	for _, c := range cur.Benchmarks {
		if c.ProfileWorkers != 0 {
			continue // intra-run variant, compared against its own serial run above
		}
		b, ok := byName[c.Name]
		if !ok {
			fmt.Printf("%-8s (no baseline entry)\n", c.Name)
			continue
		}
		fmt.Printf("%-8s %10v %10v %8.2fx %+7.1f%% %12d %12d %7.2fx\n",
			c.Name,
			time.Duration(b.WallNS).Round(10*time.Millisecond),
			time.Duration(c.WallNS).Round(10*time.Millisecond),
			float64(b.WallNS)/float64(c.WallNS),
			100*float64(c.WallNS-b.WallNS)/float64(b.WallNS),
			b.AllocsPerOp, c.AllocsPerOp,
			float64(b.AllocsPerOp)/float64(c.AllocsPerOp))
	}
}

func noteSuffix(note string) string {
	if note == "" {
		return ""
	}
	return ", " + note
}
