// Command perfbench is the repository's benchmark. It runs one workload
// of the serving simulator (overload, sparse or failover) through the
// public entry points, checks every arm's outputs, and prints each
// metric with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload overload --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics of a
// separate traced run. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"adainf/internal/app"
	"adainf/internal/profile"
	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

// setupShare is the share of an untraced run spent on cold profile
// builds. The builds are interleaved with the rounds of arms, so that a
// stretch of contention on the host hits builds and arms alike; setup_s
// is the median of all of them.
const setupShare = 0.1

// firstBuilds is how many builds precede the first round, whose length
// is not known yet.
const firstBuilds = 4

type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"setup_s", "s"},
	{"sim_s", "s"},
	{"allocs_m", "millions"},
	{"alloc_mb", "MB"},
}

// perLayer lists the traced run's metrics. A ".<method>" suffix is per
// arm; an arm a workload does not run reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"profile.units", "count"},
		{"profile.unit_p50_ms", "ms"},
		{"profile.unit_max_ms", "ms"},
		{"gpumem.evictions", "count"},
		{"gpumem.evicted_mb", "MB"},
		{"gpumem.pinned_share", "ratio"},
		{"trace.windows", "count"},
		{"trace.s", "s"},
		{"synthdata.samples", "count"},
		{"synthdata.s", "s"},
		{"drift.calls", "count"},
		{"drift.s", "s"},
		{"drift.rank_s", "s"},
		{"drift.rounds", "count"},
		{"drift.impacted_share", "ratio"},
		{"core.plan_memo_hit_ratio", "ratio"},
		{"faults.retrain_failures", "count"},
		{"faults.degraded_jobs", "count"},
		{"faults.gpu_crashes", "count"},
		{"cluster.replacements", "count"},
		{"admit.evaluations", "count"},
		{"admit.shed_requests", "count"},
		{"metrics.calls", "count"},
		{"metrics.s", "s"},
		{"telemetry.overhead_s", "s"},
	}
	for _, m := range allMethods {
		ms = append(ms,
			metric{"sched.period_calls." + m, "count"},
			metric{"sched.period_s." + m, "s"},
			metric{"sched.session_calls." + m, "count"},
			metric{"sched.session_s." + m, "s"},
			metric{"sched.session_p50_us." + m, "us"},
			metric{"sched.session_p999_us." + m, "us"},
			metric{"serving.self_s." + m, "s"},
			metric{"serving.jobs." + m, "count"},
			metric{"serving.ns_per_job." + m, "ns"},
			metric{"serving.ff_hits." + m, "count"},
			metric{"serving.ff_share." + m, "ratio"},
		)
	}
	return ms
}()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: overload, sparse or failover")
	seed := flag.Int64("seed", 1, "workload seed; the simulation and fault seeds derive from it")
	seconds := flag.Int("seconds", 10, "how long a run lasts, in wall seconds, set-up included")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	flag.Parse()
	start := time.Now()
	// serving.Run is single-goroutine and the profile build is serial, so
	// one P runs all of the program. More Ps would only add the GC's
	// idle-time mark workers, whose CPU use depends on what else the host
	// is running and made the CPU timings below drift between runs.
	runtime.GOMAXPROCS(1)
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The budget counts from the start, so set-up is inside it.
	deadline := start.Add(time.Duration(*seconds) * time.Second)
	var values map[string]float64
	var metrics []metric
	if *trace == 1 {
		values, err = b.traced(deadline)
		metrics = perLayer
	} else {
		values, err = b.untraced(deadline)
		metrics = endToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]value, len(metrics)),
	}
	fmt.Printf("workload %s seed %d: %d arms attempted, %d succeeded, %d failed\n",
		w.name, *seed, b.attempted, b.attempted-b.failed, b.failed)
	for _, m := range metrics {
		v := values[m.name]
		rep.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one workload at one seed.
type bench struct {
	w        workload
	seed     int64
	apps     []*app.App
	profiles map[string]*profile.AppProfile
	// arrivalCount is the workload's total arrivals; every arm must
	// account for each of them.
	arrivalCount int
	// digests holds each arm's first Result digest; every later run of
	// the arm, traced or not, must reproduce it.
	digests map[string]string
	// probe scales the end-to-end timings to the reference host speed.
	probe *speedProbe

	attempted, failed int
}

func newBench(w workload, seed int64) (*bench, error) {
	apps, err := app.CatalogN(nApps)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, apps: apps, digests: make(map[string]string), probe: newSpeedProbe()}
	_, b.arrivalCount, err = arrivals(w.config(seed, apps, nil, false, nil))
	return b, err
}

// buildProfiles is the set-up every simulation pays: a cold, in-memory
// offline profile build of the workload's apps, serial.
func (b *bench) buildProfiles(tel *telemetry.Collector) error {
	var err error
	b.profiles, err = serving.BuildProfilesWith(b.apps, memStrategy(), newPolicy,
		serving.ProfileBuildOptions{Workers: 1, Telemetry: tel})
	return err
}

// timeBuild runs one cold profile build from a collected heap and
// returns the CPU seconds it took, scaled to the reference host speed by
// probe slices run just before and just after it.
func (b *bench) timeBuild() (float64, error) {
	runtime.GC()
	b.probe.reset()
	b.probe.run(2)
	start := cpuSeconds()
	err := b.buildProfiles(nil)
	cpu := cpuSeconds() - start
	b.probe.run(2)
	return cpu * b.probe.scale(), err
}

// mode is how an arm's method is run.
type mode int

const (
	probed mode = iota // in the wrapper with the speed probe, no collector
	timed              // in the timing wrapper, no collector
	traced             // in the timing wrapper, with a collector
)

// arm is one serving.Run of one method, with its host cost.
type arm struct {
	method         string
	res            *serving.Result
	wall           time.Duration
	cpu            float64 // CPU seconds, probe slices excluded
	refCPU         float64 // cpu at the reference host speed (probed only)
	mallocs, bytes uint64
	timer          *timedMethod
	sink           *traceSink
}

// runArm runs one arm in the given mode and checks its outputs. A run
// error or a failed check counts the arm as failed and is reported on
// standard error; the returned arm is nil then.
func (b *bench) runArm(method string, md mode) *arm {
	b.attempted++
	a, err := b.tryArm(method, md)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", b.w.name, method, err)
		return nil
	}
	return a
}

func (b *bench) tryArm(method string, md mode) (*arm, error) {
	m, divergent, err := newMethod(method)
	if err != nil {
		return nil, err
	}
	a := &arm{method: method}
	var tel *telemetry.Collector
	m, a.timer = wrap(m)
	if md == probed {
		a.timer.probe = b.probe
		b.probe.reset()
	}
	if md == traced {
		a.sink = &traceSink{}
		tel = telemetry.New(telemetry.Options{Trace: a.sink, Hist: true})
	}
	cfg := b.w.config(b.seed, b.apps, m, divergent, b.profiles)
	cfg.Telemetry = tel
	// Every arm starts from a collected heap, so the garbage of the
	// previous arm is not charged to this one.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu := time.Now(), cpuSeconds()
	a.res, err = serving.Run(cfg)
	a.cpu = cpuSeconds() - cpu
	a.wall = time.Since(start)
	if md == probed {
		a.cpu -= b.probe.cpu
		a.refCPU = a.cpu * b.probe.scale()
	}
	runtime.ReadMemStats(&after)
	a.mallocs = after.Mallocs - before.Mallocs
	a.bytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, err
	}
	if err := tel.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := checkArm(a.res, b.arrivalCount); err != nil {
		return nil, err
	}
	d := digest(a.res)
	if first, ok := b.digests[method]; !ok {
		b.digests[method] = d
		fmt.Printf("arm %s/%s: finish %.4f accuracy %.4f requests %d jobs %d shed %d digest %s\n",
			b.w.name, a.res.Method, a.res.MeanFinishRate, a.res.MeanAccuracy,
			a.res.Requests, a.res.Jobs, a.res.FaultShedRequests, d)
	} else if d != first {
		return nil, fmt.Errorf("Result digest %s differs from the first run's %s", d, first)
	}
	return a, nil
}

// round runs every arm of the workload once.
func (b *bench) round(md mode) []*arm {
	arms := make([]*arm, 0, len(b.w.methods))
	for _, m := range b.w.methods {
		if a := b.runArm(m, md); a != nil {
			arms = append(arms, a)
		}
	}
	return arms
}

// repeat calls f at least once, and again for as long as one more call,
// taking as long as the last one did, still ends by the deadline.
func repeat(deadline time.Time, f func() error) error {
	for {
		t := time.Now()
		if err := f(); err != nil {
			return err
		}
		if time.Now().Add(time.Since(t)).After(deadline) {
			return nil
		}
	}
}

// buildsPerRound is how many profile builds, of build seconds each, go
// with a round of arms taking sim seconds, so that builds take
// setupShare of the run.
func buildsPerRound(sim, build float64) int {
	return max(1, int(math.Ceil(sim*setupShare/(1-setupShare)/build)))
}

// untraced measures the end-to-end metrics: rounds of profile builds
// followed by all arms, until the deadline. setup_s is the median over
// all builds, the other metrics the median over rounds.
func (b *bench) untraced(deadline time.Time) (map[string]float64, error) {
	var setups, sims, mallocs, bytes []float64
	builds := firstBuilds
	err := repeat(deadline, func() error {
		for i := 0; i < builds; i++ {
			d, err := b.timeBuild()
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		var sim, cpu, wall, n, by float64
		for _, a := range b.round(probed) {
			sim += a.refCPU
			cpu += a.cpu
			wall += a.wall.Seconds()
			n += float64(a.mallocs)
			by += float64(a.bytes)
		}
		fmt.Printf("round %d: %d builds of median %.4f s; arms %.4f s (%.4f CPU s, %.4f wall s with probe)\n",
			len(sims)+1, builds, median(setups[len(setups)-builds:]), sim, cpu, wall)
		sims = append(sims, sim)
		mallocs = append(mallocs, n)
		bytes = append(bytes, by)
		builds = buildsPerRound(sim, median(setups))
		return nil
	})
	return map[string]float64{
		"setup_s":  median(setups),
		"sim_s":    median(sims),
		"allocs_m": median(mallocs) / 1e6,
		"alloc_mb": median(bytes) / 1e6,
	}, err
}

// traced measures the per-layer metrics: one traced profile build, then
// pairs of a timed round (wrapped methods, no collector) and a traced
// round (wrapped, with a collector), each pair followed by the layer
// replay, until the deadline. Each metric is the median over pairs.
func (b *bench) traced(deadline time.Time) (map[string]float64, error) {
	sink := &traceSink{}
	tel := telemetry.New(telemetry.Options{Trace: sink, Hist: true})
	if err := b.buildProfiles(tel); err != nil {
		return nil, err
	}
	if err := tel.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	setup := map[string]float64{
		"profile.units":       float64(len(sink.unitMs)),
		"profile.unit_p50_ms": quantile(sink.unitMs, 0.5),
		"profile.unit_max_ms": quantile(sink.unitMs, 1),
		"gpumem.evictions":    float64(sink.evictions),
		"gpumem.evicted_mb":   float64(sink.evictedBytes) / 1e6,
		"gpumem.pinned_share": ratio(float64(sink.pinned), float64(sink.evictions)),
	}

	samples := make(map[string][]float64)
	pairs := 0
	err := repeat(deadline, func() error {
		m := layerMetrics(b.round(timed), b.round(traced))
		replay, err := replayLayers(b.w.config(b.seed, b.apps, nil, false, nil))
		if err != nil {
			return err
		}
		for k, v := range replay {
			m[k] = v
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		pairs++
		return nil
	})
	fmt.Printf("%d pairs of a timed and a traced round\n", pairs)
	for k, vs := range samples {
		setup[k] = median(vs)
	}
	return setup, err
}

// layerMetrics derives the per-layer metrics of one pair of rounds. The
// sched and serving times come from the timed round, so they carry no
// telemetry cost; the collector's event counts come from the traced
// round; telemetry.overhead_s is the traced round's CPU time minus the
// timed round's, over the arms that succeeded in both.
func layerMetrics(timedArms, tracedArms []*arm) map[string]float64 {
	m := make(map[string]float64)
	byMethod := make(map[string]*arm, len(timedArms))
	for _, a := range timedArms {
		byMethod[a.method] = a
		t := a.timer
		period, session := t.periodTime.Seconds(), t.sessionTime().Seconds()
		self := a.wall.Seconds() - period - session
		calls := float64(len(t.sessions))
		ff := float64(resultInt(a.res, "FastForwardHits"))
		us := make([]float64, len(t.sessions))
		for i, d := range t.sessions {
			us[i] = float64(d.Nanoseconds()) / 1e3
		}
		suffix := "." + a.method
		m["sched.period_calls"+suffix] = float64(t.periodCalls)
		m["sched.period_s"+suffix] = period
		m["sched.session_calls"+suffix] = calls
		m["sched.session_s"+suffix] = session
		m["sched.session_p50_us"+suffix] = quantile(us, 0.5)
		m["sched.session_p999_us"+suffix] = quantile(us, 0.999)
		m["serving.self_s"+suffix] = self
		m["serving.jobs"+suffix] = float64(a.res.Jobs)
		m["serving.ns_per_job"+suffix] = ratio(self*1e9, float64(a.res.Jobs))
		m["serving.ff_hits"+suffix] = ff
		m["serving.ff_share"+suffix] = ratio(ff, ff+calls)

		m["faults.retrain_failures"] += float64(a.res.FaultRetrainFailures)
		m["faults.degraded_jobs"] += float64(a.res.FaultDegradedJobs)
		m["faults.gpu_crashes"] += float64(a.res.FaultGPUCrashes)
		m["cluster.replacements"] += float64(a.res.FaultReplacements)
		m["admit.shed_requests"] += float64(a.res.FaultShedRequests)
	}
	var hits, lookups float64
	for _, a := range tracedArms {
		hits += float64(a.sink.planHits)
		lookups += float64(a.sink.planHits + a.sink.planMisses)
		m["admit.evaluations"] += float64(a.sink.admits)
		if t, ok := byMethod[a.method]; ok {
			m["telemetry.overhead_s"] += a.cpu - t.cpu
		}
	}
	m["core.plan_memo_hit_ratio"] = ratio(hits, lookups)
	return m
}

// median is the middle value (the mean of the middle two for an even
// count) of xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
