package main

import (
	"fmt"
	"time"

	"adainf/internal/app"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/simtime"
)

// The server every workload runs on: the paper's default point (§5) of
// 8 applications on 4 GPUs with 8000-sample retraining pools, under
// AdaInf's memory configuration (MaximizeUsage + priority eviction),
// which cmd/adainf also profiles every method with.
const (
	nApps            = 8
	gpus             = 4.0
	poolSamples      = 8000
	bootstrapSamples = 2000
	predictAlpha     = 0.4
	priorityAlpha    = 0.4
)

// workload is one traffic mix: a request rate, a horizon, a topology,
// the methods it runs (one serving.Run arm each) and whether lane
// faults fire. Arrivals are open-loop in simulated time on
// trace.DefaultTwitterLike; the arms themselves run closed-loop, one
// after another.
type workload struct {
	name     string
	rate     float64 // mean requests per second per application
	horizon  simtime.Duration
	lanes    int // serving.Config.NGPUs
	methods  []string
	failover bool
}

var workloads = []workload{
	{
		// The paper's default point: overloaded, so job execution,
		// session planning and drift detection do heavy work while
		// fast-forward and the plan memo do almost none.
		name: "overload", rate: 250, horizon: 500 * time.Second, lanes: 1,
		methods: []string{"adainf", "ekya", "scrooge"},
	},
	{
		// Low load over the §2 horizon: most sessions are idle or
		// repeat, so period-level work and fast-forward replay dominate.
		name: "sparse", rate: 20, horizon: 1000 * time.Second, lanes: 1,
		methods: []string{"adainf", "ekya"},
	},
	{
		// The only traffic through cluster placement, failover
		// re-placement, the admission gate and the per-lane session path.
		name: "failover", rate: 250, horizon: 500 * time.Second, lanes: 4,
		methods: []string{"adainf", "ekya", "scrooge"}, failover: true,
	},
}

// allMethods lists every method a workload can run, in report order;
// per-arm metrics carry these names as their suffix.
var allMethods = []string{"adainf", "ekya", "scrooge"}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newMethod returns a fresh scheduler for one arm and whether it uses
// AdaInf's divergent sample selection, as cmd/adainf configures them.
func newMethod(name string) (sched.Method, bool, error) {
	switch name {
	case "adainf":
		return core.New(core.Options{}), true, nil
	case "ekya":
		return baselines.NewEkya(), false, nil
	case "scrooge":
		return baselines.NewScrooge(false), false, nil
	}
	return nil, false, fmt.Errorf("unknown method %q", name)
}

func memStrategy() gpu.Strategy { return gpu.Strategy{MaximizeUsage: true} }

func newPolicy() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: priorityAlpha} }

// faultConfig is the workload's fault schedule for the seed, or nil
// when the workload injects no faults: the default schedule plus lane
// crashes and recoveries from period 3 on, at most two lanes down.
func (w workload) faultConfig(seed int64) *faults.Config {
	if !w.failover {
		return nil
	}
	c := faults.Default()
	c.Seed = seed
	c.GPUCrash = 0.3
	c.GPURecover = 0.3
	c.GPUCrashAfter = 3
	c.GPUCrashMax = 2
	return &c
}

// config is the serving.Config of one arm. Everything the program
// receives is generated here from the seed; defaults are spelled out
// so the layer replays read the same values the run uses.
func (w workload) config(seed int64, apps []*app.App, m sched.Method, divergent bool,
	profiles map[string]*profile.AppProfile) serving.Config {
	return serving.Config{
		Apps:               apps,
		Method:             m,
		GPUs:               gpus,
		NGPUs:              w.lanes,
		Horizon:            w.horizon,
		Clock:              simtime.NewClock(),
		Seed:               seed,
		RatePerApp:         w.rate,
		Retraining:         true,
		DivergentSelection: divergent,
		MemStrategy:        memStrategy(),
		NewPolicy:          newPolicy,
		PoolSamples:        poolSamples,
		BootstrapSamples:   bootstrapSamples,
		Profiles:           profiles,
		PredictAlpha:       predictAlpha,
		Faults:             w.faultConfig(seed),
	}
}
