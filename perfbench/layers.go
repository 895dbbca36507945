package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"adainf/internal/app"
	"adainf/internal/drift"
	"adainf/internal/faults"
	"adainf/internal/metrics"
	"adainf/internal/serving"
	"adainf/internal/trace"
)

// arrivals draws the per-application, per-session arrival counts of a
// run the way serving.Run draws them: the same curve and generator
// seeds, the predictor observing every session, and fault bursts
// multiplying arrivals before the predictor sees them. The output
// checks compare a Result against its total; the trace layer replay
// times it.
func arrivals(cfg serving.Config) ([][]int32, int, error) {
	nSessions := int(cfg.Horizon / cfg.Clock.Session)
	perPeriod := cfg.Clock.SessionsPerPeriod()
	inj := faults.New(cfg.Faults)
	out := make([][]int32, len(cfg.Apps))
	total := 0
	for i, a := range cfg.Apps {
		curve := trace.DefaultTwitterLike(cfg.RatePerApp, cfg.Horizon, cfg.Seed+int64(i)*31)
		gen := trace.NewGenerator(curve, cfg.Seed+int64(i)*17+1)
		pred, err := trace.NewPredictor(cfg.PredictAlpha)
		if err != nil {
			return nil, 0, err
		}
		out[i] = make([]int32, nSessions)
		for first := 0; first < nSessions; first += perPeriod {
			n := min(perPeriod, nSessions-first)
			var burst faults.Burst
			bursty := false
			if inj != nil {
				burst, bursty = inj.BurstFor(first/perPeriod, a.Name, n)
			}
			for s := 0; s < n; s++ {
				c := gen.CountInWindow(cfg.Clock.SessionStart(first+s), cfg.Clock.SessionStart(first+s+1))
				if bursty && s >= burst.Start && s < burst.End {
					c *= burst.Factor
				}
				pred.Predict()
				pred.Observe(c)
				out[i][first+s] = int32(c)
				total += c
			}
		}
	}
	return out, total, nil
}

// replayLayers feeds the workload's period-level inputs through the
// public layer functions and times each: arrival generation and
// prediction, pool sampling, drift detection and metric recording.
// Retraining is not applied, so drift detection sees models that never
// adapt: the replay measures each layer's cost at the workload's input
// sizes, not the exact decisions of a run.
func replayLayers(cfg serving.Config) (map[string]float64, error) {
	m := make(map[string]float64)
	nSessions := int(cfg.Horizon / cfg.Clock.Session)
	nPeriods := (nSessions + cfg.Clock.SessionsPerPeriod() - 1) / cfg.Clock.SessionsPerPeriod()

	start := time.Now()
	arr, _, err := arrivals(cfg)
	if err != nil {
		return nil, err
	}
	m["trace.s"] = time.Since(start).Seconds()
	m["trace.windows"] = float64(len(cfg.Apps) * nSessions)

	insts := make([]*app.Instance, len(cfg.Apps))
	for i, a := range cfg.Apps {
		// The instance seed stride is serving.Run's.
		if insts[i], err = app.NewInstance(a, app.InstanceConfig{
			Seed:             cfg.Seed + int64(i)*104729,
			PoolSamples:      cfg.PoolSamples,
			BootstrapSamples: cfg.BootstrapSamples,
		}); err != nil {
			return nil, err
		}
	}
	inj := faults.New(cfg.Faults)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var synthT, driftT, rankT time.Duration
	var samples, calls, rounds, impacted int
	for p := 0; p < nPeriods; p++ {
		if p > 0 {
			t := time.Now()
			for _, inst := range insts {
				inst.AdvancePeriod(cfg.PoolSamples)
			}
			synthT += time.Since(t)
			for _, inst := range insts {
				for _, ni := range inst.Nodes() {
					samples += len(ni.Pool.Samples)
				}
				if inj != nil {
					if seed, intensity, ok := inj.DriftSpike(p, inst.App.Name); ok {
						inst.ShockDrift(seed, intensity)
					}
				}
			}
		}
		for _, inst := range insts {
			t := time.Now()
			reports, err := drift.DetectApp(inst, drift.Config{}, rng)
			driftT += time.Since(t)
			if err != nil {
				return nil, err
			}
			for _, rep := range reports {
				calls++
				rounds += len(rep.Rounds)
				if rep.Impacted {
					impacted++
				}
			}
			for _, ni := range inst.Nodes() {
				t := time.Now()
				_, err := drift.RankByDivergence(ni.OldData, ni.Pool, pcaComponents)
				rankT += time.Since(t)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	m["synthdata.samples"] = float64(samples)
	m["synthdata.s"] = synthT.Seconds()
	m["drift.calls"] = float64(calls)
	m["drift.s"] = driftT.Seconds()
	m["drift.rank_s"] = rankT.Seconds()
	m["drift.rounds"] = float64(rounds)
	m["drift.impacted_share"] = float64(impacted) / float64(calls)

	start = time.Now()
	n, err := recordArrivals(cfg, arr)
	if err != nil {
		return nil, err
	}
	m["metrics.s"] = time.Since(start).Seconds()
	m["metrics.calls"] = float64(n)
	return m, nil
}

// recordArrivals feeds a metrics.Recorder one job per application and
// session with arrivals, one met SLO outcome per request and one correct
// prediction per request and leaf model, as a run records them, then
// reads the aggregates back. It returns the number of Record calls.
func recordArrivals(cfg serving.Config, arr [][]int32) (int, error) {
	rec := metrics.NewRecorder(cfg.Horizon, cfg.Clock.Period, cfg.GPUs)
	leaves := make([]int, len(cfg.Apps))
	for i, a := range cfg.Apps {
		leaves[i] = len(a.Leaves())
	}
	calls := 0
	for s := range arr[0] {
		at := cfg.Clock.SessionStart(s)
		for i := range arr {
			c := int(arr[i][s])
			if c == 0 {
				continue
			}
			rec.RecordJob(0, 0)
			for r := 0; r < c; r++ {
				rec.RecordRequest(at, true)
			}
			for l := 0; l < leaves[i]; l++ {
				for r := 0; r < c; r++ {
					rec.RecordPrediction(at, true, false)
				}
			}
			calls += 1 + c*(1+leaves[i])
		}
	}
	rec.FinishRateWindows()
	rec.PeriodAccuracy()
	if fr, acc := rec.MeanFinishRate(), rec.MeanAccuracy(); fr != 1 || acc != 1 {
		return 0, fmt.Errorf("metrics replay: finish rate %g and accuracy %g, want 1 and 1", fr, acc)
	}
	return calls, nil
}

// traceSink is the telemetry collector's JSONL writer. It keeps nothing
// but the counts the per-layer metrics need from the profile_unit,
// evict, admit and counters events.
type traceSink struct {
	partial []byte

	unitMs       []float64
	evictions    int
	pinned       int
	evictedBytes int64
	admits       int
	// planHits and planMisses are the collector's running plan-memo
	// counters as of its last counters event.
	planHits, planMisses int64
}

var evKey = []byte(`"ev":"`)

// pcaComponents is drift.Config's default, which DetectApp uses.
const pcaComponents = 4

// traceEvent holds the fields read from the events the sink keeps.
type traceEvent struct {
	WallMs     float64 `json:"wall_ms"`
	Bytes      int64   `json:"bytes"`
	Pin        bool    `json:"pin"`
	PlanHits   int64   `json:"plan_hits"`
	PlanMisses int64   `json:"plan_misses"`
}

func (s *traceSink) Write(p []byte) (int, error) {
	n := len(p)
	if len(s.partial) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return n, nil
		}
		s.partial = append(s.partial, p[:i]...)
		if err := s.line(s.partial); err != nil {
			return 0, err
		}
		s.partial = s.partial[:0]
		p = p[i+1:]
	}
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return n, nil
		}
		if err := s.line(p[:i]); err != nil {
			return 0, err
		}
		p = p[i+1:]
	}
}

func (s *traceSink) line(l []byte) error {
	i := bytes.Index(l, evKey)
	if i < 0 {
		return fmt.Errorf("trace line without an event name: %.80s", l)
	}
	ev := l[i+len(evKey):]
	if j := bytes.IndexByte(ev, '"'); j >= 0 {
		ev = ev[:j]
	}
	switch string(ev) {
	case "profile_unit", "evict", "admit", "counters":
	default:
		return nil
	}
	var e traceEvent
	if err := json.Unmarshal(l, &e); err != nil {
		return fmt.Errorf("trace line %.80s: %w", l, err)
	}
	switch string(ev) {
	case "profile_unit":
		s.unitMs = append(s.unitMs, e.WallMs)
	case "evict":
		s.evictions++
		s.evictedBytes += e.Bytes
		if e.Pin {
			s.pinned++
		}
	case "admit":
		s.admits++
	case "counters":
		s.planHits, s.planMisses = e.PlanHits, e.PlanMisses
	}
	return nil
}
