package main

import (
	"time"

	"adainf/internal/sched"
	"adainf/internal/telemetry"
)

// timedMethod wraps a sched.Method and times its two planning entry
// points, OnPeriodStart and PlanSession, from outside the program.
//
// serving.Run type-asserts five optional interfaces on its method. Four
// of them are forwarded unconditionally: where the inner method lacks
// one, the forward is a no-op or a zero answer, which is exactly what
// serving does when its assertion fails. The fifth, the steady-state
// marker, changes behaviour by its mere presence (it turns fast-forward
// on), so only steadyTimedMethod carries it, and wrap picks that type
// only for methods that carry it themselves.
type timedMethod struct {
	inner sched.Method

	periodCalls int
	periodTime  time.Duration
	sessions    []time.Duration
	// probe, when set, runs a speed-probe slice between calls when one
	// is due, outside the timed intervals.
	probe *speedProbe
}

// wrap returns the method to hand to serving.Run and the timer behind it.
func wrap(m sched.Method) (sched.Method, *timedMethod) {
	t := &timedMethod{inner: m}
	if _, ok := m.(interface{ SteadyStatePlanning() }); ok {
		return steadyTimedMethod{t}, t
	}
	return t, t
}

func (t *timedMethod) Name() string { return t.inner.Name() }

func (t *timedMethod) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	t.probe.tick()
	start := time.Now()
	plan, err := t.inner.OnPeriodStart(ctx)
	t.periodTime += time.Since(start)
	t.periodCalls++
	return plan, err
}

func (t *timedMethod) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	t.probe.tick()
	start := time.Now()
	plan, err := t.inner.PlanSession(ctx)
	t.sessions = append(t.sessions, time.Since(start))
	return plan, err
}

func (t *timedMethod) SetTelemetry(c *telemetry.Collector) {
	if m, ok := t.inner.(interface{ SetTelemetry(*telemetry.Collector) }); ok {
		m.SetTelemetry(c)
	}
}

func (t *timedMethod) SetPlanMemoVerify(on bool) {
	if m, ok := t.inner.(interface{ SetPlanMemoVerify(bool) }); ok {
		m.SetPlanMemoVerify(on)
	}
}

func (t *timedMethod) PlanMemoStats() (hits, misses, invalidated uint64) {
	if m, ok := t.inner.(interface {
		PlanMemoStats() (uint64, uint64, uint64)
	}); ok {
		return m.PlanMemoStats()
	}
	return 0, 0, 0
}

func (t *timedMethod) DagFor(app string) *sched.RIDag {
	if m, ok := t.inner.(interface{ DagFor(string) *sched.RIDag }); ok {
		return m.DagFor(app)
	}
	return nil
}

// sessionTime is the summed PlanSession time.
func (t *timedMethod) sessionTime() time.Duration {
	var sum time.Duration
	for _, d := range t.sessions {
		sum += d
	}
	return sum
}

type steadyTimedMethod struct{ *timedMethod }

// SteadyStatePlanning forwards the marker of a steady-state inner method.
func (steadyTimedMethod) SteadyStatePlanning() {}
