package main

import (
	"math/rand"
	"time"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// layerClock accumulates the time and calls spent in the wrapped layers
// of one traced campaign.
type layerClock struct {
	policyNs, policyCalls int64
	oracleNs, oracleCalls int64
	stepNs, stepCalls     int64
}

func (c *layerClock) policy(t0 time.Time) {
	c.policyNs += int64(time.Since(t0))
	c.policyCalls++
}

func (c *layerClock) oracle(t0 time.Time) {
	c.oracleNs += int64(time.Since(t0))
	c.oracleCalls++
}

func (c *layerClock) step(t0 time.Time) {
	c.stepNs += int64(time.Since(t0))
	c.stepCalls++
}

// timedPolicy times every call into a sim.Policy.
type timedPolicy struct {
	inner sim.Policy
	c     *layerClock
}

func (p *timedPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	t0 := time.Now()
	defer p.c.policy(t0)
	return p.inner.NextProcess(alive, t, r)
}

func (p *timedPolicy) PickMessage(q model.ProcessID, pending []*sim.Message, t model.Time, r *rand.Rand) int {
	t0 := time.Now()
	defer p.c.policy(t0)
	return p.inner.PickMessage(q, pending, t, r)
}

// siftingPolicy is timedPolicy for a policy that is also a
// sim.DropSifter, which the engine consults before every pick.
type siftingPolicy struct {
	timedPolicy
	sifter sim.DropSifter
}

func (p *siftingPolicy) SiftDropped(pending, dst []*sim.Message) []*sim.Message {
	t0 := time.Now()
	defer p.c.policy(t0)
	return p.sifter.SiftDropped(pending, dst)
}

// wrapPolicy times p, implementing sim.DropSifter exactly when p does,
// so the engine takes the same path as without the wrapper.
func wrapPolicy(p sim.Policy, c *layerClock) sim.Policy {
	if p == nil {
		return nil
	}
	tp := timedPolicy{inner: p, c: c}
	if s, ok := p.(sim.DropSifter); ok {
		return &siftingPolicy{timedPolicy: tp, sifter: s}
	}
	return &tp
}

// timedOracle times every Output query of an fd.Oracle. The embedded
// interface forwards Name and Realistic only.
type timedOracle struct {
	fd.Oracle
	c *layerClock
}

func (o *timedOracle) Output(f *model.FailurePattern, p model.ProcessID, t model.Time) model.ProcessSet {
	t0 := time.Now()
	defer o.c.oracle(t0)
	return o.Oracle.Output(f, p, t)
}

// steadyOracle is timedOracle for an fd.Steady oracle.
type steadyOracle struct {
	timedOracle
	steady fd.Steady
}

func (o *steadyOracle) StableUntil(f *model.FailurePattern, p model.ProcessID, t model.Time) model.Time {
	t0 := time.Now()
	defer o.c.oracle(t0)
	return o.steady.StableUntil(f, p, t)
}

// wrapOracle times o, implementing fd.Steady exactly when o does.
func wrapOracle(o fd.Oracle, c *layerClock) fd.Oracle {
	if o == nil {
		return nil
	}
	to := timedOracle{Oracle: o, c: c}
	if s, ok := o.(fd.Steady); ok {
		return &steadyOracle{timedOracle: to, steady: s}
	}
	return &to
}

// timedAutomaton spawns processes whose every Step is timed.
type timedAutomaton struct {
	inner sim.Automaton
	c     *layerClock
}

func (a timedAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &timedProcess{inner: a.inner.Spawn(self, n), c: a.c}
}

type timedProcess struct {
	inner sim.Process
	c     *layerClock
}

func (p *timedProcess) Step(in *sim.Message, susp model.ProcessSet, now model.Time) sim.Actions {
	t0 := time.Now()
	defer p.c.step(t0)
	return p.inner.Step(in, susp, now)
}
