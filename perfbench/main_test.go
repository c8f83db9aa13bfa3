package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// tinySpec is a small busy campaign, quick enough for a unit test.
const tinySpec = `{
  "schema": "fdspec/v3",
  "name": "tiny",
  "n": 4,
  "horizon": 200,
  "seeds": {"from": 0, "to": 8},
  "protocol": {"kind": "busy"},
  "oracle": {"kind": "perfect", "delay": 2},
  "crashes": [{"process": 2, "at": 50}]
}`

func loadTiny(t *testing.T) loadedSpec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return loadedSpec{path: path, spec: s}
}

// TestWrongPinnedDigestFailsTheRun shows the sweep gate at work: with a
// wrong pinned digest the run is incorrect and every run counts as
// failed; with the right one it passes.
func TestWrongPinnedDigestFailsTheRun(t *testing.T) {
	ls := loadTiny(t)
	opt := options{workload: "tiny", seed: defaultSeed, seconds: 0.01}

	wrong := workload{name: "tiny", simDigest: "0000"}
	var out outcome
	out.Correct = true
	rep := report{Details: map[string]any{}}
	if err := runSweep(wrong, ls, opt, &out, &rep, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != out.Attempted || out.Attempted == 0 {
		t.Fatalf("wrong pinned digest: correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
	}
	if got := out.Metrics["ok_share"].Value; got != 0 {
		t.Fatalf("wrong pinned digest: ok_share %v, want 0", got)
	}

	right := workload{name: "tiny", simDigest: rep.Details["campaign_digest"].(string)}
	out = outcome{Correct: true}
	if err := runSweep(right, ls, opt, &out, &rep, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("right pinned digest: correct=%v failed=%d", out.Correct, out.Failed)
	}

	// Away from the default seed only the invariants are checked.
	opt.seed = 5
	out = outcome{Correct: true}
	if err := runSweep(wrong, ls, opt, &out, &rep, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatal("seed 5 failed although only the default seed is pinned")
	}
}

// TestLossyConsensusGate runs lossy16 over seeds that include 2083, whose
// run never decides (lost messages are not retransmitted, so liveness is
// not claimed). Over [2000, 2200) the run gate counts it without failing
// the campaign; over [2080, 2090) one undecided run in ten is above the
// workload's ceiling and fails it. A wrong decision count fails too.
func TestLossyConsensusGate(t *testing.T) {
	s, err := scenario.Load(filepath.Join("specs", "sweep-consensus-lossy16.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("sweep-consensus-lossy16")
	campaign := func(seeds harness.SeedRange, gate *runGate) error {
		st, err := harness.Stream(sc, seeds, foldWith(gate.check), harness.StreamOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return w.checkCampaign(7, st, int64(seeds.Count()), gate)
	}

	wide := harness.SeedRange{From: 2000, To: 2200}
	gate := w.gate()
	if err := campaign(wide, &gate); err != nil {
		t.Fatalf("lossy campaign failed its gate: %v", err)
	}
	if gate.undecided != 1 || gate.runs != 200 {
		t.Fatalf("seeds [2000, 2200) hold one undecided run; the gate counted %d of %d", gate.undecided, gate.runs)
	}

	narrow := harness.SeedRange{From: 2080, To: 2090}
	gate = w.gate()
	if err := campaign(narrow, &gate); err == nil {
		t.Fatal("one undecided run in ten passed a gate whose ceiling is 1%")
	}

	wrong := w.gate()
	wrong.decisions--
	if err := campaign(wide, &wrong); err == nil {
		t.Fatal("a wrong decision count passed the gate")
	}

	gate = w.gate()
	st, err := harness.Stream(sc, wide, foldWith(gate.check), harness.StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkCampaign(7, st, 201, &gate); err == nil {
		t.Fatal("a missing run passed the gate")
	}
}

// plainOracle implements fd.Oracle but not fd.Steady.
type plainOracle struct{}

func (plainOracle) Name() string    { return "plain" }
func (plainOracle) Realistic() bool { return true }
func (plainOracle) Output(*model.FailurePattern, model.ProcessID, model.Time) model.ProcessSet {
	return model.EmptySet()
}

// plainPolicy implements sim.Policy but not sim.DropSifter.
type plainPolicy struct{}

func (plainPolicy) NextProcess(alive []model.ProcessID, _ model.Time, _ *rand.Rand) model.ProcessID {
	return alive[0]
}
func (plainPolicy) PickMessage(model.ProcessID, []*sim.Message, model.Time, *rand.Rand) int {
	return -1
}

// TestWrappersKeepOptionalInterfaces: a wrapper implements sim.DropSifter
// or fd.Steady exactly when the wrapped value does, or the engine would
// take another path under tracing.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	var c layerClock
	if _, ok := wrapPolicy(&sim.FaultyPolicy{Inner: plainPolicy{}}, &c).(sim.DropSifter); !ok {
		t.Error("wrapped FaultyPolicy lost DropSifter")
	}
	if _, ok := wrapPolicy(plainPolicy{}, &c).(sim.DropSifter); ok {
		t.Error("wrapped plain policy gained DropSifter")
	}
	if _, ok := wrapOracle(fd.Perfect{Delay: 2}, &c).(fd.Steady); !ok {
		t.Error("wrapped Perfect lost Steady")
	}
	if _, ok := wrapOracle(plainOracle{}, &c).(fd.Steady); ok {
		t.Error("wrapped plain oracle gained Steady")
	}
}

// TestTracedCampaignDigestMatchesStream runs a lossy consensus campaign
// both ways: the traced digest must be the streamed one.
func TestTracedCampaignDigestMatchesStream(t *testing.T) {
	s, err := scenario.Load(filepath.Join("specs", "sweep-consensus-lossy16.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	seeds := harness.SeedRange{From: 3, To: 3 + 300}
	st, err := harness.Stream(sc, seeds, harness.SweepReducer(), harness.StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tracedCampaign(sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if ct.digest != st.Digest || ct.runs != st.Runs || ct.errors != 0 {
		t.Fatalf("traced %s over %d runs, streamed %s over %d", ct.digest, ct.runs, st.Digest, st.Runs)
	}
	if ct.policyCalls == 0 || ct.oracleCalls == 0 || ct.stepCalls == 0 {
		t.Fatalf("a wrapped layer was never called: %+v", ct.layerClock)
	}
	if ct.digested != int64(len(ct.foldLessDigestNs)) || ct.digested < ct.runs/digestEvery {
		t.Fatalf("%d of %d runs digested on their own", ct.digested, ct.runs)
	}
}
