package sim

import (
	"math/rand"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

func TestFairPolicyRoundRobin(t *testing.T) {
	t.Parallel()
	fp := &FairPolicy{}
	alive := []model.ProcessID{1, 2, 3}
	r := rand.New(rand.NewSource(1))
	var seq []model.ProcessID
	for i := 0; i < 6; i++ {
		seq = append(seq, fp.NextProcess(alive, model.Time(i), r))
	}
	want := []model.ProcessID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round robin = %v", seq)
		}
	}
}

func TestFairPolicyOldestFirst(t *testing.T) {
	t.Parallel()
	fp := &FairPolicy{}
	r := rand.New(rand.NewSource(1))
	if got := fp.PickMessage(1, nil, 0, r); got != -1 {
		t.Fatalf("empty buffer pick = %d, want -1 (λ)", got)
	}
	pending := []*Message{{ID: 10}, {ID: 11}}
	if got := fp.PickMessage(1, pending, 0, r); got != 0 {
		t.Fatalf("pick = %d, want oldest (0)", got)
	}
}

// TestRandomFairPolicyRoundCoverage: within any window of len(alive)
// scheduling decisions with a stable alive set, every process steps
// exactly once — condition (4) of §2.4 in bounded form.
func TestRandomFairPolicyRoundCoverage(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{}
	alive := []model.ProcessID{1, 2, 3, 4, 5}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		seen := model.EmptySet()
		for i := 0; i < len(alive); i++ {
			p := rp.NextProcess(alive, model.Time(round*5+i), r)
			if seen.Has(p) {
				t.Fatalf("round %d: %v scheduled twice before others ran", round, p)
			}
			seen = seen.Add(p)
		}
		if seen.Len() != len(alive) {
			t.Fatalf("round %d covered only %v", round, seen)
		}
	}
}

// TestRandomFairPolicyShrinkingAlive: when processes crash mid-round,
// the policy must keep scheduling only alive ones.
func TestRandomFairPolicyShrinkingAlive(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{}
	r := rand.New(rand.NewSource(3))
	alive := []model.ProcessID{1, 2, 3, 4, 5}
	for i := 0; i < 100; i++ {
		if i == 40 {
			alive = []model.ProcessID{2, 4} // p1, p3, p5 crash
		}
		p := rp.NextProcess(alive, model.Time(i), r)
		ok := false
		for _, q := range alive {
			if q == p {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("step %d: scheduled dead %v", i, p)
		}
	}
}

// TestRandomFairPolicyAgeForcing: a message older than MaxAge must be
// delivered regardless of the λ/shuffle draws — condition (5) of §2.4
// in bounded form.
func TestRandomFairPolicyAgeForcing(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{LambdaPct: 99, MaxAge: 10}
	r := rand.New(rand.NewSource(5))
	pending := []*Message{{ID: 1, SentAt: 0}}
	forced := 0
	for i := 0; i < 100; i++ {
		if rp.PickMessage(1, pending, 50, r) == 0 {
			forced++
		}
	}
	if forced != 100 {
		t.Fatalf("age forcing fired %d/100 times, want always", forced)
	}
}

// TestFairnessEndToEnd runs a chatty automaton under the random
// policy and audits conditions (4) and (5) on the trace: every
// correct process keeps stepping, and no message to a correct process
// is older than the forcing bound at the end.
func TestFairnessEndToEnd(t *testing.T) {
	t.Parallel()
	pat := model.MustPattern(6).MustCrash(3, 100)
	tr, err := Execute(Config{
		N: 6, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 1},
		Pattern: pat, Horizon: 3000, Seed: 11,
		Policy: &RandomFairPolicy{MaxAge: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (4): every correct process stepped in the last 3n ticks.
	for _, p := range pat.Correct().Slice() {
		evs := tr.EventsOf(p)
		if len(evs) == 0 {
			t.Fatalf("%v never stepped", p)
		}
		if last := tr.Events[evs[len(evs)-1]].T; last < tr.MaxTime()-18 {
			t.Fatalf("%v starved: last step at %d of %d", p, last, tr.MaxTime())
		}
	}
	// (5): no stale message to a correct process survived.
	for _, m := range tr.Undelivered {
		if pat.Correct().Has(m.To) && tr.MaxTime()-m.SentAt > 50+model.Time(6) {
			t.Fatalf("stale message %v to correct process (age %d)", m, tr.MaxTime()-m.SentAt)
		}
	}
}

// TestOracleNoiseDeterminism: seeded noisy oracles are pure functions
// of (seed, p, q, t) — two queries agree, and so do two full runs.
func TestOracleNoiseDeterminism(t *testing.T) {
	t.Parallel()
	o1 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 9, FalseRate: 30}
	o2 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 9, FalseRate: 30}
	pat := model.MustPattern(5).MustCrash(4, 30)
	for tt := model.Time(0); tt < 150; tt++ {
		for p := model.ProcessID(1); p <= 5; p++ {
			if !o1.Output(pat, p, tt).Equal(o2.Output(pat, p, tt)) {
				t.Fatalf("oracle not deterministic at (%v, %d)", p, tt)
			}
		}
	}
	// A different seed must actually change something.
	o3 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 10, FalseRate: 30}
	same := true
	for tt := model.Time(0); tt < 100 && same; tt++ {
		for p := model.ProcessID(1); p <= 5; p++ {
			if !o1.Output(pat, p, tt).Equal(o3.Output(pat, p, tt)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

// subsetOfAlive is the membership test RandomFairPolicy used before it
// cached the alive set: it rebuilds the set from alive on every pick.
func subsetOfAlive(order []model.ProcessID, alive []model.ProcessID) bool {
	var av model.ProcessSet
	for _, p := range alive {
		av = av.Add(p)
	}
	for _, p := range order {
		if !av.Has(p) {
			return false
		}
	}
	return true
}

// referenceFairPolicy is RandomFairPolicy with its round rebuilt by the
// reference rule: whenever subsetOfAlive finds a crashed process among
// the round's remaining ones.
type referenceFairPolicy struct {
	RandomFairPolicy
	order []model.ProcessID
	pos   int
}

func (rp *referenceFairPolicy) NextProcess(alive []model.ProcessID, _ model.Time, r *rand.Rand) model.ProcessID {
	if rp.pos >= len(rp.order) || !subsetOfAlive(rp.order[rp.pos:], alive) {
		rp.order = append(rp.order[:0], alive...)
		r.Shuffle(len(rp.order), func(i, j int) {
			rp.order[i], rp.order[j] = rp.order[j], rp.order[i]
		})
		rp.pos = 0
	}
	p := rp.order[rp.pos]
	rp.pos++
	return p
}

// TestRandomFairPolicyMatchesReference drives RandomFairPolicy and the
// reference rule through random crash sequences and asserts the same
// pick sequence, seed for seed. As in the engine, the alive list is
// rebuilt in place and only shrinks within a run. The second run on
// the same policy restarts time on the recycled list, holding as many
// processes as the first run ended with but shifted by one ID.
func TestRandomFairPolicyMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 200; seed++ {
		crashes := rand.New(rand.NewSource(seed))
		n := 4 + crashes.Intn(61)
		got, want := &RandomFairPolicy{}, &referenceFairPolicy{}
		rg, rw := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var alive []model.ProcessID
		for p := 1; p <= n; p++ {
			if crashes.Intn(8) > 0 || p == n {
				alive = append(alive, model.ProcessID(p))
			}
		}
		for run := 0; run < 2; run++ {
			if run > 0 {
				var shifted model.ProcessSet
				for _, p := range alive {
					shifted = shifted.Add(p%model.ProcessID(n) + 1)
				}
				alive = append(alive[:0], shifted.Slice()...)
			}
			for tick := model.Time(1); tick <= 400; tick++ {
				if len(alive) > 1 && crashes.Intn(40) == 0 {
					k := 1 + crashes.Intn(min(3, len(alive)-1))
					for i := 0; i < k; i++ {
						j := crashes.Intn(len(alive))
						alive = append(alive[:j], alive[j+1:]...)
					}
				}
				pg, pw := got.NextProcess(alive, tick, rg), want.NextProcess(alive, tick, rw)
				if pg != pw {
					t.Fatalf("seed %d run %d t=%d: picked %v, reference %v (alive %v)", seed, run, tick, pg, pw, alive)
				}
			}
		}
	}
}

// TestRandomFairPolicyMatchesReferenceInEngine runs both rules through
// the engine under random crash patterns and requires byte-identical
// traces.
func TestRandomFairPolicyMatchesReferenceInEngine(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 40; seed++ {
		crashes := rand.New(rand.NewSource(seed))
		n := 4 + crashes.Intn(29)
		pattern := func() *model.FailurePattern {
			pat := model.MustPattern(n)
			r := rand.New(rand.NewSource(seed))
			for p := 1; p < n; p++ {
				if r.Intn(3) == 0 {
					pat = pat.MustCrash(model.ProcessID(p), model.Time(r.Intn(300)))
				}
			}
			return pat
		}
		digest := func(p Policy) string {
			tr, err := Execute(Config{
				N: n, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
				Pattern: pattern(), Horizon: 600, Seed: seed, Policy: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			return tr.Digest()
		}
		if got, want := digest(&RandomFairPolicy{}), digest(&referenceFairPolicy{}); got != want {
			t.Fatalf("seed %d n=%d: digest %s, reference %s", seed, n, got, want)
		}
	}
}
