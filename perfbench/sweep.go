package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// workload is one benchmark workload: a checked-in spec named
// <name>.json and the facts its correctness gate checks.
type workload struct {
	name string
	// live selects the live cluster backend; sweeps run the simulator.
	live bool
	// simDigest pins the simulator campaign digest of the spec's seed
	// range at seed 0 (the default seed). Every traced run checks it for
	// its own spec; untraced sweeps check it too.
	simDigest string
	// decisions is the decide count a run stopped by its condition must
	// reach (see runGate); 0 means no per-run gate.
	decisions int64
	// maxUndecided is the largest share of a campaign's runs that may
	// reach the horizon undecided (see runGate).
	maxUndecided float64
}

var workloads = []workload{
	{
		name:      "sweep-busy-n64",
		simDigest: "db26b4450c69dd77cb4375acbd36988f636cf095f4deccd47a0af16cb494dce1",
	},
	{
		name:      "sweep-consensus-lossy16",
		simDigest: "8d460f1dc5d7a108a05f0cac1d766e8dbe54af064d1079fce42db4a9efe9137b",
		decisions: 14,
		// 60 of seeds 0..29999 end undecided (0.2%), at most 10 in any
		// 2048 consecutive seeds (0.5%).
		maxUndecided: 0.01,
	},
	{
		name:      "live-chord64",
		live:      true,
		simDigest: "664c7566ae7b3ffe202daf16b1993d60be47dc19b0736b16926ede00d894edb0",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += "|"
		}
		s += w.name
	}
	return s
}

// defaultSeed is the seed whose campaign digest is pinned.
const defaultSeed = 0

// runGate is the per-run correctness gate of a consensus workload, fed
// each run while its trace is valid: a run stopped by its condition has
// exactly the expected decisions, and no run has two differing
// decisions (agreement). A run that reaches the horizon undecided is a
// valid outcome, as nothing below the protocol retransmits a lost
// message; but a share of undecided runs above maxUndecided fails the
// gate, so a change that stops runs deciding does not pass.
type runGate struct {
	decisions    int64
	maxUndecided float64
	runs         int64
	bad          int64
	undecided    int64
	firstBad     string
}

// gate is a fresh run gate for the workload.
func (w workload) gate() runGate {
	return runGate{decisions: w.decisions, maxUndecided: w.maxUndecided}
}

func (g *runGate) check(r harness.Result) {
	if g.decisions == 0 || r.Err != nil {
		return // errored runs are counted by SweepStats
	}
	g.runs++
	tr := r.Trace
	ds := tr.Decisions(sim.AnyInstance)
	switch {
	case tr.Stopped != sim.StopCondition:
		g.undecided++
	case int64(len(ds)) != g.decisions:
		g.fail(fmt.Sprintf("seed %d stopped with %d decisions, want %d", r.Seed, len(ds), g.decisions))
		return
	}
	for _, d := range ds {
		if d.Value != ds[0].Value {
			g.fail(fmt.Sprintf("seed %d decided both %v and %v", r.Seed, ds[0].Value, d.Value))
			return
		}
	}
}

// err is the gate's verdict over every run it was fed.
func (g *runGate) err() error {
	if g.bad != 0 {
		return fmt.Errorf("%d runs failed the run gate, first: %s", g.bad, g.firstBad)
	}
	if float64(g.undecided) > g.maxUndecided*float64(g.runs) {
		return fmt.Errorf("%d of %d runs ended undecided, more than %g of them", g.undecided, g.runs, g.maxUndecided)
	}
	return nil
}

func (g *runGate) fail(msg string) {
	if g.bad == 0 {
		g.firstBad = msg
	}
	g.bad++
}

// foldWith is harness.SweepReducer with every run also handed to fn
// while its trace is still valid. It is only correct with one worker,
// which folds every run in seed order.
func foldWith(fn func(harness.Result)) harness.Reducer[harness.SweepStats] {
	base := harness.SweepReducer()
	return harness.Reducer[harness.SweepStats]{
		New:   base.New,
		Merge: base.Merge,
		Fold: func(st harness.SweepStats, r harness.Result) harness.SweepStats {
			st = base.Fold(st, r)
			fn(r)
			return st
		},
	}
}

// checkCampaign is the simulator correctness gate of one campaign: every
// run folded, none errored or failed the run gate, and at the default
// seed the campaign digest is the pinned one. At other seeds the digest
// is only reported.
func (w workload) checkCampaign(seed int64, st harness.SweepStats, runs int64, gate *runGate) error {
	if st.Runs != runs {
		return fmt.Errorf("%s: %d runs folded, want %d", w.name, st.Runs, runs)
	}
	if st.Errors != 0 {
		return fmt.Errorf("%s: %d of %d runs errored", w.name, st.Errors, runs)
	}
	if err := gate.err(); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if seed == defaultSeed && st.Digest != w.simDigest {
		return fmt.Errorf("%s: campaign digest %s at seed %d, pinned %s", w.name, st.Digest, seed, w.simDigest)
	}
	return nil
}

// The set-up a run reports the median of: setupWarmup untimed set-ups
// first, then setupReps timed ones. A sweep times setupsPerCampaign more
// before each campaign it measures, so that its median is sampled across
// the whole run rather than in one burst of a few milliseconds, which
// falls wholly in one of the shared host's faster or slower spells.
const (
	setupReps         = 51
	setupWarmup       = 3
	setupsPerCampaign = 8
)

// setupScenario loads the spec, compiles its plan and builds the
// scenario warmup+reps times, returning the last build and the duration
// in seconds of each of the last reps. Every set-up starts right after a
// garbage collection, so that none pays for collecting what came before
// it.
func setupScenario(path string, warmup, reps int) (harness.Scenario, []float64, error) {
	var sc harness.Scenario
	secs := make([]float64, 0, reps)
	for i := 0; i < warmup+reps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := scenario.Load(path)
		if err != nil {
			return sc, nil, err
		}
		if _, err := s.CompilePlan(); err != nil {
			return sc, nil, fmt.Errorf("%s: %w", path, err)
		}
		if sc, err = s.Build(); err != nil {
			return sc, nil, fmt.Errorf("%s: %w", path, err)
		}
		if i >= warmup {
			secs = append(secs, time.Since(t0).Seconds())
		}
	}
	return sc, secs, nil
}

// campaignRange is the campaign a seed selects: the spec's seed count,
// starting at the seed.
func campaignRange(s scenario.Spec, seed int64) (harness.SeedRange, error) {
	count := s.Seeds.To - s.Seeds.From
	if count < 1 || seed > math.MaxInt64-count {
		return harness.SeedRange{}, fmt.Errorf("seed %d: campaign of %d seeds does not fit", seed, count)
	}
	return harness.SeedRange{From: seed, To: seed + count}, nil
}

// simProcs is the GOMAXPROCS the simulator campaigns run at. A campaign
// runs on one worker; with a second P beside it, the same busy-n64 chunk
// of 64 runs took a quarter longer at the median (321–338 ms against
// 255–264 ms, 20 s of chunks each way on a 2-vCPU VM), and longer still
// than with an unrelated loop busy on the second vCPU.
const simProcs = 1

// onSimProcs sets GOMAXPROCS to simProcs and records it in the report;
// the function it returns restores the previous setting.
func onSimProcs(rep *report) func() {
	prev := runtime.GOMAXPROCS(simProcs)
	rep.SimGOMAXPROCS = simProcs
	return func() { runtime.GOMAXPROCS(prev) }
}

// chunkSize is the seed-chunk size of every campaign: the interval at
// which a checkpointed campaign reports progress, and the unit whose
// latency the sweeps report.
const chunkSize = 64

// chunkClock times every chunk of a one-worker campaign that is run
// over and over on the same seeds, and keeps for each chunk the least
// wall time and the least process CPU time any repeat of it took. Runs
// are counted by tick, called from the fold.
//
// The least time is the estimate because this benchmark shares its host:
// the same chunk of runs takes from one to one and a half times its
// least time as other tenants come and go, in spells of a few seconds,
// and that only ever adds time. The least time over a run's repeats
// moves with the program's own cost and spread about half as much from
// run to run as the median did; see README.md.
type chunkClock struct {
	n, chunk int // runs folded and chunks stamped in this campaign
	last     time.Time
	lastCPU  time.Duration
	bestMs   []float64 // least wall time of each chunk, in ms
	bestCPU  []float64 // least process CPU time of each chunk, in µs
}

// start begins a campaign.
func (c *chunkClock) start() {
	c.n, c.chunk = 0, 0
	c.last, c.lastCPU = time.Now(), cpuTime()
}

func (c *chunkClock) stamp() {
	now, cpu := time.Now(), cpuTime()
	ms := float64(now.Sub(c.last)) / float64(time.Millisecond)
	us := float64(cpu-c.lastCPU) / float64(time.Microsecond)
	if c.chunk == len(c.bestMs) {
		c.bestMs, c.bestCPU = append(c.bestMs, ms), append(c.bestCPU, us)
	} else {
		c.bestMs[c.chunk] = math.Min(c.bestMs[c.chunk], ms)
		c.bestCPU[c.chunk] = math.Min(c.bestCPU[c.chunk], us)
	}
	c.chunk++
	c.last, c.lastCPU = now, cpu
}

// finish stamps a campaign's last, partial chunk.
func (c *chunkClock) finish() {
	if c.n%chunkSize != 0 {
		c.stamp()
	}
}

// tick counts one folded run, stamping the end of its chunk.
func (c *chunkClock) tick() {
	if c.n++; c.n%chunkSize == 0 {
		c.stamp()
	}
}

// campaign is the least time of a whole campaign, in seconds, and its
// least CPU time, in µs: the sums over its chunks.
func (c *chunkClock) campaign() (wallS, cpuUs float64) {
	for i := range c.bestMs {
		wallS += c.bestMs[i] / 1e3
		cpuUs += c.bestCPU[i]
	}
	return wallS, cpuUs
}

// runSweep measures one sweep workload end to end: the spec's campaign,
// starting at the seed, streamed at one worker on simProcs Ps and repeated until the
// measuring time is spent, with setupsPerCampaign timed set-ups before
// each repeat.
func runSweep(w workload, ls loadedSpec, opt options, out *outcome, rep *report, stderr io.Writer) error {
	defer onSimProcs(rep)()
	sc, setups, err := setupScenario(ls.path, setupWarmup, 0)
	if err != nil {
		return err
	}
	seeds, err := campaignRange(ls.spec, opt.seed)
	if err != nil {
		return err
	}
	var (
		rates  []float64
		events int64
		digest string
		clock  chunkClock
	)
	gate := w.gate()
	red := foldWith(func(r harness.Result) {
		gate.check(r)
		clock.tick()
	})
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		_, secs, err := setupScenario(ls.path, 0, setupsPerCampaign)
		if err != nil {
			return err
		}
		setups = append(setups, secs...)
		clock.start()
		t0 := time.Now()
		st, err := harness.Stream(sc, seeds, red, harness.StreamOptions{Workers: 1, ChunkSize: chunkSize})
		wall := time.Since(t0)
		clock.finish()
		if err != nil {
			return err
		}
		out.Attempted += st.Runs
		out.Failed += st.Errors
		if err := w.checkCampaign(opt.seed, st, int64(seeds.Count()), &gate); err != nil {
			out.fail(stderr, "%v", err)
			out.Failed = out.Attempted
		}
		if digest != "" && st.Digest != digest {
			out.fail(stderr, "%s: campaign digest changed between repeats: %s then %s", w.name, digest, st.Digest)
			out.Failed = out.Attempted
		}
		digest, events = st.Digest, st.Events
		rates = append(rates, float64(st.Runs)/wall.Seconds())
	}

	bestS, bestCPUUs := clock.campaign()
	out.add("runs_per_s", float64(seeds.Count())/bestS, "1/s")
	out.add("setup_s", median(setups), "s")
	out.add("latency_p50_ms", quantile(clock.bestMs, 0.5), "ms")
	out.add("latency_p90_ms", quantile(clock.bestMs, 0.9), "ms")
	out.add("cpu_us_per_node_round", bestCPUUs/float64(events), "us")
	out.add("pa_min", simQueryAccuracy(sc, seeds.From, accuracyRuns), "share")
	out.add("ok_share", okShare(out), "share")
	out.add("max_rss_mb", maxRSSMB(), "MB")
	rep.Details["campaign_digest"] = digest
	rep.Details["campaign_runs_per_s"] = rates
	rep.Details["median_campaign_runs_per_s"] = median(rates)
	rep.Details["runs_per_campaign"] = seeds.Count()
	rep.Details["chunks"] = len(clock.bestMs)
	rep.Details["setups"] = len(setups)
	rep.Details["undecided_runs"] = gate.undecided
	fmt.Fprintf(stderr, "perfbench: %s seeds [%d, %d) ×%d, digest %s\n", w.name, seeds.From, seeds.To, len(rates), digest)
	return nil
}

// okShare is the share of attempted operations that did not fail.
func okShare(out *outcome) float64 {
	if out.Attempted == 0 {
		return 0
	}
	return 1 - float64(out.Failed)/float64(out.Attempted)
}

// accuracyRuns is how many leading seeds of a campaign the simulated
// detector's query accuracy is measured on, outside the timed part.
const accuracyRuns = 16

// simQueryAccuracy is the simulator's counterpart of the live P_A
// minimum: over the given runs, the least share of a correct observer's
// steps in which its detector output did not suspect a given correct
// target.
func simQueryAccuracy(sc harness.Scenario, from int64, runs int) float64 {
	rc := sim.NewRunContext()
	minPA := 1.0
	for s := from; s < from+int64(runs); s++ {
		r := sc.RunIn(rc, s)
		if r.Err != nil {
			return 0
		}
		tr := r.Trace
		correct := tr.Pattern.Correct()
		steps := make([]int, tr.N+1)
		susp := make([][]int, tr.N+1)
		for _, ev := range tr.Events {
			if !correct.Has(ev.P) {
				continue
			}
			steps[ev.P]++
			if susp[ev.P] == nil {
				susp[ev.P] = make([]int, tr.N+1)
			}
			ev.FD.Intersect(correct).ForEach(func(q model.ProcessID) bool {
				susp[ev.P][q]++
				return true
			})
		}
		for p := 1; p <= tr.N; p++ {
			if steps[p] == 0 || susp[p] == nil {
				continue
			}
			for q := 1; q <= tr.N; q++ {
				if q == p || !correct.Has(model.ProcessID(q)) {
					continue
				}
				minPA = math.Min(minPA, 1-float64(susp[p][q])/float64(steps[p]))
			}
		}
	}
	return minPA
}
