// Command bench runs the repository's benchmark suite in-process and
// emits a machine-readable JSON report (bench.json by default, an
// untracked name, so a run never overwrites a committed BENCH_PR*.json),
// the artifact the CI benchmark job uploads per PR so the perf
// trajectory of the simulator is tracked commit over commit.
//
// The suite mirrors the per-package -bench benchmarks (engine stepping,
// consensus/TRB/abcast protocol runs, trace queries, the E8 experiment
// table) and adds the large-scale configurations the ROADMAP points at:
// an n=64 many-seed streaming sweep, measured both single-worker and at
// NumCPU workers so parallel scaling is tracked too. Benchmark names
// are stable across flag settings — parameters that vary (like the
// sweep's seed count under -quick, or the worker count) live in JSON
// fields, not in the name, so trajectory tooling can join on the name
// across reports.
//
// Run with:
//
//	go run ./cmd/bench [-out bench.json] [-quick]
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The profiles cover the whole suite; analyze with `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"realisticfd/internal/abcast"
	"realisticfd/internal/consensus"
	"realisticfd/internal/experiments"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/trb"
)

// result is one benchmark's measurement. Seeds is set only for
// sweep-shaped benchmarks whose workload size varies with -quick; the
// name itself never encodes it.
type result struct {
	Name        string  `json:"name"`
	Seeds       int     `json:"seeds,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report is the emitted JSON document.
type report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []result `json:"results"`
}

func abcastScript(n, per int) map[model.ProcessID][]string {
	out := make(map[model.ProcessID][]string, n)
	for p := 1; p <= n; p++ {
		msgs := make([]string, per)
		for i := range msgs {
			msgs[i] = fmt.Sprintf("m-%d-%d", p, i)
		}
		out[model.ProcessID(p)] = msgs
	}
	return out
}

// mustRun executes one seeded run and asserts it finished by StopWhen.
// Failures panic with a named diagnostic: testing.B instances built by
// testing.Benchmark outside a test binary have no runner, so b.Fatal
// would die in a bare nil-pointer panic instead of reporting anything.
func mustRun(cfg sim.Config, wantCondition bool) *sim.Trace {
	tr, err := sim.Execute(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: run failed: %v", err))
	}
	if wantCondition && tr.Stopped != sim.StopCondition {
		panic(fmt.Sprintf("bench: run did not reach its stop condition: %v", tr))
	}
	return tr
}

// benchmark is one suite entry; seeds and workers are non-zero only
// for sweep-shaped entries and are echoed into the JSON row.
type benchmark struct {
	name    string
	seeds   int
	workers int
	fn      func(*testing.B)
}

// sweepN64 returns the flagship n=64 streaming-sweep body at a fixed
// worker count; the single-worker and NumCPU-worker suite rows share
// it so the pair differs only in parallelism.
func sweepN64(seeds, workers int) func(*testing.B) {
	return func(b *testing.B) {
		sc := harness.Scenario{
			Name: "bench-n64", N: 64,
			Automaton: scenario.BusyAutomaton{},
			Oracle:    fd.Perfect{Delay: 2},
			Horizon:   2000,
			Pattern: func() *model.FailurePattern {
				return model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900)
			},
			Policy: func() sim.Policy { return &sim.RandomFairPolicy{} },
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := harness.Reduce(sc, harness.Seeds(seeds), workers, harness.SweepReducer())
			if st.Runs != int64(seeds) || st.Errors != 0 {
				panic(fmt.Sprintf("bench: sweep folded %d runs (%d errors), want %d clean",
					st.Runs, st.Errors, seeds))
			}
		}
	}
}

// suite returns the named benchmark bodies in report order. The
// engine/consensus/trb configurations deliberately mirror the
// per-package *_test.go benchmarks (BenchmarkEngineSteps,
// BenchmarkSFloodingRun, BenchmarkRotatingRun, BenchmarkTRBWave) so
// the JSON trajectory stays comparable to `go test -bench` numbers —
// change them together or the tracked history breaks.
func suite(quick bool) []benchmark {
	sweepSeeds := 256
	if quick {
		sweepSeeds = 32
	}
	return []benchmark{
		{name: "sim/engine-steps-n8", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(sim.Config{
					N: 8, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
					Horizon: 2000, Seed: int64(i), Policy: &sim.RandomFairPolicy{},
				}, false)
			}
		}},
		{name: "sim/causal-past", fn: func(b *testing.B) {
			tr := func() *sim.Trace {
				tr, err := sim.Execute(sim.Config{
					N: 8, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{},
					Horizon: 4000, Seed: 3, Policy: &sim.RandomFairPolicy{},
				})
				if err != nil {
					panic(err)
				}
				return tr
			}()
			last := len(tr.Events) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tr.CausalPast(last)
			}
		}},
		{name: "consensus/sflooding-run", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(sim.Config{
					N:         5,
					Automaton: consensus.SFlooding{Proposals: consensus.DistinctProposals(5)},
					Oracle:    fd.Perfect{Delay: 2},
					Pattern:   model.MustPattern(5).MustCrash(2, 40),
					Horizon:   20000, Seed: int64(i),
					Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
				}, true)
			}
		}},
		{name: "consensus/rotating-run", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(sim.Config{
					N:         5,
					Automaton: consensus.Rotating{Proposals: consensus.DistinctProposals(5)},
					Oracle:    fd.EventuallyStrong{GST: 50, Delay: 2, Seed: 3, FalseRate: 10},
					Pattern:   model.MustPattern(5).MustCrash(2, 40),
					Horizon:   20000, Seed: int64(i),
					Policy: &sim.RandomFairPolicy{}, StopWhen: sim.CorrectDecided(0),
				}, true)
			}
		}},
		{name: "trb/wave", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(sim.Config{
					N: 5, Automaton: trb.Broadcast{Waves: 1}, Oracle: fd.Perfect{Delay: 2},
					Pattern: model.MustPattern(5).MustCrash(2, 30),
					Horizon: 60000, Seed: int64(i),
					StopWhen: trb.AllDelivered(1),
				}, true)
			}
		}},
		{name: "abcast/total-order", fn: func(b *testing.B) {
			sc := abcastScript(5, 2)
			const expected = 5 * 10 // every process delivers all 10 messages
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(sim.Config{
					N: 5, Automaton: abcast.Atomic{ToBroadcast: sc, MaxInstances: 30},
					Oracle:  fd.Perfect{Delay: 2},
					Pattern: model.MustPattern(5), Horizon: 120000, Seed: int64(i),
					StopWhen: func(tr *sim.Trace) bool {
						return len(tr.ProtocolEvents(sim.KindDeliver)) >= expected
					},
				}, true)
			}
		}},
		{name: "experiments/e8-majority-crossover", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.E8MajorityCrossover(1)
			}
		}},
		{name: "sweep/n64", seeds: sweepSeeds, workers: 1,
			fn: sweepN64(sweepSeeds, 1)},
		{name: "sweep/n64-parallel", seeds: sweepSeeds, workers: runtime.NumCPU(),
			fn: sweepN64(sweepSeeds, runtime.NumCPU())},
	}
}

func main() {
	out := flag.String("out", "bench.json", "path of the JSON report")
	quick := flag.Bool("quick", false, "smaller sweep sizes for local smoke runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole suite")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the suite")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Schema:     "realisticfd-bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range suite(*quick) {
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		rep.Results = append(rep.Results, result{
			Name:        bm.name,
			Seeds:       bm.seeds,
			Workers:     bm.workers,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %d B/op, %d allocs/op\n",
			r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		f.Close()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))
}
