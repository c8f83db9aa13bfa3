// Command perfbench is the repository benchmark. It drives one of three
// checked-in /v3 specs from a single process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured by timing calls
// into each package's exported API from this module. The line before it
// is a JSON record of the environment and the campaign digests. See
// README.md for the workloads, the metrics and how to run it.
//
//	bash perfbench/run.sh --workload sweep-busy-n64 --seed 0 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"realisticfd/internal/scenario"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line the benchmark contract prescribes.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add records one metric.
func (o *outcome) add(name string, value float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed correctness check: the run is incorrect and the
// failure is reported on standard error.
func (o *outcome) fail(stderr io.Writer, format string, args ...any) {
	o.Correct = false
	fmt.Fprintf(stderr, "perfbench: check failed: "+format+"\n", args...)
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	specDir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt        options
		seconds    int
		trace      int
		cpuprofile string
	)
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&opt.seed, "seed", 0, "workload seed: first sweep seed, cluster seed")
	fs.IntVar(&seconds, "seconds", 30, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&opt.specDir, "specs", filepath.Join("perfbench", "specs"), "directory of the workload specs")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the measured part here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) || opt.seed < 0 {
		fmt.Fprintln(stderr, "perfbench: want -seconds ≥ 1, -trace 0|1 and -seed ≥ 0")
		return 2
	}
	opt.seconds, opt.trace = float64(seconds), trace == 1
	w, ok := findWorkload(opt.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", opt.workload, workloadNames())
		return 2
	}

	// Every spec is loaded and its plan compiled before any timing starts,
	// so a broken spec fails the run up front, whichever workload it is.
	specs, err := loadSpecs(opt.specDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Workload:      w.name,
		Seed:          opt.seed,
		Trace:         opt.trace,
		Go:            runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NProc:         runtime.NumCPU(),
		Workers:       1,
		ConfigDigests: map[string]string{},
		Details:       map[string]any{},
	}
	for name, s := range specs {
		rep.ConfigDigests[name] = s.digest
	}
	out := outcome{Correct: true}
	start := time.Now()
	switch {
	case w.live && !opt.trace:
		err = runLive(w, specs[w.name], opt, &out, &rep, stderr)
	case !w.live && !opt.trace:
		err = runSweep(w, specs[w.name], opt, &out, &rep, stderr)
	default:
		err = runTraced(w, specs, opt, &out, &rep, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.ElapsedS = time.Since(start).Seconds()

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]report{"env": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is the environment and detail record printed before the result
// line: enough to tell two runs' settings apart and to compare campaign
// digests between a parent commit and a change.
type report struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Trace         bool              `json:"trace"`
	Go            string            `json:"go"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	SimGOMAXPROCS int               `json:"sim_gomaxprocs,omitempty"`
	NProc         int               `json:"nproc"`
	Workers       int               `json:"workers"`
	ConfigDigests map[string]string `json:"config_digests"`
	ElapsedS      float64           `json:"elapsed_s"`
	Details       map[string]any    `json:"details"`
}

// loadedSpec is one validated workload spec.
type loadedSpec struct {
	path   string
	spec   scenario.Spec
	digest string
}

// loadSpecs loads every workload's spec and compiles its fault plan.
func loadSpecs(dir string) (map[string]loadedSpec, error) {
	out := make(map[string]loadedSpec, len(workloads))
	for _, w := range workloads {
		path := filepath.Join(dir, w.name+".json")
		s, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		if _, err := s.CompilePlan(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		digest, err := s.ConfigDigest()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[w.name] = loadedSpec{path: path, spec: s, digest: digest}
	}
	return out, nil
}
