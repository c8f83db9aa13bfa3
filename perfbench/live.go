package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"realisticfd/internal/cluster"
)

// liveDeadline bounds one cluster run: a wedged cluster fails the run
// instead of hanging the benchmark.
const liveDeadline = 45 * time.Second

// assemblesPerRun is how many cluster assemblies an untraced live run
// times for setup_s before each cluster run it measures, so that their
// median is sampled across the whole run. The first assembly of a run,
// which takes four times as long as the rest, is untimed.
const assemblesPerRun = 4

// logLine is one orchestrator log line with its wall-clock instant and
// the process CPU time at that instant.
type logLine struct {
	at   time.Time
	cpu  time.Duration
	text string
}

// liveLog is the orchestrator's Config.Log: it timestamps every line.
// onUp, when set, is called at the "all … initial nodes up" line.
type liveLog struct {
	mu    sync.Mutex
	lines []logLine
	onUp  func()
}

func (l *liveLog) Write(p []byte) (int, error) {
	now, cpu := time.Now(), cpuTime()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, text := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		l.lines = append(l.lines, logLine{at: now, cpu: cpu, text: text})
		if l.onUp != nil && upLine.MatchString(text) {
			l.onUp()
		}
	}
	return len(p), nil
}

// The orchestrator's log lines the benchmark reads.
var (
	spawnLine   = regexp.MustCompile(`^spawning \d+/\d+ nodes`)
	upLine      = regexp.MustCompile(`^all \d+ initial nodes up`)
	collectLine = regexp.MustCompile(`^collected \d+/\d+ reports`)
	actionLine  = regexp.MustCompile(`^t\+\d+ms: `)
	stopLine    = regexp.MustCompile(`^t\+\d+ms: (?:killed|paused) node (\d+)$|^t\+\d+ms: node (\d+) left$`)
	startLine   = regexp.MustCompile(`^t\+\d+ms: resumed node (\d+)$|^t\+\d+ms: node (\d+) joined`)
)

// first returns the first line matching re.
func (l *liveLog) first(re *regexp.Regexp) (logLine, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if re.MatchString(ln.text) {
			return ln, true
		}
	}
	return logLine{}, false
}

// last returns the last line matching re.
func (l *liveLog) last(re *regexp.Regexp) (logLine, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.lines) - 1; i >= 0; i-- {
		if re.MatchString(l.lines[i].text) {
			return l.lines[i], true
		}
	}
	return logLine{}, false
}

// liveRun is one completed cluster run.
type liveRun struct {
	res  *cluster.Result
	log  *liveLog
	wall time.Duration
	up   logLine // the "all … initial nodes up" line
	coll logLine // the "collected …" line
}

// clusterConfig is the in-process cluster configuration of a live spec.
func clusterConfig(ls loadedSpec, seed int64, traced bool, lg *liveLog) cluster.Config {
	spec := ls.spec
	return cluster.Config{
		Scenario:              &spec,
		Spawner:               cluster.InProcSpawner{},
		Seed:                  seed,
		IncludePairs:          true,
		CollectFaultDecisions: traced,
		Log:                   lg,
	}
}

// runCluster runs the live spec once under liveDeadline.
func runCluster(ls loadedSpec, seed int64, traced bool) (liveRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), liveDeadline)
	defer cancel()
	lg := &liveLog{}
	start := time.Now()
	res, err := cluster.Run(ctx, clusterConfig(ls, seed, traced, lg))
	lr := liveRun{res: res, log: lg, wall: time.Since(start)}
	if err != nil {
		return lr, fmt.Errorf("cluster run: %w", err)
	}
	var ok1, ok2 bool
	lr.up, ok1 = lg.first(upLine)
	lr.coll, ok2 = lg.last(collectLine)
	if !ok1 || !ok2 {
		return lr, fmt.Errorf("cluster run: orchestrator log lacks the assembly or collection line")
	}
	return lr, nil
}

// assembleOnly times one cluster assembly: cluster.Run is cancelled at
// the "all … initial nodes up" line and returns once every node is torn
// down. Like every set-up, it starts right after a garbage collection.
func assembleOnly(ls loadedSpec, seed int64) (float64, error) {
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), liveDeadline)
	defer cancel()
	lg := &liveLog{onUp: cancel}
	start := time.Now()
	_, err := cluster.Run(ctx, clusterConfig(ls, seed, false, lg))
	up, ok := lg.first(upLine)
	if !ok || !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("cluster assembly: not cancelled at assembly (%v)", err)
	}
	return up.at.Sub(start).Seconds(), nil
}

// nodeRounds is the nominal number of gossip rounds between the assembly
// and collection lines: the time each node spent gossiping (initial
// nodes from assembly, joiners from their join; kills, leaves and pauses
// stop the clock, resumes restart it) divided by the round period.
func (lr liveRun) nodeRounds(ls loadedSpec) (float64, error) {
	plan, err := ls.spec.CompilePlan()
	if err != nil {
		return 0, err
	}
	since := map[int]time.Time{}
	for id := 1; id <= ls.spec.N; id++ {
		if !plan.Joiner(id) {
			since[id] = lr.up.at
		}
	}
	var total time.Duration
	lr.log.mu.Lock()
	lines := append([]logLine(nil), lr.log.lines...)
	lr.log.mu.Unlock()
	for _, ln := range lines {
		if ln.at.Before(lr.up.at) || ln.at.After(lr.coll.at) {
			continue
		}
		if m := stopLine.FindStringSubmatch(ln.text); m != nil {
			id := atoiEither(m[1], m[2])
			if t, ok := since[id]; ok {
				total += ln.at.Sub(t)
				delete(since, id)
			}
		} else if m := startLine.FindStringSubmatch(ln.text); m != nil {
			since[atoiEither(m[1], m[2])] = ln.at
		}
	}
	for _, t := range since {
		total += lr.coll.at.Sub(t)
	}
	interval := time.Duration(ls.spec.Live.IntervalMs) * time.Millisecond
	return float64(total) / float64(interval), nil
}

func atoiEither(a, b string) int {
	if a == "" {
		a = b
	}
	id, _ := strconv.Atoi(a)
	return id
}

// cpuPerNodeRound is the process CPU spent between the assembly and
// collection lines per nominal node-round, in microseconds.
func (lr liveRun) cpuPerNodeRound(ls loadedSpec) (float64, error) {
	rounds, err := lr.nodeRounds(ls)
	if err != nil || rounds <= 0 {
		return 0, fmt.Errorf("cluster run: no node-rounds (%v)", err)
	}
	return float64(lr.coll.cpu-lr.up.cpu) / float64(time.Microsecond) / rounds, nil
}

// liveCheck is the live correctness gate of one run: every expected node
// reported, no assertion failed, and every survivor detected every
// killed node. It returns the operations attempted and failed and the
// detection times of the detected pairs.
func liveCheck(ls loadedSpec, res *cluster.Result) (attempted, failed int64, tdMs []float64, problems []string) {
	plan, err := ls.spec.CompilePlan()
	if err != nil {
		return 1, 1, nil, []string{err.Error()}
	}
	attempted = int64(res.Expected)
	failed = int64(res.Expected - res.Reports)
	if res.Reports != res.Expected {
		problems = append(problems, fmt.Sprintf("%d of %d reports", res.Reports, res.Expected))
	}
	for _, p := range res.Pairs {
		if _, killed := plan.Kills[p.Target]; !killed {
			continue
		}
		attempted++
		if p.Detected {
			tdMs = append(tdMs, p.DetectionMs)
		} else {
			failed++
		}
	}
	if n := int64(len(tdMs)); n != attempted-int64(res.Expected) {
		problems = append(problems, fmt.Sprintf("%d of %d killed pairs undetected", attempted-int64(res.Expected)-n, attempted-int64(res.Expected)))
	}
	failed += int64(len(res.Failures))
	problems = append(problems, res.Failures...)
	if failed > attempted {
		failed = attempted
	}
	return attempted, failed, tdMs, problems
}

// runLive measures the live workload end to end: cluster runs of the
// spec, one after the other, until the measuring time is spent, each
// after assemblesPerRun timed assemblies.
func runLive(w workload, ls loadedSpec, opt options, out *outcome, rep *report, stderr io.Writer) error {
	var setups, rates, cpu, pa, tdMs []float64
	if _, err := assembleOnly(ls, opt.seed); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		for i := 0; i < assemblesPerRun; i++ {
			s, err := assembleOnly(ls, opt.seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		lr, err := runCluster(ls, opt.seed, false)
		if err != nil {
			out.Attempted++
			out.Failed++
			out.fail(stderr, "%s: %v", w.name, err)
			break
		}
		att, fail, td, problems := liveCheck(ls, lr.res)
		out.Attempted += att
		out.Failed += fail
		for _, p := range problems {
			out.fail(stderr, "%s: %s", w.name, p)
		}
		c, err := lr.cpuPerNodeRound(ls)
		if err != nil {
			return err
		}
		rates = append(rates, 1/lr.wall.Seconds())
		cpu = append(cpu, c)
		pa = append(pa, lr.res.MinQueryAccuracy)
		tdMs = append(tdMs, td...)
	}
	if len(rates) == 0 {
		return nil // the failure is already recorded; no metrics to report
	}
	out.add("runs_per_s", median(rates), "1/s")
	out.add("setup_s", median(setups), "s")
	out.add("latency_p50_ms", quantile(tdMs, 0.5), "ms")
	out.add("latency_p90_ms", quantile(tdMs, 0.9), "ms")
	// The mean: a cluster run's CPU drifts with the host over minutes,
	// and over 28 consecutive runs the mean of each window of 5 or 6
	// spread no more than their median or least, and ranged the least.
	out.add("cpu_us_per_node_round", mean(cpu), "us")
	out.add("pa_min", median(pa), "share")
	out.add("ok_share", okShare(out), "share")
	out.add("max_rss_mb", maxRSSMB(), "MB")
	rep.Details["cluster_cpu_us_per_node_round"] = cpu
	rep.Details["td_samples"] = len(tdMs)
	rep.Details["assemblies"] = len(setups)
	return nil
}
