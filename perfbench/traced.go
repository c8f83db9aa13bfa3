package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"realisticfd/internal/cluster"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/heartbeat"
	"realisticfd/internal/membership"
	"realisticfd/internal/model"
	"realisticfd/internal/qos"
	"realisticfd/internal/sim"
	"realisticfd/internal/transport"
)

// liveSpecName names the spec whose cluster the live layers are measured
// on in every traced run: a sweep has no cluster of its own.
const liveSpecName = "live-chord64"

// runTraced measures every layer: the simulator layers on the
// workload's own spec, the live layers on a live-chord64 cluster and on
// the frame codec at its size.
func runTraced(w workload, specs map[string]loadedSpec, opt options, out *outcome, rep *report, stderr io.Writer) error {
	if err := simProbe(w, specs[w.name], opt, out, rep, stderr); err != nil {
		return err
	}
	codec, err := microProbes(specs[liveSpecName], opt.seed, out)
	if err != nil {
		return err
	}
	return liveProbe(specs[liveSpecName], opt.seed, codec, out, rep, stderr)
}

// campaignTrace is what a traced campaign measured. Runs, folds and
// merges follow each other on the one worker, so a run's span is the
// time from the end of the fold or merge before it to its own fold.
type campaignTrace struct {
	layerClock
	runs, events, undelivered int64
	runInNs, foldNs, mergeNs  int64
	// digestNs is Trace.Digest timed on its own before the fold, on
	// every digestEvery-th seed; foldLessDigestNs holds, for each of
	// those runs, the fold's time less a digest timed right after it,
	// which like the fold's own digest finds the trace in cache.
	digested         int64
	digestNs         int64
	foldLessDigestNs []float64
	last             time.Time
	wall             time.Duration
	digest           string
	errors           int64
}

// digestEvery is how often a traced campaign times the digest on its
// own: every digestEvery-th seed's trace is digested twice more, so
// most runs pay for one digest, as untraced.
const digestEvery = 4

// tracedScenario is sc with its scheduling policy (the fault policy
// included), its oracle and its automaton wrapped in timers.
func tracedScenario(sc harness.Scenario, c *layerClock) harness.Scenario {
	policy, faults := sc.Policy, sc.Faults
	sc.Faults = nil
	sc.Policy = func() sim.Policy {
		var p sim.Policy
		if policy != nil {
			p = policy()
		}
		if faults != nil && faults.Active() {
			p = &sim.FaultyPolicy{Inner: p, Faults: *faults}
		}
		return wrapPolicy(p, c)
	}
	if oracleFor := sc.OracleFor; oracleFor != nil {
		sc.OracleFor = func(seed int64) fd.Oracle { return wrapOracle(oracleFor(seed), c) }
	} else {
		sc.Oracle = wrapOracle(sc.Oracle, c)
	}
	sc.Automaton = timedAutomaton{inner: sc.Automaton, c: c}
	return sc
}

// reducer is harness.SweepReducer with every fold and merge timed. The
// span before a fold is the run: Scenario.RunIn. It is only correct with
// one worker.
func (ct *campaignTrace) reducer() harness.Reducer[harness.SweepStats] {
	base := harness.SweepReducer()
	return harness.Reducer[harness.SweepStats]{
		New: base.New,
		Fold: func(st harness.SweepStats, r harness.Result) harness.SweepStats {
			t0 := time.Now()
			ct.runInNs += int64(t0.Sub(ct.last))
			ct.runs++
			sampled := false
			if r.Err != nil {
				ct.errors++
			} else {
				ct.events += int64(len(r.Trace.Events))
				ct.undelivered += int64(len(r.Trace.Undelivered))
				sampled = r.Seed%digestEvery == 0
			}
			var digestNs int64
			if sampled {
				digestNs = timeDigest(r.Trace)
			}
			f0 := time.Now()
			st = base.Fold(st, r)
			foldNs := int64(time.Since(f0))
			if sampled {
				ct.digested++
				ct.digestNs += digestNs
				ct.foldLessDigestNs = append(ct.foldLessDigestNs, float64(foldNs-timeDigest(r.Trace)))
			}
			ct.foldNs += foldNs
			ct.last = time.Now()
			return st
		},
		Merge: func(a, b harness.SweepStats) harness.SweepStats {
			t0 := time.Now()
			m := base.Merge(a, b)
			ct.last = time.Now()
			ct.mergeNs += int64(ct.last.Sub(t0))
			return m
		},
	}
}

// timeDigest is the duration of tr.Digest in nanoseconds.
func timeDigest(tr *sim.Trace) int64 {
	t0 := time.Now()
	_ = tr.Digest()
	return int64(time.Since(t0))
}

// tracedCampaign runs the campaign through harness.Stream at one worker,
// as the untraced run does, with the policy, oracle and automaton
// wrapped and every run, fold and merge timed.
func tracedCampaign(sc harness.Scenario, seeds harness.SeedRange) (*campaignTrace, error) {
	ct := &campaignTrace{}
	traced := tracedScenario(sc, &ct.layerClock)
	ct.last = time.Now()
	start := ct.last
	st, err := harness.Stream(traced, seeds, ct.reducer(), harness.StreamOptions{Workers: 1, ChunkSize: chunkSize})
	ct.wall = time.Since(start)
	ct.digest = st.Digest
	return ct, err
}

// calibrateClock measures what timing one call costs: the whole
// time.Now plus time.Since pair, and the part of it that falls inside
// the measured span. Both are medians over batches, in nanoseconds.
func calibrateClock() (pairNs, insideNs float64) {
	var inside time.Duration
	pairNs, _ = nsPerOp(clockIters, func(int) error {
		t0 := time.Now()
		inside += time.Since(t0)
		return nil
	})
	return pairNs, float64(inside) / clockIters
}

// per is a/b, or 0 when b is 0.
func per(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simProbe measures the simulator layers on one spec: a plain streamed
// campaign (digest, allocations, wall time), the same campaign traced,
// and the plain one again, so that the tracing overhead is free of
// which campaign went first. All digests must agree, and at the default
// seed match the pinned one.
func simProbe(w workload, ls loadedSpec, opt options, out *outcome, rep *report, stderr io.Writer) error {
	defer onSimProcs(rep)()
	sc, setups, err := setupScenario(ls.path, setupWarmup, setupReps)
	if err != nil {
		return err
	}
	seeds, err := campaignRange(ls.spec, opt.seed)
	if err != nil {
		return err
	}
	gate := w.gate()
	plainCampaign := func() (harness.SweepStats, time.Duration, error) {
		t0 := time.Now()
		st, err := harness.Stream(sc, seeds, foldWith(gate.check), harness.StreamOptions{Workers: 1, ChunkSize: chunkSize})
		if err == nil {
			out.Attempted += st.Runs
			out.Failed += st.Errors
		}
		return st, time.Since(t0), err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, before, err := plainCampaign()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	ct, err := tracedCampaign(sc, seeds)
	if err != nil {
		return err
	}
	out.Attempted += ct.runs
	out.Failed += ct.errors
	again, after, err := plainCampaign()
	if err != nil {
		return err
	}
	if err := w.checkCampaign(opt.seed, st, int64(seeds.Count()), &gate); err != nil {
		out.fail(stderr, "%v", err)
		out.Failed = out.Attempted
	}
	for _, d := range []string{ct.digest, again.Digest} {
		if d != st.Digest {
			out.fail(stderr, "%s: campaign digest %s differs from the first untraced one %s", w.name, d, st.Digest)
			out.Failed = out.Attempted
		}
	}

	// Each wrapped call adds one clock pair to the run's span, of which
	// the inside part also lands in the call's own span; both are
	// subtracted.
	pairNs, insideNs := calibrateClock()
	calls := ct.policyCalls + ct.oracleCalls + ct.stepCalls
	self := func(ns, calls int64) int64 { return max(ns-int64(float64(calls)*insideNs), 0) }
	policyNs, oracleNs, stepNs := self(ct.policyNs, ct.policyCalls), self(ct.oracleNs, ct.oracleCalls), self(ct.stepNs, ct.stepCalls)
	executeNs := max(ct.runInNs-policyNs-oracleNs-stepNs-int64(float64(calls)*pairNs), 0)
	runs := ct.runs
	digestUs := per(ct.digestNs, ct.digested) / 1e3
	plainUs := (before + after).Seconds() * 1e6 / float64(2*st.Runs)
	out.add("scenario.setup_ms", median(setups)*1e3, "ms")
	out.add("sim.execute_us_per_run", per(executeNs, runs)/1e3, "us")
	out.add("sim.digest_us_per_run", digestUs, "us")
	// The digest's share of a run as the untraced pipeline spends it:
	// the run with the clock cost removed, plus the fold, which holds
	// the run's one digest.
	runUs := float64(executeNs+policyNs+oracleNs+stepNs+ct.foldNs) / 1e3 / float64(runs)
	out.add("sim.digest_share", digestUs/runUs, "share")
	out.add("sim.events_per_run", per(ct.events, runs), "count")
	out.add("sim.undelivered_per_run", per(ct.undelivered, runs), "count")
	out.add("sim.policy_ns_per_call", per(policyNs, ct.policyCalls), "ns")
	out.add("sim.policy_calls_per_run", per(ct.policyCalls, runs), "count")
	out.add("fd.oracle_ns_per_call", per(oracleNs, ct.oracleCalls), "ns")
	out.add("fd.oracle_calls_per_run", per(ct.oracleCalls, runs), "count")
	out.add("consensus.step_ns_per_call", per(stepNs, ct.stepCalls), "ns")
	out.add("harness.fold_us_per_run", median(ct.foldLessDigestNs)/1e3, "us")
	out.add("harness.merge_us", float64(ct.mergeNs)/1e3, "us")
	out.add("harness.alloc_bytes_per_run", per(int64(m1.TotalAlloc-m0.TotalAlloc), st.Runs), "bytes")
	out.add("trace.sim_overhead_us_per_run",
		ct.wall.Seconds()*1e6/float64(runs)-plainUs, "us")
	rep.Details["campaign_digest"] = st.Digest
	rep.Details["traced_campaign_digest"] = ct.digest
	rep.Details["runs_per_campaign"] = seeds.Count()
	return nil
}

// codecCost is the per-frame cost of the gossip frame codec.
type codecCost struct {
	encodeNs, decodeNs float64
}

// Iteration counts of the microbenchmarks, each split into
// microBatches batches whose median is reported.
const (
	microBatches  = 5
	clockIters    = 500000
	codecIters    = 20000
	sendIters     = 5000
	decideIters   = 200000
	suspectIters  = 1000000
	updateIters   = 200000
	counterOffset = 100 // counters of a few-second run: two-byte uvarints
)

// nsPerOp runs fn iters times in microBatches batches and returns the
// median nanoseconds per call.
func nsPerOp(iters int, fn func(i int) error) (float64, error) {
	batch := iters / microBatches
	samples := make([]float64, 0, microBatches)
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(b*batch + i); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return median(samples), nil
}

// microProbes times the live layers that run per frame or per sample,
// on inputs of the live spec's size: the gossip frame codec, a loopback
// TCP send, the fault hook, the estimator and the membership feed.
func microProbes(ls loadedSpec, seed int64, out *outcome) (codecCost, error) {
	var cost codecCost
	n := ls.spec.N
	plan, err := ls.spec.CompilePlan()
	if err != nil {
		return cost, err
	}
	pb := heartbeat.Piggyback{Origin: 1, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	var killed []int
	for id := range plan.Kills {
		killed = append(killed, id)
		pb.Suspects[id-1] = true
	}
	for i := range pb.Counters {
		pb.Counters[i] = uint64(counterOffset + i)
	}

	// Encode: Piggyback.Encode, Envelope.Marshal, transport.WriteJSON,
	// as a gossip round and the TCP transport do per frame.
	var buf bytes.Buffer
	encode := func(int) error {
		data, err := pb.Encode()
		if err != nil {
			return err
		}
		env := transport.Envelope{From: 1, To: 2, Type: heartbeat.GossipEnvelopeType}
		if err := env.Marshal(data); err != nil {
			return err
		}
		buf.Reset()
		return transport.WriteJSON(&buf, env)
	}
	if err := encode(0); err != nil {
		return cost, err
	}
	frame := append([]byte(nil), buf.Bytes()...)
	out.add("transport.bytes_per_frame", float64(len(frame)), "bytes")
	if cost.encodeNs, err = nsPerOp(codecIters, encode); err != nil {
		return cost, err
	}

	// Decode: transport.ReadJSON, Envelope.Unmarshal, DecodePiggyback.
	decode := func(int) error {
		var env transport.Envelope
		if err := transport.ReadJSON(bytes.NewReader(frame), &env); err != nil {
			return err
		}
		var data []byte
		if err := env.Unmarshal(&data); err != nil {
			return err
		}
		got, err := heartbeat.DecodePiggyback(data)
		if err == nil && got.Counters[n-1] != pb.Counters[n-1] {
			err = fmt.Errorf("piggyback round trip lost a counter")
		}
		return err
	}
	if cost.decodeNs, err = nsPerOp(codecIters, decode); err != nil {
		return cost, err
	}
	out.add("heartbeat.encode_ns_per_frame", cost.encodeNs, "ns")
	out.add("heartbeat.decode_ns_per_frame", cost.decodeNs, "ns")

	sendUs, err := loopbackSend(frame)
	if err != nil {
		return cost, err
	}
	out.add("transport.send_us_per_frame", sendUs, "us")

	hook := transport.NewFaultHook(1, uint64(seed)+1)
	hook.SetDrop(5)
	hook.SetDelayMax(10)
	decideNs, err := nsPerOp(decideIters, func(i int) error {
		hook.Decide(model.ProcessID(2 + i%11))
		return nil
	})
	if err != nil {
		return cost, err
	}
	out.add("transport.faulthook_ns_per_decide", decideNs, "ns")

	interval := time.Duration(ls.spec.Live.IntervalMs) * time.Millisecond
	est := cluster.EstimatorFactory(ls.spec.Live.Estimator, interval)()
	epoch := time.Now()
	if es, ok := est.(heartbeat.EpochSetter); ok {
		es.SetEpoch(epoch)
	}
	est.Observe(epoch)
	suspectNs, err := nsPerOp(suspectIters, func(i int) error {
		est.Suspect(epoch.Add(time.Duration(i) * time.Microsecond))
		return nil
	})
	if err != nil {
		return cost, err
	}
	out.add("heartbeat.estimator_ns_per_suspect", suspectNs, "ns")

	feed, err := membership.NewFeed(1, n)
	if err != nil {
		return cost, err
	}
	updateNs, err := nsPerOp(updateIters, func(int) error {
		feed.Update(killed)
		return nil
	})
	if err != nil {
		return cost, err
	}
	out.add("membership.update_ns", updateNs, "ns")
	return cost, nil
}

// loopbackSend times TCPNode.Send of one gossip frame's envelope between
// two nodes of a smallest localhost cluster while a receiver drains the
// other end.
func loopbackSend(frame []byte) (float64, error) {
	var env transport.Envelope
	if err := transport.ReadJSON(bytes.NewReader(frame), &env); err != nil {
		return 0, err
	}
	nodes, err := transport.NewTCPCluster(4) // the model requires n > 3
	if err != nil {
		return 0, err
	}
	received := make(chan int, 1)
	go func() {
		c := 0
		for range nodes[1].Recv() {
			c++
		}
		received <- c
	}()
	us, err := nsPerOp(sendIters, func(int) error { return nodes[0].Send(env) })
	transport.CloseTCPCluster(nodes)
	got := <-received
	if err == nil && got == 0 {
		err = fmt.Errorf("loopback send: nothing received")
	}
	return us / 1e3, err
}

// liveProbe measures the cluster layers on a traced run of the live spec,
// which collects every node's fault-hook tallies. An untraced run before
// and after it gives the tracing overhead, free of which run went first.
func liveProbe(ls loadedSpec, seed int64, codec codecCost, out *outcome, rep *report, stderr io.Writer) error {
	var runs [3]liveRun
	var cpu [3]float64
	for i, traced := range []bool{false, true, false} {
		lr, err := runCluster(ls, seed, traced)
		if err != nil {
			out.Attempted++
			out.Failed++
			out.fail(stderr, "%s: %v", ls.spec.Name, err)
			return nil
		}
		att, fail, _, problems := liveCheck(ls, lr.res)
		out.Attempted += att
		out.Failed += fail
		for _, p := range problems {
			out.fail(stderr, "%s: %s", ls.spec.Name, p)
		}
		if cpu[i], err = lr.cpuPerNodeRound(ls); err != nil {
			return err
		}
		runs[i] = lr
	}
	lr := runs[1]
	res := lr.res
	var rounds, frames, drops, flips, views int64
	var nodeSec float64
	foldStart := time.Now()
	period := time.Duration(res.SamplePeriodMs) * time.Millisecond
	for _, nr := range res.NodeReports {
		rounds += int64(nr.Rounds)
		views += int64(nr.ViewID)
		for _, fs := range nr.FaultStats {
			frames += int64(fs.Frames)
			drops += int64(fs.Drops)
		}
		start, end := time.Unix(0, nr.StartUnixNano), time.Unix(0, nr.EndUnixNano)
		nodeSec += end.Sub(start).Seconds()
		for _, fl := range nr.Flips {
			flips += int64(len(fl))
			qos.FoldFlips(start, end, time.Time{}, fl, period)
		}
	}
	foldMs := float64(time.Since(foldStart)) / float64(time.Millisecond)
	if len(res.NodeReports) == 0 {
		out.fail(stderr, "%s: traced run returned no node reports", ls.spec.Name)
		return nil
	}
	spawn, ok1 := lr.log.first(spawnLine)
	lastAction, ok2 := lr.log.last(actionLine)
	if !ok1 || !ok2 {
		return fmt.Errorf("%s: orchestrator log lacks the spawn or plan lines", ls.spec.Name)
	}
	settle := time.Duration(ls.spec.Live.SettleMs) * time.Millisecond
	nominal, err := lr.nodeRounds(ls)
	if err != nil {
		return err
	}
	out.add("cluster.assemble_ms", float64(lr.up.at.Sub(spawn.at))/float64(time.Millisecond), "ms")
	out.add("cluster.collect_ms", float64(lr.coll.at.Sub(lastAction.at)-settle)/float64(time.Millisecond), "ms")
	out.add("heartbeat.rounds", float64(rounds), "count")
	out.add("heartbeat.node_rounds_nominal", nominal, "count")
	out.add("transport.frames_sent", float64(frames), "count")
	out.add("transport.frames_dropped", float64(drops), "count")
	window := float64(lr.coll.cpu - lr.up.cpu)
	out.add("heartbeat.codec_cpu_share", (codec.encodeNs+codec.decodeNs)*float64(frames)/window, "share")
	out.add("heartbeat.flips_per_node_s", float64(flips)/nodeSec, "1/s")
	out.add("membership.view_changes", float64(views), "count")
	out.add("qos.fold_ms", foldMs, "ms")
	out.add("trace.live_overhead_us_per_node_round", cpu[1]-(cpu[0]+cpu[2])/2, "us")
	rep.Details["live_cpu_us_per_node_round"] = cpu
	return nil
}
