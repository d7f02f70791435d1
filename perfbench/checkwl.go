package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/workloads/bugs"
)

// The check-btree case set: short mapcli command cases on btree, each
// judged by all four judges. Every fourth case enables real Bug 2 (a
// crash-consistency bug) and every fourth the performance Bug 12; the
// rest are clean. The set is large enough that a run's figures do not
// hang on a few cases' luck.
const (
	checkWorkload = "btree"
	checkCases    = 150
	checkCommands = 4
	checkKeys     = 16
)

// checkCase is one generated test case and the bug enabled for it
// (0 for none).
type checkCase struct {
	input []byte
	bug   bugs.RealBug
}

// genCases builds the case set from seed. Every case opens with an
// insert, so each one reaches the leaf-insert path Bug 12 lives on.
func genCases(seed int64) []checkCase {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]checkCase, checkCases)
	for i := range cases {
		var b bytes.Buffer
		fmt.Fprintf(&b, "i %d %d\n", rng.Intn(checkKeys), rng.Intn(1000))
		for c := 1; c < checkCommands; c++ {
			k := rng.Intn(checkKeys)
			switch rng.Intn(4) {
			case 0, 1:
				fmt.Fprintf(&b, "i %d %d\n", k, rng.Intn(1000))
			case 2:
				fmt.Fprintf(&b, "r %d\n", k)
			default:
				fmt.Fprintf(&b, "g %d\n", k)
			}
		}
		cases[i].input = b.Bytes()
		switch i % 4 {
		case 2:
			cases[i].bug = bugs.Bug2BTreeCreateNotRetried
		case 3:
			cases[i].bug = bugs.Bug12BTreeRedundantAddInsert
		}
	}
	return cases
}

// testCase is c as the judges receive it.
func (c checkCase) testCase(seed int64) executor.TestCase {
	tc := executor.TestCase{Workload: checkWorkload, Input: c.input, Seed: seed}
	if c.bug != 0 {
		tc.Bugs = bugs.NewSet().EnableReal(c.bug)
	}
	return tc
}

// expectFlag is the registry's verdict for one judge: a performance bug
// is Pmemcheck's to find, a crash-consistency bug the three crash
// judges', and a clean case nobody's.
func expectFlag(bug bugs.RealBug, judge string) bool {
	if bug == 0 {
		return false
	}
	if bug.IsPerformance() {
		return judge == "pmcheck"
	}
	return judge != "pmcheck"
}

// mismatches lists how v departs from the registry's verdicts for bug.
func mismatches(bug bugs.RealBug, v verdict) []string {
	out := append([]string(nil), v.skipped...)
	for _, j := range []struct {
		name     string
		findings int
	}{{"oracle", v.oracle}, {"invariant", v.invariant}, {"xfd", v.xfd}, {"pmcheck", v.pmcheck}} {
		if want := expectFlag(bug, j.name); want != (j.findings > 0) {
			out = append(out, fmt.Sprintf("%s: %d findings, want flagged=%v", j.name, j.findings, want))
		}
	}
	return out
}

// casePaths counts the distinct PM paths of the case set's clean
// executions. It runs every case once whatever the run judged, so the
// count is a function of the seed alone.
func casePaths(cases []checkCase, seed int64) int {
	arena := executor.NewArena()
	paths := map[uint64]bool{}
	for _, c := range cases {
		res := executor.Run(c.testCase(seed), executor.Options{Arena: arena})
		if res.Tracer.PMOps() > 0 {
			paths[instr.Signature(res.Tracer.PMMap())] = true
		}
		arena.Recycle(res)
		arena.RecycleImage(res.Image)
	}
	return len(paths)
}

// runCheck measures check-btree, or with rec non-nil runs its traced
// per-layer run.
func runCheck(r *report, rec *recorder, seed int64, dur time.Duration) error {
	var setups []float64
	var cases []checkCase
	var j *judges
	for i := 0; i < setupReps; i++ {
		c0 := cpuNow()
		cases = genCases(seed)
		j = newJudges()
		setups = append(setups, (cpuNow() - c0).Seconds())
	}

	// An untraced run judges the cases in order, round-robin, until dur
	// is up. A traced run judges each case twice, untraced and traced in
	// alternating order, for about 75% of dur; the replay takes the rest.
	var verdicts []verdict
	var caseMS, plainMS, tracedMS, peaks []float64
	var roots []int
	var simNS int64
	execs := 0
	hp := startHeapPeak()
	m0 := readMem()
	start, cpuStart := time.Now(), cpuNow()
	judgeOne := func(i int, c checkCase, traceIt bool) {
		group := fmt.Sprintf("case-%d", i)
		var crec *recorder
		id := -1
		if traceIt {
			crec = rec
			id = rec.begin("case", group, -1)
		}
		hp.Take()
		c0 := cpuNow()
		v := j.judge(c.testCase(seed), 0, crec, group, id)
		d := ms(cpuNow() - c0)
		rec.end(id)
		peaks = append(peaks, hp.Take())
		if traceIt {
			roots = append(roots, id)
			tracedMS = append(tracedMS, d)
		} else {
			plainMS = append(plainMS, d)
		}
		caseMS = append(caseMS, d)
		verdicts = append(verdicts, v)
		simNS += v.simNS
		execs += v.execs
		r.res.Attempted++
		if m := mismatches(c.bug, v); len(m) > 0 {
			r.res.Failed++
			r.problem("case %d (bug %d): %v", i%len(cases), c.bug, m)
		}
	}
	if rec == nil {
		for i := 0; i < 1 || time.Since(start) < dur; i++ {
			judgeOne(i, cases[i%len(cases)], false)
		}
	} else {
		for i := 0; i < 2 || time.Since(start) < dur*tracedShare/100; i++ {
			for _, traceIt := range []bool{i%2 == 1, i%2 == 0} {
				judgeOne(i, cases[i%len(cases)], traceIt)
			}
		}
	}
	cpu := (cpuNow() - cpuStart).Seconds()
	mem := memSince(m0)
	hp.Stop()

	r.note("check-btree: %d cases of %d commands (clean, Bug 2, Bug 12), seed %d", len(cases), checkCommands, seed)
	if rec == nil {
		r.set("setup_s", median(setups))
		r.set("sim_ms_per_s", float64(simNS)/1e6/cpu)
		r.set("execs_per_s", float64(execs)/cpu)
		r.set("pm_paths", float64(casePaths(cases, seed)))
		r.set("cases_per_s", float64(len(caseMS))/cpu)
		r.set("case_ms_p50", median(caseMS))
		tv, pct, ok := tail(caseMS)
		r.set("case_ms_tail", tv)
		r.set("heap_peak_mb", median(peaks))
		r.set("ok_ratio", 1-ratio(float64(r.res.Failed), float64(r.res.Attempted)))
		r.note("case_ms_tail is p%.2f of %d judged cases (%s)", pct, len(caseMS), tailNote(ok))
		return nil
	}

	// Traced run.
	if err := rec.checkAccount(roots); err != nil {
		r.problem("case wall not accounted for by judge self times: %v", err)
	}
	self := rec.selfByName(roots)
	var total int64
	for _, id := range roots {
		total += rec.dur(id)
	}
	r.set("trace.overhead_ratio", median(tracedMS)/median(plainMS))
	r.set("core.unattributed_share", ratio(float64(self["case"]), float64(total)))
	setJudgeMetrics(r, verdicts)
	r.set("core.alloc_kb_per_exec", float64(mem.AllocBytes)/1024/float64(execs))
	r.set("core.gc_cycles", float64(mem.GCs)*float64(len(cases))/float64(len(caseMS)))

	// No fuzzing session runs here, so the obs stages are those of the
	// replay's own calls, and the runtime counters those of the judged
	// passes.
	sh := &obs.Shard{}
	plan := replayPlan{workload: checkWorkload, seed: seed, sweeps: len(cases), shard: sh}
	for _, c := range cases {
		plan.items = append(plan.items, replayItem{input: c.input})
	}
	out, replayRoot, err := replay(rec, "replay", plan)
	if err != nil {
		return err
	}
	if err := rec.checkAccount([]int{replayRoot}); err != nil {
		r.problem("replay wall not accounted for by call self times: %v", err)
	}
	setReplayMetrics(r, out)
	r.set("imgstore.cache_hit_ratio", 0)
	stages := []struct {
		name string
		st   obs.Stage
	}{{"mutate", obs.StageMutate}, {"exec", obs.StageExec}, {"sweep", obs.StageSweep},
		{"imgstore_put", obs.StagePut}, {"imgstore_get", obs.StageGet}}
	for _, s := range stages {
		r.set("core.stage."+s.name+"_ms", float64(sh.StageNS[s.st])/1e6)
		r.set("core.stage."+s.name+"_ops", float64(sh.StageOps[s.st]))
	}
	r.note("self time over %d traced cases (%.3f s wall):", len(roots), float64(total)/1e9)
	for _, name := range sortedKeys(self) {
		r.note("  %-34s %10.1f ms  %5.1f%%", name, float64(self[name])/1e6, 100*float64(self[name])/float64(total))
	}
	return nil
}
