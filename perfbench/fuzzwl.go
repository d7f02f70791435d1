package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"pmfuzz/internal/core"
	"pmfuzz/internal/obs"
)

// fuzzSpec is a fuzzing workload: one serial session of a Table 2
// configuration on one PM program, at a fixed simulated budget.
type fuzzSpec struct {
	workload string
	config   core.ConfigName
	budgetMS int64
	// stage2 turns on the two-stage pipeline with one stage-2 core.
	stage2 bool
}

var fuzzSpecs = map[string]fuzzSpec{
	// The paper's tool as users run it: crash-image harvest, hashing and
	// the image store dominate, and stage 2 adds image reads and
	// recovery runs.
	"pmfuzz-btree": {workload: "btree", config: core.PMFuzzAll, budgetMS: 200, stage2: true},
	// Image generation off: executions and coverage merge take all the
	// time; harvest, hashing and the store do no work.
	"aflsys-hashmap": {workload: "hashmap-tx", config: core.AFLSysOpt, budgetMS: 1200},
}

// sliceDiv sets the wall-per-simulated-time sampling slice to 1/sliceDiv
// of the budget.
const sliceDiv = 20

// newFuzzer builds a session for seed with one worker.
func (s fuzzSpec) newFuzzer(seed int64) (*core.Fuzzer, error) {
	cfg, err := core.DefaultConfig(s.workload, s.config, s.budgetMS*int64(time.Millisecond), seed)
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	if s.stage2 {
		cfg.Stage2Workers = 1
	}
	return core.New(cfg, nil)
}

// session is one fuzz session's outcome.
type session struct {
	res    *core.Result
	wall   time.Duration
	cpu    time.Duration
	digest string
	// sliceMSPerMS samples the stage-1 loop's CPU ms per simulated ms,
	// one sample per slice of at least 1/sliceDiv of the budget.
	// stage1SimMS and stage1CPU total the slices.
	sliceMSPerMS []float64
	stage1SimMS  float64
	stage1CPU    time.Duration
	peakMB       float64
	// Traced sessions only: runtime allocation counters, the engine's
	// obs snapshot and the session's root span.
	mem  memDelta
	snap obs.Snapshot
	span int
}

// runSession runs one session. A traced session attaches the engine's
// telemetry, reads the runtime's allocation counters around the run and
// records the run as a root span.
func runSession(spec fuzzSpec, seed int64, rec *recorder, group string) (*session, error) {
	f, err := spec.newFuzzer(seed)
	if err != nil {
		return nil, err
	}
	var tele *obs.Session
	if rec != nil {
		tele, err = obs.NewSession(obs.Config{Workload: spec.workload, FuzzConfig: string(spec.config),
			Workers: 1, Seed: seed, BudgetNS: spec.budgetMS * int64(time.Millisecond)})
		if err != nil {
			return nil, err
		}
		f.SetTelemetry(tele)
	}
	s := &session{}
	// The sync hook runs between parent selections and changes nothing
	// in the session; it only stamps CPU time against simulated time.
	slice := spec.budgetMS * int64(time.Millisecond) / sliceDiv
	var lastCPU time.Duration = -1
	var lastSim int64
	f.SetSyncHook(func() {
		now, sim := cpuNow(), f.SimNow()
		if lastCPU < 0 || sim-lastSim >= slice {
			if lastCPU >= 0 {
				simMS := float64(sim-lastSim) / 1e6
				s.sliceMSPerMS = append(s.sliceMSPerMS, ms(now-lastCPU)/simMS)
				s.stage1SimMS += simMS
				s.stage1CPU += now - lastCPU
			}
			lastCPU, lastSim = now, sim
		}
	})
	hp := startHeapPeak()
	m0 := readMem()
	s.span = rec.begin("core.Run", group, -1)
	t0, c0 := time.Now(), cpuNow()
	s.res = f.Run()
	s.wall, s.cpu = time.Since(t0), cpuNow()-c0
	rec.end(s.span)
	s.mem = memSince(m0)
	s.peakMB = hp.Stop()
	if tele != nil {
		s.snap = tele.M.Snapshot()
		if err := tele.Close(); err != nil {
			return nil, err
		}
	}
	s.digest = digest(s.res)
	return s, nil
}

// digest fingerprints what a session produced: executions, PM paths,
// queue length and the sorted stored-image IDs. A session is a pure
// function of its seed, so the digest must repeat exactly.
func digest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "execs=%d pm_paths=%d queue=%d\n", res.Execs, res.PMPaths, res.Queue.Len())
	for _, id := range res.Store.IDs() {
		h.Write(id[:])
	}
	return fmt.Sprintf("execs=%d pm_paths=%d queue=%d images=%d sha=%s", res.Execs, res.PMPaths,
		res.Queue.Len(), res.Store.Len(), hex.EncodeToString(h.Sum(nil))[:16])
}

// sessionSeeds derives the session seeds of one run from the workload
// seed. A run covers several trajectories, so its medians do not hang on
// one seed's luck.
func sessionSeeds(seed int64) []int64 {
	out := make([]int64, fuzzSessionSeeds)
	for k := range out {
		out[k] = seed*1000 + int64(k)
	}
	return out
}

// fuzzSessionSeeds is how many distinct session seeds one run covers.
const fuzzSessionSeeds = 9

// medianPaths is the median PM-path count over sessions of distinct
// seeds; each count is deterministic, so the median is too.
func medianPaths(sessions []*session) float64 {
	var xs []float64
	for _, s := range sessions {
		xs = append(xs, float64(s.res.PMPaths))
	}
	return median(xs)
}

func noteSpec(r *report, spec fuzzSpec, seeds []int64) {
	r.note("config %s on %s, session seeds %v, %d ms simulated budget, stage 2 %v, 1 worker",
		spec.config, spec.workload, seeds, spec.budgetMS, spec.stage2)
}

// runFuzz measures a fuzzing workload: sessions over the derived
// session seeds for dur, or with rec non-nil the traced per-layer run.
func runFuzz(r *report, rec *recorder, spec fuzzSpec, seed int64, dur time.Duration) error {
	seeds := sessionSeeds(seed)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c0 := cpuNow()
		if _, err := spec.newFuzzer(seeds[0]); err != nil {
			return err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	if rec != nil {
		return runFuzzTraced(r, rec, spec, seeds, dur)
	}
	r.set("setup_s", median(setups))

	var sessions []*session
	start := time.Now()
	var walls []float64
	// Every session seed once, then round-robin repeats while another
	// session fits in dur.
	for i := 0; i <= len(seeds) || time.Since(start).Seconds()+median(walls) <= dur.Seconds(); i++ {
		s, err := runSession(spec, seeds[i%len(seeds)], nil, "")
		if err != nil {
			return err
		}
		s.res.Queue, s.res.Store = nil, nil // drop the corpus before the next session
		sessions = append(sessions, s)
		walls = append(walls, s.wall.Seconds())
	}

	var simRate, execRate, caseRate, peaks, slices []float64
	for _, s := range sessions {
		c := s.cpu.Seconds()
		simRate = append(simRate, float64(s.res.SimNS)/1e6/c)
		caseRate = append(caseRate, s.stage1SimMS/s.stage1CPU.Seconds())
		execRate = append(execRate, float64(s.res.Execs)/c)
		peaks = append(peaks, s.peakMB)
		slices = append(slices, s.sliceMSPerMS...)
	}
	checkSessions(r, sessions)
	r.set("sim_ms_per_s", median(simRate))
	r.set("execs_per_s", median(execRate))
	r.set("pm_paths", medianPaths(sessions[:len(seeds)]))
	// A fuzz workload's case is one simulated millisecond of the stage-1
	// loop.
	r.set("cases_per_s", median(caseRate))
	r.set("case_ms_p50", median(slices))
	tv, pct, ok := tail(slices)
	r.set("case_ms_tail", tv)
	r.set("heap_peak_mb", median(peaks))
	r.set("ok_ratio", 1-ratio(float64(r.res.Failed), float64(r.res.Attempted)))
	noteSpec(r, spec, seeds)
	for _, s := range sessions {
		r.note("session seed %d: %.3f s wall, %.3f s CPU", s.res.Config.Seed, s.wall.Seconds(), s.cpu.Seconds())
	}
	r.note("case_ms_tail is p%.2f of %d slices of >= %d simulated ms (%s)", pct, len(slices), spec.budgetMS/sliceDiv, tailNote(ok))
	return nil
}

func tailNote(ok bool) string {
	if ok {
		return "10 samples beyond it"
	}
	return "fewer than 110 samples: the maximum"
}

// checkSessions applies the fuzz output checks: no faults or hangs, and
// one determinism digest per session seed. Every execution is an
// attempted operation; a fault counts one failure, a session whose
// digest differs from its seed's first fails all its executions.
func checkSessions(r *report, sessions []*session) {
	first := map[int64]string{}
	for i, s := range sessions {
		r.res.Attempted += s.res.Execs
		if n := len(s.res.Faults); n > 0 {
			r.res.Failed += n
			r.problem("session %d: %d faults or hangs on a bug-free program, first: %s", i, n, s.res.Faults[0].Msg)
		}
		seed := s.res.Config.Seed
		if d, ok := first[seed]; !ok {
			first[seed] = s.digest
			r.note("seed %d digest %s", seed, s.digest)
		} else if s.digest != d {
			r.res.Failed += s.res.Execs
			r.problem("session %d: seed %d digest %s differs from its first run's %s", i, seed, s.digest, d)
		}
	}
}

// Replay sizes for the traced run.
const (
	maxReplayItems = 200
	replaySweeps   = 30
	replayJudged   = 2
)

// runFuzzTraced is the traced per-layer run: untraced and traced
// sessions of the same seeds alternate, so the tracing overhead and the
// read-only telemetry contract are measured like for like, and the last
// traced session's corpus is then replayed layer by layer.
func runFuzzTraced(r *report, rec *recorder, spec fuzzSpec, seeds []int64, dur time.Duration) error {
	start := time.Now()
	var plain, traced []*session
	var walls []float64
	// Pairs of an untraced and a traced session of one seed, in
	// alternating order, take at most about 75% of dur; the replay takes
	// the rest.
	for k := 0; k < 2 || time.Since(start).Seconds()+2*median(walls) <= tracedShare*dur.Seconds()/100; k++ {
		sd := seeds[k%len(seeds)]
		var u, t *session
		var err error
		for _, traceIt := range []bool{k%2 == 1, k%2 == 0} {
			if traceIt {
				t, err = runSession(spec, sd, rec, fmt.Sprintf("session-%d", k))
			} else {
				u, err = runSession(spec, sd, nil, "")
			}
			if err != nil {
				return err
			}
		}
		u.res.Queue, u.res.Store = nil, nil
		if n := len(traced); n > 0 {
			traced[n-1].res.Queue, traced[n-1].res.Store = nil, nil
		}
		plain, traced = append(plain, u), append(traced, t)
		walls = append(walls, u.wall.Seconds(), t.wall.Seconds())
	}
	// One digest across untraced and traced sessions: telemetry is
	// read-only.
	checkSessions(r, append(append([]*session(nil), plain...), traced...))

	var plainWall, tracedWall, unattr, allocKB, gcs []float64
	stageMS := map[string][]float64{}
	stageOps := map[string][]float64{}
	var roots []int
	for _, s := range plain {
		plainWall = append(plainWall, s.wall.Seconds())
	}
	for _, s := range traced {
		tracedWall = append(tracedWall, s.wall.Seconds())
		var names []string
		var durs []int64
		var attributed int64
		for _, st := range s.snap.Stages {
			stageMS[st.Name] = append(stageMS[st.Name], float64(st.NS)/1e6)
			stageOps[st.Name] = append(stageOps[st.Name], float64(st.Ops))
			names, durs = append(names, "core.stage."+st.Name), append(durs, st.NS)
			attributed += st.NS
		}
		// The engine's stage totals become aggregate child spans of the
		// session span; its self time is the unattributed remainder.
		rec.addAgg(s.span, names, durs)
		roots = append(roots, s.span)
		unattr = append(unattr, 1-float64(attributed)/float64(s.wall.Nanoseconds()))
		allocKB = append(allocKB, float64(s.mem.AllocBytes)/1024/float64(s.res.Execs))
		gcs = append(gcs, float64(s.mem.GCs))
	}
	if err := rec.checkAccount(roots); err != nil {
		r.problem("session wall not accounted for by layer self times: %v", err)
	}
	for _, st := range []string{"mutate", "exec", "sweep", "imgstore_put", "imgstore_get"} {
		r.set("core.stage."+st+"_ms", median(stageMS[st]))
		r.set("core.stage."+st+"_ops", median(stageOps[st]))
	}
	r.set("core.unattributed_share", median(unattr))
	r.set("core.alloc_kb_per_exec", median(allocKB))
	r.set("core.gc_cycles", median(gcs))
	r.set("trace.overhead_ratio", median(tracedWall)/median(plainWall))

	last := traced[len(traced)-1]
	st := last.res.Store.Stats()
	r.set("imgstore.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	plan := replayPlan{workload: spec.workload, seed: last.res.Config.Seed, maxCommands: last.res.Config.MaxCommands,
		sweeps: replaySweeps, judged: replayJudged}
	ents := last.res.Queue.Entries()
	stride := max(1, (len(ents)+maxReplayItems-1)/maxReplayItems)
	for i := 0; i < len(ents); i += stride {
		it := replayItem{input: ents[i].Input}
		if ents[i].HasImage {
			img, err := last.res.Store.Get(ents[i].ImageID, nil)
			if err != nil {
				return fmt.Errorf("replay: corpus image: %w", err)
			}
			it.image = img
		}
		plan.items = append(plan.items, it)
	}
	out, replayRoot, err := replay(rec, "replay", plan)
	if err != nil {
		return err
	}
	if err := rec.checkAccount([]int{replayRoot}); err != nil {
		r.problem("replay wall not accounted for by call self times: %v", err)
	}
	setReplayMetrics(r, out)
	setJudgeMetrics(r, out.verdicts)

	self := rec.selfByName(roots)
	var wall int64
	for _, id := range roots {
		wall += rec.dur(id)
	}
	noteSpec(r, spec, seeds)
	r.note("sessions: %d untraced, %d traced, paired by seed", len(plain), len(traced))
	r.note("self time over %d traced sessions (%.3f s wall):", len(traced), float64(wall)/1e9)
	for _, name := range sortedKeys(self) {
		label := name
		if name == "core.Run" {
			label = "unattributed (core.Run self)"
		}
		r.note("  %-34s %10.1f ms  %5.1f%%", label, float64(self[name])/1e6, 100*float64(self[name])/float64(wall))
	}
	r.note("replay: %d corpus entries, %d sweeps, %d images, %d judged", len(plan.items), len(out.sweepMS), len(out.hashUS), len(out.verdicts))
	// Per-call replay cost times the session's call counts estimates
	// the layers the obs stages do not separate.
	perSession := func(stage string, perCallUS []float64) float64 {
		return median(stageOps[stage]) * median(perCallUS) / 1e3
	}
	wallMS := 1e3 * median(tracedWall)
	r.note("estimated per session of %.1f ms: instr merge %.1f ms (exec_ops x merge, in the unattributed remainder), "+
		"pmem hash %.1f ms (imgstore_put_ops x hash, within imgstore_put), fuzz havoc %.1f ms (mutate_ops x havoc)",
		wallMS, perSession("exec", out.mergeUS), perSession("imgstore_put", out.hashUS), perSession("mutate", out.havocUS))
	return nil
}
