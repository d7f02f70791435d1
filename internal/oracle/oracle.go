package oracle

import (
	"fmt"
	"strings"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// Options tunes one oracle check.
type Options struct {
	// MaxBarriers caps how many barrier crash points are validated
	// (0 = every ordering point of the execution).
	MaxBarriers int
	// PreFence also validates the pre-fence (flushed-but-unfenced) crash
	// window before each barrier.
	PreFence bool
	// MaxViolations stops the scan after this many violations
	// (0 = collect all).
	MaxViolations int
	// Minimize shrinks each violation into a delta-debugged repro bundle.
	Minimize bool
	// MaxCommands / MaxOps mirror the executor options used for the
	// sweep and the recovery replays (0 = executor defaults).
	MaxCommands int
	MaxOps      int
	// NoPrune disables representative-state pruning: every crash point is
	// recovered and judged individually (the pre-equivalence-class
	// behavior). The zero value — pruning ON — groups crash points into
	// equivalence classes by (command prefix, commit-variable content)
	// fingerprint, judges one representative per class, and attributes the
	// verdict to all members; any representative violation triggers a full
	// per-member pass, so the reported violation set is identical to an
	// unpruned scan whenever pruning finds anything at all.
	NoPrune bool
}

// Violation is one crash image the oracle could not explain.
type Violation struct {
	Workload string
	// Barrier is the ordering-point index of the injected failure; with
	// PreFence set the crash fired in the flushed-but-unfenced window
	// just before that barrier.
	Barrier  int
	PreFence bool
	// Op is the PM-operation index of the failure.
	Op int
	// Commands is how many command lines had started when the failure
	// fired; command Commands-1 is the in-flight one.
	Commands int
	// Kind is "recovery-fault" (recovery panicked — the segfault analog),
	// "recovery-error" (recovery or the workload's own consistency check
	// reported an error), or "state-mismatch" (recovered state equals no
	// explainable prefix state).
	Kind   string
	Detail string
	// For state-mismatch: the two explainable states (in-flight command
	// absent / applied) and what recovery actually produced.
	Expected     []workloads.KV
	ExpectedNext []workloads.KV
	Actual       []workloads.KV
}

// String renders the violation for reports.
func (v *Violation) String() string {
	at := fmt.Sprintf("barrier %d", v.Barrier)
	if v.PreFence {
		at = fmt.Sprintf("pre-fence op %d", v.Op)
	}
	return fmt.Sprintf("[oracle] %s: crash at %s (op %d, %d commands started): %s: %s",
		v.Workload, at, v.Op, v.Commands, v.Kind, v.Detail)
}

// Report is the outcome of checking one test case.
type Report struct {
	Workload string
	// Barriers is the ordering-point count of the clean execution.
	Barriers int
	// Checked counts crash images validated.
	Checked int
	// Skipped is non-empty when the oracle could not judge the test case
	// (unknown workload, faulting clean run, unrecoverable start image).
	Skipped    string
	Violations []*Violation
	// Bundles holds one minimized repro per violation when
	// Options.Minimize was set.
	Bundles []*Bundle
	// Classes / ClassHits count the equivalence classes and the
	// duplicate-class crash points seen by the representative pass (both
	// zero with Options.NoPrune).
	Classes   int
	ClassHits int
	// Recoveries counts recovery executions actually run (the baseline
	// included); MemoHits counts crash points answered from the per-scan
	// recovery memo instead — identical images never recover twice.
	Recoveries int
	MemoHits   int
}

// Checker runs differential crash-consistency checks. It owns two
// executor arenas — one for journaled sweep executions, one for recovery
// replays — so repeated checks stay off the allocation hot path (the
// sweep's copy-on-write journal snapshots its base image, which is what
// makes interleaving recovery replays with crash-image materialization
// on resident devices safe). Not safe for concurrent use.
type Checker struct {
	sweepArena *executor.Arena
	recArena   *executor.Arena
	// shard, when attached, times representative checks under the
	// rep_check stage (nil-safe; the oracle stays off the simulated
	// clock either way).
	shard *obs.Shard
}

// NewChecker returns a reusable checker.
func NewChecker() *Checker {
	return &Checker{sweepArena: executor.NewArena(), recArena: executor.NewArena()}
}

// SetShard attaches a metrics shard for rep_check stage timing (nil
// detaches). Safe on a nil Checker so callers with the oracle disabled
// never guard.
func (c *Checker) SetShard(sh *obs.Shard) {
	if c == nil {
		return
	}
	c.shard = sh
}

// Check validates every crash image of tc's barrier sweep with a fresh
// one-shot checker.
func Check(tc executor.TestCase, opts Options) *Report {
	return NewChecker().Check(tc, opts)
}

// Check sweeps tc's ordering points, recovers every crash image, and
// verifies each recovered state is explainable: equal to the shadow
// state at the completed-command prefix, or to that prefix plus the
// whole in-flight command (atomicity + durability). Any injector on tc
// is ignored; the sweep is the failure source.
func (c *Checker) Check(tc executor.TestCase, opts Options) *Report {
	rep := c.scan(tc, opts, opts.MaxBarriers, opts.MaxViolations)
	if opts.Minimize {
		// Neighbouring crash points usually shrink to the same repro;
		// keep one bundle per distinct minimized outcome.
		seen := map[string]bool{}
		for _, v := range rep.Violations {
			b := c.Minimize(tc, v, opts)
			key := fmt.Sprintf("%s|%d|%t|%s", b.Kind, b.Barrier, b.PreFence, b.Input)
			if seen[key] {
				continue
			}
			seen[key] = true
			rep.Bundles = append(rep.Bundles, b)
		}
	}
	return rep
}

// scanState carries one scan's recovery memo and accounting. The memo is
// keyed by image content hash: within a scan the workload, bug flags,
// seed, and op cap are fixed, so identical images recover identically.
type scanState struct {
	memo       map[[32]byte]memoEntry
	recoveries int
	memoHits   int
}

type memoEntry struct {
	dump []workloads.KV
	v    *Violation
}

// scan is the shared sweep-and-judge loop behind Check and the
// minimizer's re-validation probes. maxB caps the barrier range scanned
// ([1..maxB]); maxV stops after that many violations. Violations come
// back in ascending crash-point order, so the first one is the earliest
// explicable-state failure of the scanned window.
//
// With pruning on (the default), the scan fingerprints every crash point
// from the sweep journal, groups points into equivalence classes by
// semantic key, and judges only the first member of each class — the
// representative. A scan whose representatives are all clean attributes
// the clean verdict to every member and never recovers the rest. Any
// representative violation abandons the attribution and re-runs the
// whole window per member (recoveries already performed are answered
// from the memo), reproducing the unpruned scan's violation set, order,
// and early-stop semantics exactly.
func (c *Checker) scan(tc executor.TestCase, opts Options, maxB, maxV int) *Report {
	rep := &Report{Workload: tc.Workload}
	prog, err := workloads.New(tc.Workload)
	if err != nil {
		rep.Skipped = err.Error()
		return rep
	}
	if _, ok := prog.(workloads.StateDumper); !ok {
		rep.Skipped = fmt.Sprintf("oracle: workload %q has no state-dump hook", tc.Workload)
		return rep
	}
	if _, err := CheckLine(tc.Workload); err != nil {
		rep.Skipped = err.Error()
		return rep
	}

	st := &scanState{memo: map[[32]byte]memoEntry{}}

	// Baseline S₀: the recovered state of the start image. If the start
	// image itself doesn't recover cleanly, nothing observed below could
	// be attributed to the command stream. Seeding the memo with the
	// start image's hash lets a sweep crash point that reproduces the
	// start state reuse this recovery.
	var base []workloads.KV
	var bv *Violation
	if tc.Image != nil {
		base, bv = c.recoverDumpMemo(tc, tc.Image, tc.Image.Hash(), opts, st)
	} else {
		base, bv = c.recoverDump(tc, tc.Image, opts)
		st.recoveries++
	}
	if bv != nil {
		rep.Skipped = "baseline recovery of start image not clean: " + bv.Detail
		return rep
	}

	maxCmds := opts.MaxCommands
	if maxCmds <= 0 {
		maxCmds = workloads.MaxCommands
	}
	lines := splitLines(tc.Input)
	prefixes, err := prefixStates(tc.Workload, base, lines, maxCmds)
	if err != nil {
		rep.Skipped = err.Error()
		return rep
	}

	sw := executor.SweepRun(tc, executor.Options{
		Arena:       c.sweepArena,
		MaxCommands: opts.MaxCommands,
		MaxOps:      opts.MaxOps,
	})
	defer c.sweepArena.Recycle(sw.Clean)
	if sw.Clean.Faulted() {
		rep.Skipped = fmt.Sprintf("clean execution faulted: panicked=%v err=%v", sw.Clean.Panicked, sw.Clean.Err)
		return rep
	}
	rep.Barriers = sw.Barriers()
	if maxB <= 0 || maxB > rep.Barriers {
		maxB = rep.Barriers
	}

	if !opts.NoPrune {
		fps := sw.Fingerprints(maxB, opts.PreFence)
		if c.scanReps(tc, sw, fps, prefixes, opts, st, rep) {
			rep.Recoveries, rep.MemoHits = st.recoveries, st.memoHits
			return rep
		}
		// A representative violated: fall back to the full per-member
		// pass below, driven by the same fingerprint sequence (it
		// enumerates exactly the points the unpruned loop would judge, in
		// the same order, and supplies their image hashes for the memo).
		for _, fp := range fps {
			res := c.materialize(sw, fp)
			rep.Checked++
			if v := c.judge(tc, res, fp.Barrier, fp.PreFence, prefixes, opts, st); v != nil {
				rep.Violations = append(rep.Violations, v)
				if maxV > 0 && len(rep.Violations) >= maxV {
					break
				}
			}
		}
		rep.Recoveries, rep.MemoHits = st.recoveries, st.memoHits
		return rep
	}

	for b := 1; b <= maxB; b++ {
		if opts.PreFence {
			// Before Crash(b), so the cursor moves strictly forward.
			if res := sw.PreFenceCrash(b); res != nil {
				rep.Checked++
				if v := c.judge(tc, res, b, true, prefixes, opts, st); v != nil {
					rep.Violations = append(rep.Violations, v)
					if maxV > 0 && len(rep.Violations) >= maxV {
						rep.Recoveries, rep.MemoHits = st.recoveries, st.memoHits
						return rep
					}
				}
			}
		}
		res := sw.Crash(b)
		if res == nil {
			continue
		}
		rep.Checked++
		if v := c.judge(tc, res, b, false, prefixes, opts, st); v != nil {
			rep.Violations = append(rep.Violations, v)
			if maxV > 0 && len(rep.Violations) >= maxV {
				rep.Recoveries, rep.MemoHits = st.recoveries, st.memoHits
				return rep
			}
		}
	}
	rep.Recoveries, rep.MemoHits = st.recoveries, st.memoHits
	return rep
}

// scanReps runs the representative pass: one judged member per semantic
// class, verdict attributed to the whole class. Returns true when every
// representative was clean (the scan is done, Checked covers all
// members); false when one violated and the caller must fall back to
// the full per-member pass.
func (c *Checker) scanReps(tc executor.TestCase, sw *executor.SweepResult, fps []executor.CrashFingerprint, prefixes [][]workloads.KV, opts Options, st *scanState, rep *Report) bool {
	seen := map[uint64]bool{}
	for _, fp := range fps {
		key := fp.SemanticKey()
		if seen[key] {
			rep.ClassHits++
			continue
		}
		seen[key] = true
		rep.Classes++
		res := c.materialize(sw, fp)
		t0 := c.shard.Begin()
		v := c.judge(tc, res, fp.Barrier, fp.PreFence, prefixes, opts, st)
		c.shard.End(obs.StageRepCheck, t0)
		if v != nil {
			return false
		}
	}
	rep.Checked = len(fps)
	return true
}

// materialize resolves a fingerprinted crash point to its Result,
// stamping the image with the journal-derived content hash so the
// recovery memo never rehashes it. The fingerprint enumerates only
// existing points, so the result is never nil.
func (c *Checker) materialize(sw *executor.SweepResult, fp executor.CrashFingerprint) *executor.Result {
	var res *executor.Result
	if fp.PreFence {
		res = sw.PreFenceCrash(fp.Barrier)
	} else {
		res = sw.Crash(fp.Barrier)
	}
	res.Image.SetPrecomputedHash(fp.FP.ImageHash)
	return res
}

// judge recovers one crash image and decides whether the recovered state
// is explainable against the shadow prefixes. st memoizes recoveries by
// image hash (nil = no memoization; the minimizer's probes judge one
// point at a time).
func (c *Checker) judge(tc executor.TestCase, crash *executor.Result, barrier int, preFence bool, prefixes [][]workloads.KV, opts Options, st *scanState) *Violation {
	var dump []workloads.KV
	var rv *Violation
	if st != nil {
		dump, rv = c.recoverDumpMemo(tc, crash.Image, crash.Image.Hash(), opts, st)
	} else {
		dump, rv = c.recoverDump(tc, crash.Image, opts)
	}
	v := &Violation{
		Workload: tc.Workload,
		Barrier:  barrier,
		PreFence: preFence,
		Op:       crash.Crash.Op,
		Commands: crash.Commands,
	}
	if rv != nil {
		v.Kind, v.Detail = rv.Kind, rv.Detail
		return v
	}
	cur := crash.Commands
	if cur > len(prefixes)-1 {
		cur = len(prefixes) - 1
	}
	prev := cur - 1
	if prev < 0 {
		prev = 0
	}
	if kvEqual(dump, prefixes[cur]) || kvEqual(dump, prefixes[prev]) {
		return nil
	}
	v.Kind = "state-mismatch"
	v.Expected, v.ExpectedNext, v.Actual = prefixes[prev], prefixes[cur], dump
	v.Detail = diffString(prefixes[prev], prefixes[cur], dump)
	return v
}

// recoverDumpMemo is recoverDump memoized on the image's content hash
// within one scan: repeated identical images — common across pre-fence
// windows and no-op barriers — never recover twice.
func (c *Checker) recoverDumpMemo(tc executor.TestCase, img *pmem.Image, key [32]byte, opts Options, st *scanState) ([]workloads.KV, *Violation) {
	if e, ok := st.memo[key]; ok {
		st.memoHits++
		return e.dump, e.v
	}
	dump, rv := c.recoverDump(tc, img, opts)
	st.recoveries++
	st.memo[key] = memoEntry{dump: dump, v: rv}
	return dump, rv
}

// recoverDump runs recovery (Setup with no commands) on img under tc's
// bug flags and seed, dumps the recovered durable state, and executes
// the workload's own consistency check. A recovery fault or check error
// comes back as a partially filled Violation (Kind/Detail only).
func (c *Checker) recoverDump(tc executor.TestCase, img *pmem.Image, opts Options) ([]workloads.KV, *Violation) {
	checkLine, _ := CheckLine(tc.Workload)
	var dump []workloads.KV
	probe := func(env *workloads.Env, prog workloads.Program) error {
		dump = prog.(workloads.StateDumper).DumpState(env)
		return prog.Exec(env, checkLine)
	}
	rtc := executor.TestCase{Workload: tc.Workload, Image: img, Bugs: tc.Bugs, Seed: tc.Seed}
	res := executor.Run(rtc, executor.Options{Arena: c.recArena, MaxOps: opts.MaxOps, Probe: probe})
	defer c.recArena.Recycle(res)
	switch {
	case res.Panicked:
		return nil, &Violation{Kind: "recovery-fault", Detail: fmt.Sprint(res.PanicVal)}
	case res.Err != nil:
		return nil, &Violation{Kind: "recovery-error", Detail: res.Err.Error()}
	}
	return dump, nil
}

// diffString renders a compact expected-vs-actual diff for reports.
func diffString(prev, next, actual []workloads.KV) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered state (%d keys) matches neither prefix state (%d keys) nor prefix+in-flight (%d keys)",
		len(actual), len(prev), len(next))
	toMap := func(kvs []workloads.KV) map[uint64]uint64 {
		m := make(map[uint64]uint64, len(kvs))
		for _, kv := range kvs {
			m[kv.Key] = kv.Val
		}
		return m
	}
	am, nm := toMap(actual), toMap(next)
	shown := 0
	for _, kv := range actual {
		if v, ok := nm[kv.Key]; !ok || v != kv.Val {
			if shown < 8 {
				fmt.Fprintf(&b, "; unexpected %d=%d", kv.Key, kv.Val)
			}
			shown++
		}
	}
	for _, kv := range next {
		if _, ok := am[kv.Key]; !ok {
			if shown < 8 {
				fmt.Fprintf(&b, "; missing %d=%d", kv.Key, kv.Val)
			}
			shown++
		}
	}
	if shown > 8 {
		fmt.Fprintf(&b, "; (+%d more)", shown-8)
	}
	return b.String()
}

// enabledBugs enumerates the active bug flags for bundle metadata.
func enabledBugs(set *bugs.Set) (syn []int, real []int) {
	if set == nil {
		return nil, nil
	}
	for id := 1; id <= 64; id++ {
		if set.Syn(id) {
			syn = append(syn, id)
		}
	}
	for b := bugs.RealBug(1); b <= bugs.NumRealBugs; b++ {
		if set.Real(b) {
			real = append(real, int(b))
		}
	}
	return syn, real
}
