package invariant

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
	"pmfuzz/internal/workloads"
)

// Options tunes one invariant check.
type Options struct {
	// MaxBarriers caps how many barrier crash points are judged
	// (0 = every ordering point of the execution).
	MaxBarriers int
	// PreFence also judges the pre-fence (flushed-but-unfenced) crash
	// window before each barrier.
	PreFence bool
	// MaxViolations stops the scan after this many violations
	// (0 = collect all).
	MaxViolations int
	// MaxCommands / MaxOps mirror the executor options used for the
	// sweep, the prefix validations, and the recovery replays.
	MaxCommands int
	MaxOps      int
	// NoPrune disables representative-state pruning of the
	// recovery-based value checks (ordering and atomicity rules are
	// judged per point from the sweep analysis either way — they cost
	// no recovery, so there is nothing to prune).
	NoPrune bool
	// NoSelfValidate fires rules the test case's own clean execution
	// refutes as crash-point violations instead of dropping them. The
	// default (self-validation ON) re-validates the whole set against
	// this very case before judging — refuted rules land in
	// Report.Dropped — which is what guarantees zero false positives
	// on clean sweeps even when the set was mined elsewhere.
	NoSelfValidate bool
}

// Violation is one crash image that broke a mined invariant (or whose
// recovery failed outright).
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
	// fired.
	Commands int
	// Kind is "order-violation", "atomicity-violation",
	// "value-mismatch", "recovery-fault", or "recovery-error".
	Kind string
	// Inv is the violated rule in short form ("" for recovery faults).
	Inv    string
	Detail string
	// Image is a short content-hash prefix of the judged crash image,
	// the image ID cross-oracle disagreement reports cite.
	Image string
}

// String renders the violation for reports.
func (v *Violation) String() string {
	at := fmt.Sprintf("barrier %d", v.Barrier)
	if v.PreFence {
		at = fmt.Sprintf("pre-fence op %d", v.Op)
	}
	return fmt.Sprintf("[invariant] %s: crash at %s (op %d, %d commands started): %s: %s",
		v.Workload, at, v.Op, v.Commands, v.Kind, v.Detail)
}

// Report is the outcome of checking one test case against a set.
type Report struct {
	Workload string
	// Barriers is the ordering-point count of the clean execution.
	Barriers int
	// Checked counts crash points judged (ordering rules always, value
	// rules via recovery).
	Checked int
	// Skipped is non-empty when the case could not be judged.
	Skipped    string
	Violations []*Violation
	// Dropped lists the canonical lines of invariants self-validation
	// removed: rules this case's own clean execution (or its prefix
	// at-rest images) refuted. On a set mined from the same
	// configuration Dropped stays empty; entries signal that the set
	// and the checked program diverge (foreign set, changed flush/fence
	// behavior).
	Dropped []string
	// Classes / ClassHits count value-leg equivalence classes and
	// duplicate-class crash points (zero with Options.NoPrune).
	Classes   int
	ClassHits int
	// Recoveries counts recovery executions actually run; MemoHits
	// counts crash points answered from the per-scan image-hash memo.
	Recoveries int
	MemoHits   int
}

// Checker mines and judges invariants. Like the differential oracle's
// checker it owns two executor arenas — one for journaled sweeps, one
// for prefix validations and recovery replays — so repeated checks stay
// off the allocation hot path. Not safe for concurrent use.
type Checker struct {
	sweepArena *executor.Arena
	recArena   *executor.Arena
	shard      *obs.Shard
}

// NewChecker returns a reusable checker.
func NewChecker() *Checker {
	return &Checker{sweepArena: executor.NewArena(), recArena: executor.NewArena()}
}

// SetShard attaches a metrics shard for rep_check stage timing (nil
// detaches). Safe on a nil Checker.
func (c *Checker) SetShard(sh *obs.Shard) {
	if c == nil {
		return
	}
	c.shard = sh
}

// Observe mines one clean test case into m: the full execution plus
// every command prefix (the zero-command prefix included) each count as
// one observation. Prefix observation is what kills mid-run value
// candidates — bytes a crash before their write would legitimately
// lack differ in some shorter prefix's at-rest image — and is also the
// property the miner-soundness test holds the survivors to. Returns an
// error when any execution faults: mining requires clean runs.
func (c *Checker) Observe(m *Miner, tc executor.TestCase, opts Options) error {
	if m.workload != tc.Workload {
		return fmt.Errorf("invariant: miner is for %q, case is for %q", m.workload, tc.Workload)
	}
	lines := splitLines(tc.Input)
	maxCmds := opts.MaxCommands
	if maxCmds <= 0 {
		maxCmds = workloads.MaxCommands
	}
	if len(lines) > maxCmds {
		lines = lines[:maxCmds]
	}
	for k := 0; k <= len(lines); k++ {
		ptc := tc
		ptc.Input = joinLines(lines[:k])
		res := executor.Run(ptc, executor.Options{
			Arena:       c.recArena,
			RecordTrace: true,
			MaxCommands: opts.MaxCommands,
			MaxOps:      opts.MaxOps,
		})
		if res.Faulted() {
			err := fmt.Errorf("invariant: prefix %d/%d faulted: panicked=%v err=%v",
				k, len(lines), res.Panicked, res.Err)
			c.recArena.Recycle(res)
			return err
		}
		m.Observe(res.Trace.Events(), res.Image)
		c.recArena.Recycle(res)
	}
	return nil
}

// MineCase mines a one-case set: observe tc, then extract survivors.
func (c *Checker) MineCase(tc executor.TestCase, opts Options) (*Set, error) {
	m := NewMiner(tc.Workload)
	if err := c.Observe(m, tc, opts); err != nil {
		return nil, err
	}
	return m.Mine(), nil
}

// ivInterval is one refuting pairing's crash-point window: crashes at
// barriers in [lo,hi] (or pre-fence windows in [preLo,preHi]) observe
// the rule broken.
type ivInterval struct {
	inv          *Invariant
	lo, hi       int
	preLo, preHi int
	pa, pb       int
}

// Check judges every crash point of tc's barrier sweep against set.
// Ordering and atomicity rules are decided analytically from the
// sweep's own trace — a crash at barrier x observes store s iff s's
// persist barrier is <= x — so they cost no recovery. Value rules are
// judged on the at-rest image after recovering each crash image
// (pruned by semantic class and memoized by image hash), and only when
// recovery was passive: a recovery that rewrites program data
// re-establishes state whose bytes mined constants cannot predict.
func (c *Checker) Check(tc executor.TestCase, set *Set, opts Options) *Report {
	rep := &Report{Workload: tc.Workload}
	if set.Len() == 0 {
		rep.Skipped = "empty invariant set"
		return rep
	}
	if set.Workload != tc.Workload {
		rep.Skipped = fmt.Sprintf("invariant set is for %q, case is for %q", set.Workload, tc.Workload)
		return rep
	}

	sw := executor.SweepRun(tc, executor.Options{
		Arena:       c.sweepArena,
		RecordTrace: true,
		MaxCommands: opts.MaxCommands,
		MaxOps:      opts.MaxOps,
	})
	defer c.sweepArena.Recycle(sw.Clean)
	if sw.Clean.Faulted() {
		rep.Skipped = fmt.Sprintf("clean execution faulted: panicked=%v err=%v", sw.Clean.Panicked, sw.Clean.Err)
		return rep
	}
	rep.Barriers = sw.Barriers()
	maxB := opts.MaxBarriers
	if maxB <= 0 || maxB > rep.Barriers {
		maxB = rep.Barriers
	}

	an := analyze(sw.Clean.Trace.Events())
	intervals, refuted := pairingIntervals(an, set, maxB)

	// Self-validation: drop rules this case's own clean behavior
	// refutes instead of flagging crash points with them.
	dropped := map[*Invariant]bool{}
	if !opts.NoSelfValidate {
		for iv := range refuted {
			dropped[iv] = true
		}
		if !c.validateValues(tc, set, sw.Clean.Image, dropped, opts, rep) {
			return rep
		}
		for _, iv := range set.Invs {
			if dropped[iv] {
				rep.Dropped = append(rep.Dropped, iv.Line())
			}
		}
		live := intervals[:0]
		for _, in := range intervals {
			if !dropped[in.inv] {
				live = append(live, in)
			}
		}
		intervals = live
	}

	values := activeValues(set, dropped)

	fps := sw.Fingerprints(maxB, opts.PreFence)

	// Value leg: recover each (pruned, memoized) crash point's image and
	// compare the at-rest result against the surviving constants.
	valAt := make([][]*Violation, len(fps))
	if len(values) > 0 {
		memo := map[[32]byte][]*Violation{}
		judge := func(fp executor.CrashFingerprint) []*Violation {
			if vs, ok := memo[fp.FP.ImageHash]; ok {
				rep.MemoHits++
				return vs
			}
			vs := c.recoverJudge(tc, c.materialize(sw, fp), values, opts)
			rep.Recoveries++
			memo[fp.FP.ImageHash] = vs
			return vs
		}
		if opts.NoPrune {
			for i, fp := range fps {
				valAt[i] = judge(fp)
			}
		} else {
			seen := map[uint64]bool{}
			repBad := false
			for i, fp := range fps {
				key := fp.SemanticKey()
				if seen[key] {
					rep.ClassHits++
					continue
				}
				seen[key] = true
				rep.Classes++
				t0 := c.shard.Begin()
				valAt[i] = judge(fp)
				c.shard.End(obs.StageRepCheck, t0)
				if len(valAt[i]) > 0 {
					repBad = true
					break
				}
			}
			if repBad {
				// A representative violated: attribution is unsound, so
				// fall back to judging every member (memo answers the
				// repeats). This reproduces the unpruned violation set.
				for i, fp := range fps {
					if valAt[i] == nil {
						valAt[i] = judge(fp)
					}
				}
			}
		}
	}

	// Assembly: walk crash points in order, stamping ordering verdicts
	// (interval membership) and value verdicts (recovery templates).
	for i, fp := range fps {
		rep.Checked++
		var vs []*Violation
		for _, in := range intervals {
			lo, hi := in.lo, in.hi
			if fp.PreFence {
				lo, hi = in.preLo, in.preHi
			}
			if fp.Barrier < lo || fp.Barrier > hi {
				continue
			}
			kind := "order-violation"
			if in.inv.Kind == Atomic {
				kind = "atomicity-violation"
			}
			vs = append(vs, &Violation{
				Kind: kind,
				Inv:  in.inv.Short(),
				Detail: fmt.Sprintf("%s: stores persist at barriers %s and %s",
					in.inv.Short(), barrierStr(in.pa), barrierStr(in.pb)),
			})
		}
		vs = append(vs, valAt[i]...)
		for _, tmpl := range vs {
			v := *tmpl
			v.Workload = tc.Workload
			v.Barrier = fp.Barrier
			v.PreFence = fp.PreFence
			v.Op = fp.Op
			v.Commands = fp.Commands
			v.Image = hex.EncodeToString(fp.FP.ImageHash[:6])
			rep.Violations = append(rep.Violations, &v)
			if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
				return rep
			}
		}
	}
	return rep
}

// barrierStr renders a persist barrier index ("never" for stores that
// never drained).
func barrierStr(b int) string {
	if b >= persistNever {
		return "never"
	}
	return fmt.Sprintf("%d", b)
}

// pairingIntervals scans the clean execution's store pairings against
// the set's ordering and atomicity rules and returns the crash-point
// windows in which a refuting pairing is observable, plus the refuted
// rule set. Windows are conservative for pre-fence crashes: only
// barriers where the later store is definitely durable and the earlier
// definitely lost count.
func pairingIntervals(an *analysis, set *Set, maxB int) ([]ivInterval, map[*Invariant]bool) {
	orderBy := map[uint64]*Invariant{}
	atomBy := map[uint64]*Invariant{}
	for _, iv := range set.Invs {
		switch iv.Kind {
		case Order:
			orderBy[pairKey(iv.A, iv.B)] = iv
		case Atomic:
			atomBy[pairKey(iv.A, iv.B)] = iv
		}
	}
	var out []ivInterval
	refuted := map[*Invariant]bool{}
	clamp := func(in ivInterval) {
		if in.hi > maxB {
			in.hi = maxB
		}
		if in.preHi > maxB {
			in.preHi = maxB
		}
		refuted[in.inv] = true
		if in.lo <= in.hi || in.preLo <= in.preHi {
			out = append(out, in)
		}
	}
	last := map[uint32]int{}
	for i := range an.stores {
		x := &an.stores[i]
		if x.internal {
			continue
		}
		for site, j := range last {
			if site == x.site {
				continue
			}
			y := &an.stores[j]
			pa, pb := y.persistB, x.persistB
			if iv, ok := orderBy[pairKey(site, x.site)]; ok && pa > pb {
				// The x-store is durable from barrier pb on, while its
				// preceding y-store only becomes durable at pa.
				clamp(ivInterval{inv: iv, lo: pb, hi: pa - 1, preLo: pb + 1, preHi: pa - 1, pa: pa, pb: pb})
			}
			lo, hi := site, x.site
			if lo > hi {
				lo, hi = hi, lo
			}
			if iv, ok := atomBy[pairKey(lo, hi)]; ok && pa != pb {
				a, b := pa, pb
				if a > b {
					a, b = b, a
				}
				clamp(ivInterval{inv: iv, lo: a, hi: b - 1, preLo: a + 1, preHi: b - 1, pa: pa, pb: pb})
			}
		}
		last[x.site] = i
	}
	return out, refuted
}

// activeValues collects the set's value rules minus the dropped ones.
func activeValues(set *Set, dropped map[*Invariant]bool) []*Invariant {
	var out []*Invariant
	for _, iv := range set.Invs {
		if iv.Kind == Value && !dropped[iv] {
			out = append(out, iv)
		}
	}
	return out
}

// validateValues re-validates the set's value rules against this very
// case's clean prefix images (the full run's at-rest image included):
// any rule a clean execution refutes goes to dropped. Returns false
// (setting rep.Skipped) when a prefix execution faults.
func (c *Checker) validateValues(tc executor.TestCase, set *Set, fullImg *pmem.Image, dropped map[*Invariant]bool, opts Options, rep *Report) bool {
	values := activeValues(set, dropped)
	if len(values) == 0 {
		return true
	}
	var buf []byte
	check := func(img *pmem.Image) {
		for _, iv := range values {
			if dropped[iv] {
				continue
			}
			if iv.Off+iv.Len > img.Size() {
				dropped[iv] = true
				continue
			}
			if buf = readRange(buf, img, iv.Off, iv.Len); !bytes.Equal(buf, iv.Data) {
				dropped[iv] = true
			}
		}
	}
	check(fullImg)
	lines := splitLines(tc.Input)
	maxCmds := opts.MaxCommands
	if maxCmds <= 0 {
		maxCmds = workloads.MaxCommands
	}
	if len(lines) > maxCmds {
		lines = lines[:maxCmds]
	}
	for k := 0; k < len(lines); k++ {
		ptc := tc
		ptc.Input = joinLines(lines[:k])
		res := executor.Run(ptc, executor.Options{
			Arena:       c.recArena,
			MaxCommands: opts.MaxCommands,
			MaxOps:      opts.MaxOps,
		})
		if res.Faulted() {
			rep.Skipped = fmt.Sprintf("prefix %d/%d execution faulted: panicked=%v err=%v",
				k, len(lines), res.Panicked, res.Err)
			c.recArena.Recycle(res)
			return false
		}
		check(res.Image)
		c.recArena.Recycle(res)
	}
	return true
}

// materialize resolves a fingerprinted crash point to its Result,
// stamping the journal-derived content hash so judging never rehashes.
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

// recoverJudge recovers one crash image (Setup with no commands, the
// workload's own recovery path) and compares the recovered at-rest
// image against the value rules. A recovery fault or error is itself a
// violation. Value rules only apply when recovery was passive — it
// performed no program-level PM stores — because an active recovery
// (create-retry, recount) legitimately rebuilds state at addresses the
// mined constants cannot predict. The returned violations are
// templates: Kind/Inv/Detail set, crash-point fields stamped later.
func (c *Checker) recoverJudge(tc executor.TestCase, crash *executor.Result, values []*Invariant, opts Options) []*Violation {
	rtc := executor.TestCase{Workload: tc.Workload, Image: crash.Image, Bugs: tc.Bugs, Seed: tc.Seed}
	res := executor.Run(rtc, executor.Options{
		Arena:       c.recArena,
		RecordTrace: true,
		MaxCommands: -1,
		MaxOps:      opts.MaxOps,
	})
	defer c.recArena.Recycle(res)
	switch {
	case res.Panicked:
		return []*Violation{{Kind: "recovery-fault", Detail: fmt.Sprint(res.PanicVal)}}
	case res.Err != nil:
		return []*Violation{{Kind: "recovery-error", Detail: res.Err.Error()}}
	}
	for _, ev := range res.Trace.Events() {
		if (ev.Kind == trace.Store || ev.Kind == trace.NTStore) && !ev.Internal {
			return nil // active recovery: value constants don't apply
		}
	}
	var out []*Violation
	var got []byte
	for _, iv := range values {
		if size := res.Image.Size(); iv.Off+iv.Len > size {
			out = append(out, &Violation{
				Kind: "value-mismatch", Inv: iv.Short(),
				Detail: fmt.Sprintf("%s: recovered image too small (%d bytes)", iv.Short(), size),
			})
			continue
		}
		if got = readRange(got, res.Image, iv.Off, iv.Len); !bytes.Equal(got, iv.Data) {
			out = append(out, &Violation{
				Kind: "value-mismatch", Inv: iv.Short(),
				Detail: fmt.Sprintf("%s: at rest after recovery got %s, want %s",
					iv.Short(), hexTrunc(got), hexTrunc(iv.Data)),
			})
		}
	}
	return out
}

// readRange reads img's bytes [off, off+n), which must lie within img,
// into buf's storage (grown as needed) and returns them.
func readRange(buf []byte, img *pmem.Image, off, n int) []byte {
	buf = slices.Grow(buf[:0], n)[:n]
	img.ReadAt(buf, int64(off))
	return buf
}

// hexTrunc hex-dumps at most 16 bytes.
func hexTrunc(b []byte) string {
	if len(b) <= 16 {
		return hex.EncodeToString(b)
	}
	return hex.EncodeToString(b[:16]) + "..."
}

// splitLines splits a command input on newlines (the executor's rule).
func splitLines(input []byte) [][]byte {
	var lines [][]byte
	rest := input
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return append(lines, rest)
		}
		lines = append(lines, rest[:i])
		rest = rest[i+1:]
	}
}

func joinLines(lines [][]byte) []byte {
	return bytes.Join(lines, []byte("\n"))
}
