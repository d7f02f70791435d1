package executor

import (
	"sort"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
)

// SweepResult is one journaled execution plus lazy materialization of
// every crash image the paper's §3.2 barrier sweep would generate.
// Instead of re-executing the input once per ordering point, the single
// run's copy-on-write journal (pmem.Sweep) holds per-barrier deltas;
// Crash and PreFenceCrash synthesize the exact Result an injected-failure
// re-execution would have produced — same image bytes, crash metadata,
// taint set, commit variables, and counters.
type SweepResult struct {
	// Clean is the journaled execution's result (no injected failure).
	Clean *Result

	layout      string
	opts        Options
	sweep       *pmem.Sweep
	cursor      *pmem.SweepCursor
	cmdStartOps []int

	// emptyTracer is lazily shared by every materialized Result: the
	// truncated replay a materialization stands in for never traced
	// anything, so all those results carry identical, permanently empty
	// coverage maps — one allocation instead of 128 KiB per crash image.
	emptyTracer *instr.Tracer
}

// materializedTracer returns the shared read-only empty tracer.
func (s *SweepResult) materializedTracer() *instr.Tracer {
	if s.emptyTracer == nil {
		s.emptyTracer = instr.NewTracer()
	}
	return s.emptyTracer
}

// SweepRun executes the test case once with a copy-on-write sweep journal
// attached (any configured injector is ignored: the journaled run is the
// failure-free leg) and returns the handle crash images are materialized
// from. One execution, however many barriers the run has.
func SweepRun(tc TestCase, opts Options) *SweepResult {
	tc.Injector = nil
	res, ex := run(tc, opts, &runExtras{})
	sr := &SweepResult{
		Clean:       res,
		layout:      tc.Workload,
		opts:        opts,
		cmdStartOps: ex.cmdStartOps,
	}
	if ex.dev != nil {
		if sw := ex.dev.EndSweep(); sw != nil && !res.Faulted() {
			sr.sweep = sw
			sr.cursor = sw.Cursor()
		}
	}
	return sr
}

// Barriers returns the number of ordering points available to Crash
// (0 when the clean run faulted).
func (s *SweepResult) Barriers() int {
	if s.sweep == nil {
		return 0
	}
	return s.sweep.Barriers()
}

// EnableIncrementalHash does nothing. Every materialized crash image
// carries a leaf vector derived from the previous point's, so its ID
// always costs only the changed pages; the method stays for callers
// written against the earlier opt-in hasher.
func (s *SweepResult) EnableIncrementalHash() {}

// commandsAt reconstructs the Commands counter at a crash at PM-op x: the
// number of command lines whose execution had started by then.
func (s *SweepResult) commandsAt(x int) int {
	return sort.SearchInts(s.cmdStartOps, x)
}

func (s *SweepResult) charge(before int) {
	if s.opts.Clock != nil {
		s.opts.Clock.ChargeSweepMaterialize(s.cursor.AppliedLines() - before)
	}
}

// Crash materializes the result of a failure injected at barrier b
// (1-based), byte-identical to Run with pmem.BarrierFailure{N: b}, except
// for the per-run Tracer/Trace of the truncated replay, which no
// crash-image consumer reads and which stay empty. Returns nil when b is
// out of range.
func (s *SweepResult) Crash(b int) *Result {
	if s.sweep == nil || b < 1 || b > s.sweep.Barriers() {
		return nil
	}
	// Materialization is charged to the sweep stage; the journaled run
	// itself already counted as an execution inside run().
	defer s.opts.Shard.End(obs.StageSweep, s.opts.Shard.Begin())
	cp := s.sweep.Checkpoint(b)
	before := s.cursor.AppliedLines()
	img := s.cursor.Image(b, s.layout)
	s.charge(before)

	return &Result{
		Tracer:      s.materializedTracer(),
		Image:       img,
		Crashed:     true,
		Crash:       pmem.Crash{Barrier: cp.Barrier, Op: cp.Op},
		LostAtCrash: append([]pmem.Range(nil), cp.Lost...),
		CommitVars:  s.sweep.CommitVarsAt(cp.CommitVarCount),
		Barriers:    b,
		Ops:         cp.Op,
		BarrierOps:  append([]int(nil), s.Clean.BarrierOps[:b]...),
		Commands:    s.commandsAt(cp.Op),
	}
}

// PreFenceCrash materializes the result of a failure injected at the PM
// operation just before barrier b's fence — Run with
// pmem.OpFailure{N: BarrierOps[b-1]-1} — covering the paper's "crash with
// flushed-but-unfenced data" window, subset-eviction rule included.
// Returns nil when the fence is the execution's first PM operation (no
// operation to fail at), matching the re-execution path's guard.
func (s *SweepResult) PreFenceCrash(b int) *Result {
	if s.sweep == nil || b < 1 || b > s.sweep.Barriers() {
		return nil
	}
	cp := s.sweep.Checkpoint(b)
	if cp.PreOp < 1 {
		return nil
	}
	defer s.opts.Shard.End(obs.StageSweep, s.opts.Shard.Begin())
	before := s.cursor.AppliedLines()
	img := s.cursor.PreFenceImage(b, s.layout)
	s.charge(before)

	return &Result{
		Tracer:      s.materializedTracer(),
		Image:       img,
		Crashed:     true,
		Crash:       pmem.Crash{Barrier: -1, Op: cp.PreOp},
		LostAtCrash: append([]pmem.Range(nil), cp.PreLost...),
		CommitVars:  s.sweep.CommitVarsAt(cp.PreCommitVarCount),
		Barriers:    b - 1,
		Ops:         cp.PreOp,
		BarrierOps:  append([]int(nil), s.Clean.BarrierOps[:b-1]...),
		Commands:    s.commandsAt(cp.PreOp),
	}
}

// CrashFingerprint locates one crash point of the sweep and carries its
// recovery-relevant fingerprint — the coordinates consumers build
// equivalence classes from without materializing the image.
type CrashFingerprint struct {
	// Barrier/PreFence address the point the way Crash/PreFenceCrash do.
	Barrier  int
	PreFence bool
	// Op is the 1-based PM operation the failure lands on — what the
	// materialized Result records in Crash.Op.
	Op int
	// Commands is how many command lines had started at the point — the
	// shadow-model coordinate the oracle's expected states depend on.
	Commands int
	// FP is the journal-derived state fingerprint.
	FP pmem.Fingerprint
}

// SemanticKey digests the coordinates the differential oracle's verdict
// depends on: the command prefix in flight plus the commit-variable
// registrations and their durable content. Crash points sharing a
// semantic key recover through the same code on the same durable
// decision data toward the same explainable prefix states — one
// representative stands for the class (a violation still triggers the
// oracle's full per-member fallback, so the key's coarseness can cost
// re-checking but never accuracy).
func (f CrashFingerprint) SemanticKey() uint64 {
	return pmem.SemanticClassKey(f.Commands, f.FP.CVCount, f.FP.CVHash)
}

// ExactKey digests everything the cross-failure detector's post-failure
// analysis reads: the full image content, the taint set, and the
// commit-variable exemptions. Points sharing an exact key produce
// byte-identical report sets (modulo the Barrier/Op stamp), so exact
// dedup is lossless.
func (f CrashFingerprint) ExactKey() [32]byte {
	var k [32]byte
	copy(k[:], f.FP.ImageHash[:])
	mix := f.FP.TaintSig ^ (f.FP.CVHash * 0x9e3779b97f4a7c15) ^ uint64(f.FP.CVCount)
	for i := 0; i < 8; i++ {
		k[i] ^= byte(mix >> (8 * i))
	}
	return k
}

// Fingerprints computes one CrashFingerprint per crash point of the
// sweep in cursor order — pre-fence (when preFence is set and the point
// exists) then barrier, for b in [1..maxB] (0 = every barrier) — in a
// single forward pass over the journal, without materializing any image.
// The slice enumerates exactly the points Crash/PreFenceCrash would
// return non-nil for, in the order a forward sweep visits them.
func (s *SweepResult) Fingerprints(maxB int, preFence bool) []CrashFingerprint {
	if s.sweep == nil {
		return nil
	}
	if maxB <= 0 || maxB > s.sweep.Barriers() {
		maxB = s.sweep.Barriers()
	}
	defer s.opts.Shard.End(obs.StageSweep, s.opts.Shard.Begin())
	part := s.sweep.Partition(s.layout)
	n := maxB
	if preFence {
		n *= 2
	}
	fps := make([]CrashFingerprint, 0, n)
	for b := 1; b <= maxB; b++ {
		cp := s.sweep.Checkpoint(b)
		if preFence {
			if fp, ok := part.PreFence(b); ok {
				fps = append(fps, CrashFingerprint{
					Barrier: b, PreFence: true, Op: cp.PreOp,
					Commands: s.commandsAt(cp.PreOp), FP: fp,
				})
			}
		}
		fps = append(fps, CrashFingerprint{
			Barrier: b, Op: cp.Op,
			Commands: s.commandsAt(cp.Op), FP: part.Barrier(b),
		})
	}
	if s.opts.Clock != nil {
		s.opts.Clock.ChargeSweepMaterialize(part.AppliedLines())
	}
	return fps
}

// CrashClassKey computes the semantic class key of an already
// materialized crash result — the same key Fingerprints derives from the
// journal, built instead from the Result's command counter and
// commit-variable ranges. Stage-2 promotion dedups harvested crash
// images by it. Returns 0 for non-crash results (0 doubles as the
// "unclassified" sentinel on queue entries).
func CrashClassKey(res *Result) uint64 {
	if res == nil || !res.Crashed || res.Image == nil {
		return 0
	}
	sig := pmem.CommitVarSignature(res.CommitVars, res.Image)
	k := pmem.SemanticClassKey(res.Commands, len(res.CommitVars), sig)
	if k == 0 {
		k = 1 // keep 0 reserved for "unclassified"
	}
	return k
}
