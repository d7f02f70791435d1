package pmem

import "sort"

// This file implements the copy-on-write snapshot layer behind the
// single-pass crash-image sweep. The paper's §3.2 places a failure at
// every ordering point of an execution; the naive realization re-executes
// the whole pre-failure input once per barrier and takes a full-device
// snapshot each time — O(barriers × ops) execution plus
// O(barriers × poolsize) copying. But between two consecutive fences the
// persisted state changes only on the cache lines the second fence
// drains, so ONE instrumented execution can journal, per barrier, exactly
// that delta, and every barrier's crash image is then materialized by
// applying deltas to a base copy — the incremental crash-state derivation
// that representative-testing systems (Gu et al., WITCHER) use to make
// crash-state enumeration scale.
//
// The journal also records everything else the per-barrier replay used to
// observe at the crash point, so the derived results are byte-identical
// to the re-execution path:
//
//   - the taint set (volatile-but-never-persisted byte ranges) at the
//     barrier, for the cross-failure checker;
//   - the pre-fence state: which flushed-but-unfenced lines the
//     deterministic eviction model would persist for a crash at the PM
//     operation just before the fence, plus that state's taint set —
//     the "missing persist_barrier" windows xfd sweeps;
//   - the commit-variable registration count at both points, so the
//     commit-variable exemption sees exactly the annotations a truncated
//     replay would have registered.

// LineDelta is one cache line's post-fence persisted contents.
type LineDelta struct {
	// Line is the cache-line index (byte offset = Line * LineSize).
	Line int
	// Data is the line's persisted bytes (shorter than LineSize only for
	// the device's final partial line).
	Data []byte
}

// Checkpoint is the journal record for one ordering point.
type Checkpoint struct {
	// Barrier is the 1-based ordering-point index; Op is the PM-operation
	// index of the fence itself. A barrier-targeted failure at this point
	// unwinds with Crash{Barrier, Op}.
	Barrier int
	Op      int
	// PreOp is the PM-operation index of the last operation before the
	// fence (0 if the fence is the execution's first PM operation). An
	// op-targeted failure at PreOp is the paper's "just before the
	// ordering point" placement.
	PreOp int
	// Delta lists the cache lines this fence drained to the persisted
	// state, in line order: applying Delta to the previous barrier's
	// image yields this barrier's crash image.
	Delta []LineDelta
	// PreDelta is the subset of the write-pending queue that the
	// deterministic eviction model persists for a crash at PreOp (same
	// bytes as the corresponding Delta entries; eviction is keyed by
	// (line, PreOp) exactly like Device.evictQueuedAtCrash).
	PreDelta []LineDelta
	// Lost is the taint set at the barrier crash: byte ranges whose
	// volatile content never became durable (dirty lines).
	Lost []Range
	// PreLost is the taint set at the PreOp crash: dirty lines plus the
	// non-evicted part of the write-pending queue.
	PreLost []Range
	// CommitVarCount / PreCommitVarCount are how many commit-variable
	// ranges had been registered by the barrier / by PreOp.
	CommitVarCount    int
	PreCommitVarCount int
}

// Sweep is the copy-on-write journal of one instrumented execution: a
// base image plus one Checkpoint per ordering point.
type Sweep struct {
	base       [][]byte // base state's pages, shared with the device's images
	leaves     []byte   // base's leaf vector; never written
	cps        []Checkpoint
	commitVars []Range // raw registration order, for prefix slicing
}

// Barriers returns the number of journaled ordering points.
func (s *Sweep) Barriers() int { return len(s.cps) }

// Size returns the device size the journal was taken over.
func (s *Sweep) Size() int { return pagesSize(s.base) }

// Checkpoint returns the journal record for barrier b (1-based).
func (s *Sweep) Checkpoint(b int) *Checkpoint { return &s.cps[b-1] }

// CommitVarsAt returns the normalized commit-variable ranges among the
// first n registrations — what Device.CommitVars would have returned at
// a crash unwound after n registrations.
func (s *Sweep) CommitVarsAt(n int) []Range {
	if n > len(s.commitVars) {
		n = len(s.commitVars)
	}
	return NormalizeRanges(append([]Range(nil), s.commitVars[:n]...))
}

// BeginSweep attaches a copy-on-write journal to the device. The current
// persisted state becomes the sweep's base image; every subsequent fence
// records one Checkpoint. Journaling is an observer: it never changes
// what the program reads or what a failure would persist.
func (d *Device) BeginSweep() {
	pages, copied := d.persistedPages()
	d.sweep = &Sweep{base: pages, leaves: d.leavesOf(pages, copied)}
}

// EndSweep detaches and returns the journal (nil if BeginSweep was never
// called), snapshotting the commit-variable registrations so checkpoint
// prefixes can be resolved after the device is gone.
func (d *Device) EndSweep() *Sweep {
	s := d.sweep
	d.sweep = nil
	if s != nil {
		s.commitVars = append([]Range(nil), d.commitVars...)
	}
	return s
}

// lineSurvivesCrash is the deterministic eviction decision for one
// flushed-but-unfenced line at a crash at PM-operation op — the single
// source of truth shared by evictQueuedAtCrash and the sweep journal, so
// derived pre-fence images match injected-crash images bit for bit.
func lineSurvivesCrash(l, op int) bool {
	x := uint64(l)*0x9e3779b97f4a7c15 ^ uint64(op)*0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x&1 == 1
}

// lineBounds clips line l to the device size.
func lineBounds(l, size int) (start, end int) {
	start = l * LineSize
	end = start + LineSize
	if end > size {
		end = size
	}
	return start, end
}

// diffRangesOverLines byte-diffs volatile against persisted over the
// given lines, producing the same normalized ranges UnpersistedRanges
// yields for that line set.
func diffRangesOverLines(lines []int, volatile, persisted []byte) []Range {
	var rs []Range
	for _, l := range lines {
		start, end := lineBounds(l, len(volatile))
		for i := start; i < end; i++ {
			if volatile[i] != persisted[i] {
				j := i
				for j < end && volatile[j] != persisted[j] {
					j++
				}
				rs = append(rs, Range{Off: i, Len: j - i})
				i = j
			}
		}
	}
	return NormalizeRanges(rs)
}

// captureCheckpoint computes a fence's journal record. It runs at fence
// entry, before the write-pending queue is drained: at that instant the
// device state is exactly the state an op-targeted failure at the
// previous PM operation would have observed, and the queued set is
// exactly what the fence is about to persist. Barrier/Op are filled in by
// the caller once the fence's own PM operation has executed.
func (d *Device) captureCheckpoint() *Checkpoint {
	cp := &Checkpoint{
		PreOp:             d.opCount,
		CommitVarCount:    len(d.commitVars),
		PreCommitVarCount: d.cvAtLastOp,
	}
	// Sorted, deduplicated snapshots of the live queued and dirty sets,
	// filtered out of the lazy-stale transition lists into device-owned
	// scratch buffers (the journal's own Delta/Lost data is what escapes).
	d.scratchA = d.linesIn(d.scratchA, false, true)
	d.scratchB = d.linesIn(d.scratchB, true, false)
	queued, dirty := d.scratchA, d.scratchB

	// Delta: every queued line is about to be drained; its post-fence
	// persisted bytes equal its current volatile bytes. PreDelta: the
	// deterministic eviction subset for a crash at PreOp.
	for _, l := range queued {
		start, end := lineBounds(l, len(d.volatile))
		data := append([]byte(nil), d.volatile[start:end]...)
		cp.Delta = append(cp.Delta, LineDelta{Line: l, Data: data})
		if lineSurvivesCrash(l, d.opCount) {
			cp.PreDelta = append(cp.PreDelta, LineDelta{Line: l, Data: data})
		}
	}

	// Lost (barrier crash): after the drain only dirty lines differ from
	// the persisted state; the drain never touches them (dirty and queued
	// are disjoint), so the diff can be taken against the pre-drain
	// persisted bytes.
	cp.Lost = diffRangesOverLines(dirty, d.volatile, d.persisted)

	// PreLost (crash at PreOp): dirty lines plus the non-evicted part of
	// the queue; evicted lines persist their volatile bytes and drop out
	// of the diff, exactly as after evictQueuedAtCrash.
	d.scratchC = append(d.scratchC[:0], dirty...)
	for _, l := range queued {
		if !lineSurvivesCrash(l, d.opCount) {
			d.scratchC = append(d.scratchC, l)
		}
	}
	sort.Ints(d.scratchC)
	cp.PreLost = diffRangesOverLines(d.scratchC, d.volatile, d.persisted)
	return cp
}

// journalWalk is the working state the sweep cursor and the Partitioner
// walk through a journal: a copy-on-write page vector that starts as the
// base's, its tracked leaf vector, and the count of delta lines applied.
type journalWalk struct {
	s      *Sweep
	pages  cowPages
	leaves leafTracker
	// appliedLines counts delta lines applied since creation (monotonic,
	// including rebuilds) — the unit the simulated clock charges for
	// materialization.
	appliedLines int
}

// AppliedLines returns the cumulative count of delta lines applied.
func (w *journalWalk) AppliedLines() int { return w.appliedLines }

// rewind resets the working state to the base image.
func (w *journalWalk) rewind() {
	w.pages.reset(w.s.base)
	w.leaves.reset(w.s.leaves)
}

func (w *journalWalk) apply(ds []LineDelta) {
	w.pages.applyDelta(ds)
	w.leaves.markLines(ds)
	w.appliedLines += len(ds)
}

// SweepCursor materializes crash images from a Sweep. Sequential
// ascending access is O(delta) per step; seeking backwards rebuilds from
// the base. An emitted image shares every page of the working vector,
// and a later delta clones a page before writing it, so an image costs
// its page references plus the pages written since the previous one, and
// its ID only the pages changed since the previous image.
type SweepCursor struct {
	journalWalk
	pos int // barriers applied
}

// Cursor returns a new materialization cursor positioned at the base
// image (barrier 0).
func (s *Sweep) Cursor() *SweepCursor {
	c := &SweepCursor{journalWalk: journalWalk{s: s}}
	c.rewind()
	return c
}

// deltaPages returns the pages a line-ordered delta writes, ascending.
func deltaPages(ds []LineDelta) []int32 {
	var pages []int32
	for _, ld := range ds {
		if p := pageOfLine(ld.Line); len(pages) == 0 || pages[len(pages)-1] != p {
			pages = append(pages, p)
		}
	}
	return pages
}

// seek advances (or rebuilds and advances) the working state to the
// state after barrier b, and brings its leaf vector up to date.
func (c *SweepCursor) seek(b int) {
	if b < c.pos {
		c.rewind()
		c.pos = 0
	}
	for c.pos < b {
		c.apply(c.s.cps[c.pos].Delta)
		c.pos++
	}
	c.leaves.sync(c.pages.pages)
}

// Image returns the persisted state after barrier b — the crash image a
// barrier-targeted failure at b leaves behind — as an image of the given
// layout carrying its leaf vector.
func (c *SweepCursor) Image(b int, layout string) *Image {
	c.seek(b)
	return &Image{
		Layout: layout,
		pages:  c.pages.snapshot(),
		leaves: append([]byte(nil), c.leaves.leaves...),
	}
}

// PreFenceImage returns the persisted state for a crash at barrier b's
// PreOp: the state after barrier b-1 with the deterministic eviction
// subset of the write-pending queue applied. Its leaf vector is barrier
// b-1's with the evicted pages marked stale. Calling it before Image(b)
// keeps the cursor moving strictly forward.
func (c *SweepCursor) PreFenceImage(b int, layout string) *Image {
	c.seek(b - 1)
	pre := c.s.cps[b-1].PreDelta
	var out cowPages
	out.reset(c.pages.pages)
	c.pages.share() // the image holds the vector's pages now
	out.applyDelta(pre)
	c.appliedLines += len(pre)
	return &Image{
		Layout: layout,
		pages:  out.pages,
		leaves: append([]byte(nil), c.leaves.leaves...),
		stale:  deltaPages(pre),
	}
}
