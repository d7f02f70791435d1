package executor

import (
	"bytes"
	"errors"
	"testing"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

func TestRunCleanProducesImage(t *testing.T) {
	res := Run(TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\nc\n"), Seed: 1}, Options{})
	if res.Err != nil || res.Panicked || res.Crashed {
		t.Fatalf("clean run: err=%v panicked=%v crashed=%v", res.Err, res.Panicked, res.Crashed)
	}
	if res.Image == nil || res.Image.Size() == 0 {
		t.Fatalf("no output image")
	}
	if res.Commands != 4 {
		t.Fatalf("commands = %d, want 4 (3 ops + trailing empty line)", res.Commands)
	}
	if res.Ops == 0 || res.Barriers == 0 {
		t.Fatalf("no PM activity recorded")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	res := Run(TestCase{Workload: "nope"}, Options{})
	if res.Err == nil {
		t.Fatalf("unknown workload accepted")
	}
}

func TestRunOnImageContinuesState(t *testing.T) {
	first := Run(TestCase{Workload: "btree", Input: []byte("i 7 70\n"), Seed: 1}, Options{})
	second := Run(TestCase{Workload: "btree", Input: []byte("g 7\nc\n"), Image: first.Image, Seed: 1}, Options{})
	if second.Err != nil || second.Panicked {
		t.Fatalf("second run failed: err=%v panic=%v", second.Err, second.PanicVal)
	}
}

func TestRunWithInjectorProducesCrashImage(t *testing.T) {
	res := Run(TestCase{
		Workload: "btree",
		Input:    []byte("i 1 1\ni 2 2\n"),
		Injector: pmem.BarrierFailure{N: 10},
		Seed:     1,
	}, Options{})
	if !res.Crashed {
		t.Fatalf("failure did not fire")
	}
	if res.Crash.Barrier != 10 {
		t.Fatalf("crash barrier = %d", res.Crash.Barrier)
	}
	if res.Image == nil {
		t.Fatalf("no crash image")
	}
	// A crash image must reopen cleanly (transactions auto-recover).
	reopen := Run(TestCase{Workload: "btree", Input: []byte("c\n"), Image: res.Image, Seed: 1}, Options{})
	if reopen.Err != nil || reopen.Panicked {
		t.Fatalf("crash image did not recover: err=%v panic=%v", reopen.Err, reopen.PanicVal)
	}
}

func TestRunCapturesFaultAsPanic(t *testing.T) {
	// Bug 2 + a crash image inside the creation transaction => a later
	// run dereferences the rolled-back NULL map. Sweep the early barriers
	// until the failure lands inside that window.
	bg := bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried)
	for barrier := 1; barrier <= 40; barrier++ {
		pre := Run(TestCase{
			Workload: "btree",
			Input:    []byte("i 1 1\n"),
			Injector: pmem.BarrierFailure{N: barrier},
			Bugs:     bg,
			Seed:     1,
		}, Options{})
		if !pre.Crashed {
			break
		}
		post := Run(TestCase{
			Workload: "btree",
			Input:    []byte("i 2 2\n"),
			Image:    pre.Image,
			Bugs:     bg,
			Seed:     1,
		}, Options{})
		if post.Panicked {
			if !post.Faulted() {
				t.Fatalf("Faulted() = false for a panic")
			}
			return // captured the segfault analog
		}
	}
	t.Fatalf("no barrier produced the null-deref fault")
}

func TestRunRecordsTraceOnDemand(t *testing.T) {
	withTrace := Run(TestCase{Workload: "skiplist", Input: []byte("i 1 1\n"), Seed: 1}, Options{RecordTrace: true})
	if withTrace.Trace == nil || withTrace.Trace.Len() == 0 {
		t.Fatalf("trace not recorded")
	}
	without := Run(TestCase{Workload: "skiplist", Input: []byte("i 1 1\n"), Seed: 1}, Options{})
	if without.Trace != nil {
		t.Fatalf("trace recorded without RecordTrace")
	}
}

func TestRunChargesClock(t *testing.T) {
	clock := pmem.NewClock()
	Run(TestCase{Workload: "btree", Input: []byte("i 1 1\n"), Seed: 1}, Options{Clock: clock})
	if clock.Now() == 0 {
		t.Fatalf("clock not charged")
	}
	// A cached image open must be cheaper than an uncached one.
	a, b := pmem.NewClock(), pmem.NewClock()
	Run(TestCase{Workload: "btree", Input: []byte("i 1 1\n"), Seed: 1}, Options{Clock: a, ImageCached: false})
	Run(TestCase{Workload: "btree", Input: []byte("i 1 1\n"), Seed: 1}, Options{Clock: b, ImageCached: true})
	if b.Now() >= a.Now() {
		t.Fatalf("cached open (%d) not cheaper than uncached (%d)", b.Now(), a.Now())
	}
}

func TestRunMaxCommands(t *testing.T) {
	input := []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\ni 5 5\n")
	res := Run(TestCase{Workload: "btree", Input: input, Seed: 1}, Options{MaxCommands: 2})
	if res.Commands != 2 {
		t.Fatalf("commands = %d, want 2", res.Commands)
	}
}

func TestRunStopsOnQuit(t *testing.T) {
	res := Run(TestCase{Workload: "btree", Input: []byte("i 1 1\nq\ni 2 2\n"), Seed: 1}, Options{})
	if res.Err != nil {
		t.Fatalf("quit treated as error: %v", res.Err)
	}
	check := Run(TestCase{Workload: "btree", Input: []byte("g 2\nc\n"), Image: res.Image, Seed: 1}, Options{})
	if check.Err != nil {
		t.Fatalf("state after quit inconsistent: %v", check.Err)
	}
}

func TestNormalImage(t *testing.T) {
	img, err := NormalImage(TestCase{Workload: "rtree", Input: []byte("i 3 30\n"), Seed: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		t.Fatalf("no image")
	}
	// NormalImage must strip any injector.
	img2, err := NormalImage(TestCase{
		Workload: "rtree", Input: []byte("i 3 30\n"), Seed: 1,
		Injector: pmem.BarrierFailure{N: 1},
	}, Options{})
	if err != nil || img2 == nil {
		t.Fatalf("NormalImage honored the injector: %v", err)
	}
}

func TestCrashImagesSweep(t *testing.T) {
	results := CrashImages(TestCase{Workload: "hashmap-tx", Input: []byte("i 1 1\ni 2 2\n"), Seed: 1},
		Options{}, 8, 0.001, 2)
	if len(results) == 0 {
		t.Fatalf("no crash images")
	}
	for i, r := range results {
		if !r.Crashed {
			t.Fatalf("result %d not a crash", i)
		}
		if r.Image == nil {
			t.Fatalf("result %d missing image", i)
		}
	}
}

func TestCrashImagesOnFaultingCase(t *testing.T) {
	// A test case that fails its consistency check yields the fault
	// result instead of a sweep.
	res := Run(TestCase{
		Workload: "btree", Input: []byte("i 1 1\nc\n"),
		Bugs: bugs.NewSet().EnableSyn(17), // wrong size commit value
		Seed: 1,
	}, Options{})
	if !res.Faulted() {
		t.Skip("syn 17 did not fault on this input")
	}
	results := CrashImages(TestCase{
		Workload: "btree", Input: []byte("i 1 1\nc\n"),
		Bugs: bugs.NewSet().EnableSyn(17),
		Seed: 1,
	}, Options{}, 8, 0, 0)
	if len(results) != 1 || !results[0].Faulted() {
		t.Fatalf("faulting case not propagated: %d results", len(results))
	}
}

func TestResultFaultedSemantics(t *testing.T) {
	r := &Result{}
	if r.Faulted() {
		t.Fatalf("empty result faulted")
	}
	r.Err = errors.New("x")
	if !r.Faulted() {
		t.Fatalf("error not treated as fault")
	}
	r.Err = workloads.ErrStop
	if r.Faulted() {
		t.Fatalf("ErrStop treated as fault")
	}
}

func TestRecordSetupPM(t *testing.T) {
	first := Run(TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\n"), Seed: 1}, Options{})
	if first.Image == nil {
		t.Fatal("no image from seed run")
	}
	// Off by default.
	plain := Run(TestCase{Workload: "btree", Input: []byte("g 1\n"), Image: first.Image, Seed: 1}, Options{})
	if plain.SetupPM != nil {
		t.Fatalf("SetupPM recorded without RecordSetupPM")
	}
	// On: the setup-phase PM map is a snapshot taken before any command.
	res := Run(TestCase{Workload: "btree", Input: []byte("g 1\n"), Image: first.Image, Seed: 1},
		Options{RecordSetupPM: true})
	if res.SetupPM == nil {
		t.Fatalf("SetupPM not recorded")
	}
	setupOps, totalOps := 0, 0
	for i := uint32(0); i < instr.MapSize; i++ {
		setupOps += int(res.SetupPM.Counter(i))
		totalOps += int(res.Tracer.PMMap().Counter(i))
	}
	if setupOps == 0 {
		t.Fatalf("setup phase recorded no PM activity (pool open must touch PM)")
	}
	if setupOps > totalOps {
		t.Fatalf("setup map (%d ops) exceeds the full run map (%d ops)", setupOps, totalOps)
	}
}

// mapView is everything observable of a coverage map: its counters slot
// by slot, its populated-slot count, its signature, and the virgin bytes
// a merge of it into an empty virgin leaves.
type mapView struct {
	counts [instr.MapSize]uint8
	slots  int
	sig    uint64
	merged []byte
}

func viewOf(m *instr.Map) mapView {
	v := mapView{slots: m.CountNonZero(), sig: instr.Signature(m)}
	for i := range v.counts {
		v.counts[i] = m.Counter(uint32(i))
	}
	vg := instr.NewVirgin()
	vg.Merge(m)
	v.merged = vg.Bytes()
	return v
}

func sameView(a, b mapView) bool {
	return a.counts == b.counts && a.slots == b.slots && a.sig == b.sig && bytes.Equal(a.merged, b.merged)
}

// TestSetupPMIndependentOfTracer checks that Result.SetupPM is a deep
// copy: the commands' later PM operations, recycling the arena tracer
// it was copied from, and the next arena run on that tracer all leave it
// equal to the setup map of a fresh, arena-free run.
func TestSetupPMIndependentOfTracer(t *testing.T) {
	base := Run(TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\n"), Seed: 1}, Options{})
	if base.Image == nil {
		t.Fatal("no image from seed run")
	}
	tc := TestCase{Workload: "btree", Input: []byte("i 3 3\ni 4 4\nr 1\ng 2\n"), Image: base.Image, Seed: 1}
	ref := Run(tc, Options{RecordSetupPM: true})
	if ref.SetupPM == nil || ref.SetupPM.CountNonZero() == 0 {
		t.Fatal("reference run recorded no setup PM map")
	}
	want := viewOf(ref.SetupPM)

	arena := NewArena()
	// Warm the arena so the recorded run draws a recycled tracer.
	arena.Recycle(Run(tc, Options{Arena: arena}))
	res := Run(tc, Options{Arena: arena, RecordSetupPM: true})
	if res.SetupPM == nil {
		t.Fatal("SetupPM not recorded")
	}
	if res.Tracer.PMMap().CountNonZero() <= res.SetupPM.CountNonZero() {
		t.Fatalf("commands added no PM slots after setup (%d vs %d)",
			res.Tracer.PMMap().CountNonZero(), res.SetupPM.CountNonZero())
	}
	if !sameView(viewOf(res.SetupPM), want) {
		t.Fatal("SetupPM diverged from the reference after the commands' PM ops")
	}
	tracer := res.Tracer
	setup := res.SetupPM
	arena.Recycle(res)
	if !sameView(viewOf(setup), want) {
		t.Fatal("SetupPM changed when its tracer was recycled")
	}
	// A different program's setup hits different PM slots, so a hit
	// list shared with the tracer would be overwritten here.
	next := Run(TestCase{Workload: "rbtree", Input: []byte("i 9 9\ni 8 8\n"), Seed: 1}, Options{Arena: arena})
	if next.Tracer != tracer {
		t.Fatal("next arena run did not reuse the recycled tracer")
	}
	if !sameView(viewOf(setup), want) {
		t.Fatal("SetupPM changed when the next arena run reused its tracer")
	}
}

func TestMaxCommandsNegativeRunsNone(t *testing.T) {
	res := Run(TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\n"), Seed: 1},
		Options{MaxCommands: -1})
	if res.Err != nil || res.Panicked {
		t.Fatalf("setup-only run failed: err=%v panic=%v", res.Err, res.PanicVal)
	}
	if res.Commands != 0 {
		t.Fatalf("commands = %d, want 0 with negative MaxCommands", res.Commands)
	}
	if res.Image == nil {
		t.Fatalf("setup-only run produced no image")
	}
}

func TestRecoverRunsRecoveryOnly(t *testing.T) {
	// Produce a mid-transaction crash image, then drive only recovery.
	crash := Run(TestCase{
		Workload: "btree",
		Input:    []byte("i 1 1\ni 2 2\n"),
		Injector: pmem.BarrierFailure{N: 10},
		Seed:     1,
	}, Options{})
	if !crash.Crashed || crash.Image == nil {
		t.Fatalf("no crash image to recover")
	}
	rec := Recover(TestCase{Workload: "btree", Input: []byte("g 1\n"), Image: crash.Image, Seed: 1}, Options{})
	if rec.Faulted() {
		t.Fatalf("recovery faulted: err=%v panic=%v", rec.Err, rec.PanicVal)
	}
	if rec.Commands != 0 {
		t.Fatalf("recovery executed %d commands, want 0 (input must be ignored)", rec.Commands)
	}
	if rec.SetupPM == nil {
		t.Fatalf("recovery did not record its setup PM map")
	}
	if rec.Image == nil {
		t.Fatalf("recovery produced no recovered image")
	}
	// The recovered state must reopen cleanly.
	reopen := Run(TestCase{Workload: "btree", Input: []byte("c\n"), Image: rec.Image, Seed: 1}, Options{})
	if reopen.Faulted() {
		t.Fatalf("recovered image did not reopen: err=%v panic=%v", reopen.Err, reopen.PanicVal)
	}
}
