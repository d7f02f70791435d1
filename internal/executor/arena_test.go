package executor

import (
	"bytes"
	"fmt"
	"testing"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
)

// arenaInput exercises inserts, removals (rebalancing), lookups, and a
// consistency check — enough to build real transaction traffic.
var arenaInput = []byte("i 1 10\ni 2 20\ni 3 30\ni 4 40\ni 5 50\nr 2\nr 4\ng 3\nc\n")

// compareResults asserts the observable fields of two Results are
// byte-identical. Tracer maps are compared by PM-path signature plus raw
// equality; images by content.
func compareResults(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.Crashed != b.Crashed || a.Panicked != b.Panicked ||
		(a.Err == nil) != (b.Err == nil) {
		t.Fatalf("%s: outcome diverged: %+v vs %+v", tag, a, b)
	}
	if a.Ops != b.Ops || a.Barriers != b.Barriers || a.Commands != b.Commands {
		t.Fatalf("%s: counters diverged: ops %d/%d barriers %d/%d commands %d/%d",
			tag, a.Ops, b.Ops, a.Barriers, b.Barriers, a.Commands, b.Commands)
	}
	if fmt.Sprint(a.BarrierOps) != fmt.Sprint(b.BarrierOps) {
		t.Fatalf("%s: barrier ops diverged", tag)
	}
	if fmt.Sprint(a.CommitVars) != fmt.Sprint(b.CommitVars) {
		t.Fatalf("%s: commit vars diverged", tag)
	}
	if instr.Signature(a.Tracer.PMMap()) != instr.Signature(b.Tracer.PMMap()) {
		t.Fatalf("%s: PM coverage diverged", tag)
	}
	if instr.Signature(a.Tracer.BranchMap()) != instr.Signature(b.Tracer.BranchMap()) {
		t.Fatalf("%s: branch coverage diverged", tag)
	}
	aImg, bImg := a.Image != nil, b.Image != nil
	if aImg != bImg {
		t.Fatalf("%s: image presence diverged", tag)
	}
	if aImg && !bytes.Equal(a.Image.Bytes(), b.Image.Bytes()) {
		t.Fatalf("%s: image bytes diverged", tag)
	}
}

// TestArenaRunsMatchFreshRuns executes the same test cases with and
// without an arena — clean, image-chained, and crashing — and requires
// identical observable results. The arena leg reuses one arena across all
// runs, so any cross-run state leak diverges.
func TestArenaRunsMatchFreshRuns(t *testing.T) {
	arena := NewArena()

	// Clean run, repeated to cover the reset path both from empty state
	// and from a previous run's leftovers.
	for round := 0; round < 3; round++ {
		fresh := Run(TestCase{Workload: "btree", Input: arenaInput, Seed: 1}, Options{})
		reused := Run(TestCase{Workload: "btree", Input: arenaInput, Seed: 1}, Options{Arena: arena})
		compareResults(t, fmt.Sprintf("clean round %d", round), fresh, reused)
		arena.Recycle(reused)
	}

	// Image-chained run: the first run's output image feeds the second.
	base := Run(TestCase{Workload: "btree", Input: []byte("i 9 90\n"), Seed: 1}, Options{})
	fresh := Run(TestCase{Workload: "btree", Input: []byte("g 9\nc\n"), Image: base.Image, Seed: 1}, Options{})
	reused := Run(TestCase{Workload: "btree", Input: []byte("g 9\nc\n"), Image: base.Image, Seed: 1}, Options{Arena: arena})
	compareResults(t, "chained", fresh, reused)
	arena.Recycle(reused)

	// Crashing run: injected failure mid-transaction.
	tc := TestCase{Workload: "btree", Input: arenaInput, Injector: pmem.BarrierFailure{N: 7}, Seed: 1}
	freshCrash := Run(tc, Options{})
	reusedCrash := Run(tc, Options{Arena: arena})
	compareResults(t, "crash", freshCrash, reusedCrash)
	if !reusedCrash.Crashed {
		t.Fatal("crash leg did not crash")
	}
	arena.Recycle(reusedCrash)

	// And a clean run AFTER the crash on the same arena.
	fresh = Run(TestCase{Workload: "btree", Input: arenaInput, Seed: 1}, Options{})
	reused = Run(TestCase{Workload: "btree", Input: arenaInput, Seed: 1}, Options{Arena: arena})
	compareResults(t, "clean after crash", fresh, reused)
}

// arenaAllocBudget is the steady-state allocation ceiling for one arena
// execution of the btree workload. The measured figure is ~85 allocs/op
// (dominated by the workload's own per-run pool bootstrap); the ceiling
// leaves headroom for toolchain drift while still catching any return of
// the per-execution map/tracer/buffer churn this budget exists to prevent
// (the pre-arena figure was ~1500 allocs/op).
const arenaAllocBudget = 300

// TestArenaSteadyStateAllocBudget pins the hot path's allocation count:
// steady-state executions on a reused arena must stay under
// arenaAllocBudget allocations each.
func TestArenaSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting off in -short")
	}
	arena := NewArena()
	tc := TestCase{Workload: "btree", Input: arenaInput, Seed: 1}
	// Warm the arena: first runs grow pools and the site cache.
	for i := 0; i < 3; i++ {
		res := Run(tc, Options{Arena: arena})
		arena.Recycle(res)
	}
	avg := testing.AllocsPerRun(20, func() {
		res := Run(tc, Options{Arena: arena})
		arena.Recycle(res)
	})
	if avg > arenaAllocBudget {
		t.Fatalf("steady-state arena execution allocates %.0f/op, budget %d", avg, arenaAllocBudget)
	}
}
