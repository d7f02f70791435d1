package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
)

// scriptDevice runs a deterministic pseudo-random mix of stores, NT
// stores, flushes, and fences against a fresh device, stopping after the
// injected failure fires (if any). It returns the device.
func scriptDevice(size int, seed int64, steps int, inj FailureInjector) (d *Device, crashed bool) {
	d = NewDevice(size)
	if inj != nil {
		d.SetInjector(inj)
	}
	rng := rand.New(rand.NewSource(seed))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Crash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	for i := 0; i < steps; i++ {
		off := rng.Intn(size - 16)
		var p [8]byte
		rng.Read(p[:])
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			d.Store(off, p[:], instr.SiteID(i))
		case 4:
			d.NTStore(off, p[:], instr.SiteID(i))
		case 5, 6:
			d.Flush(off, 16, instr.SiteID(i))
		case 7, 8:
			d.Fence(instr.SiteID(i))
		default:
			d.MarkCommitVar(off, 4)
			d.Load(off, p[:], instr.SiteID(i))
		}
	}
	return d, false
}

// TestSweepJournalMatchesInjectedCrashes replays the same scripted
// operation mix once journaled and once per failure point, and checks
// that materialized states, taint sets, and commit-variable prefixes
// match the injected-crash ground truth — at every barrier and at every
// pre-fence op, including NT stores and unflushed lines.
func TestSweepJournalMatchesInjectedCrashes(t *testing.T) {
	const size, steps = 4096, 400
	for seed := int64(1); seed <= 3; seed++ {
		d, _ := scriptDevice(size, seed, steps, nil)
		d.BeginSweep()
		// Journal a second scripted segment so the sweep base is a
		// non-trivial persisted state.
		func() {
			rng := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < steps; i++ {
				off := rng.Intn(size - 16)
				var p [8]byte
				rng.Read(p[:])
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					d.Store(off, p[:], instr.SiteID(i))
				case 4:
					d.NTStore(off, p[:], instr.SiteID(i))
				case 5, 6:
					d.Flush(off, 16, instr.SiteID(i))
				case 7, 8:
					d.Fence(instr.SiteID(i))
				default:
					d.MarkCommitVar(off, 4)
					d.Load(off, p[:], instr.SiteID(i))
				}
			}
		}()
		sw := d.EndSweep()
		if sw == nil || sw.Barriers() == 0 {
			t.Fatalf("seed %d: no journal", seed)
		}
		_ = d.Close([16]byte{}, "")

		// Ground truth: re-run the whole two-segment script with a failure
		// injected at each barrier the journal recorded. Barrier indices in
		// the journal are device-global, so replay both segments.
		replay := func(inj FailureInjector) *Device {
			rd := NewDevice(size)
			rd.SetInjector(nil)
			run := func(s int64, withInj bool) bool {
				rng := rand.New(rand.NewSource(s))
				if withInj {
					rd.SetInjector(inj)
				}
				crashed := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(Crash); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					for i := 0; i < steps; i++ {
						off := rng.Intn(size - 16)
						var p [8]byte
						rng.Read(p[:])
						switch rng.Intn(10) {
						case 0, 1, 2, 3:
							rd.Store(off, p[:], instr.SiteID(i))
						case 4:
							rd.NTStore(off, p[:], instr.SiteID(i))
						case 5, 6:
							rd.Flush(off, 16, instr.SiteID(i))
						case 7, 8:
							rd.Fence(instr.SiteID(i))
						default:
							rd.MarkCommitVar(off, 4)
							rd.Load(off, p[:], instr.SiteID(i))
						}
					}
				}()
				return crashed
			}
			if run(seed, true) {
				return rd
			}
			if !run(seed+100, true) {
				t.Fatalf("seed %d: injected failure never fired", seed)
			}
			return rd
		}

		cur := sw.Cursor()
		for b := 1; b <= sw.Barriers(); b++ {
			cp := sw.Checkpoint(b)
			// Pre-fence crash first (keeps the cursor strictly forward).
			if cp.PreOp >= 1 {
				rd := replay(OpFailure{N: cp.PreOp})
				if got, want := cur.PreFenceImage(b, "").Bytes(), rd.PersistedSnapshot(); !bytes.Equal(got, want) {
					t.Fatalf("seed %d barrier %d: pre-fence image differs", seed, cp.Barrier)
				}
				wantLost := rd.UnpersistedRanges()
				if !rangesEq(cp.PreLost, wantLost) {
					t.Fatalf("seed %d barrier %d: pre-fence taint differs", seed, cp.Barrier)
				}
				if got, want := sw.CommitVarsAt(cp.PreCommitVarCount), rd.CommitVars(); !rangesEq(got, want) {
					t.Fatalf("seed %d barrier %d: pre-fence commit vars differ", seed, cp.Barrier)
				}
			}
			rd := replay(BarrierFailure{N: cp.Barrier})
			if got, want := cur.Image(b, "").Bytes(), rd.PersistedSnapshot(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d barrier %d: barrier image differs", seed, cp.Barrier)
			}
			if !rangesEq(cp.Lost, rd.UnpersistedRanges()) {
				t.Fatalf("seed %d barrier %d: barrier taint differs", seed, cp.Barrier)
			}
			if got, want := sw.CommitVarsAt(cp.CommitVarCount), rd.CommitVars(); !rangesEq(got, want) {
				t.Fatalf("seed %d barrier %d: barrier commit vars differ", seed, cp.Barrier)
			}
		}
		// Backward seek must rebuild correctly from the base.
		mid := (1 + sw.Barriers()) / 2
		fwd := sw.Cursor().Image(mid, "").Bytes()
		if !bytes.Equal(cur.Image(mid, "").Bytes(), fwd) {
			t.Fatalf("seed %d: backward seek to %d diverges", seed, mid)
		}
	}
}

func rangesEq(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEvictionSharedPredicate pins that the sweep's eviction decision and
// the device's injected-crash eviction agree line by line.
func TestEvictionSharedPredicate(t *testing.T) {
	const size = 1024
	d := NewDevice(size)
	for l := 0; l*LineSize < size; l++ {
		d.NTStore(l*LineSize, []byte{byte(l + 1)}, 1)
	}
	op := d.Ops()
	survived := map[int]bool{}
	for l := 0; l*LineSize < size; l++ {
		survived[l] = lineSurvivesCrash(l, op)
	}
	d.evictQueuedAtCrash()
	snap := d.PersistedSnapshot()
	any := false
	for l := 0; l*LineSize < size; l++ {
		got := snap[l*LineSize] == byte(l+1)
		if got != survived[l] {
			t.Fatalf("line %d: evict=%v predicate=%v", l, got, survived[l])
		}
		if survived[l] {
			any = true
		}
	}
	if !any {
		t.Fatalf("no line survived — predicate degenerate for this op count")
	}
}
