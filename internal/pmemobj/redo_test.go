package pmemobj

import (
	"errors"
	"testing"

	"pmfuzz/internal/pmem"
)

func TestRedoLogCommitApplies(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	r, err := p.NewRedoLog(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RecordU64(root, 0, 111); err != nil {
		t.Fatal(err)
	}
	if err := r.RecordU64(root, 8, 222); err != nil {
		t.Fatal(err)
	}
	// Staged updates are invisible until commit.
	if got := p.U64(root, 0); got != 0 {
		t.Fatalf("staged update applied early: %d", got)
	}
	r.Commit()
	if p.U64(root, 0) != 111 || p.U64(root, 8) != 222 {
		t.Fatalf("commit did not apply: %d %d", p.U64(root, 0), p.U64(root, 8))
	}
	// And durably: check the persisted state.
	img := pmem.NewImage([16]byte{}, "test", p.Device().PersistedSnapshot())
	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if p2.U64(root, 0) != 111 {
		t.Fatalf("commit not durable")
	}
}

func TestRedoLogAbortDiscards(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	r, _ := p.NewRedoLog(1024)
	if err := r.RecordU64(root, 0, 9); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	if got := p.U64(root, 0); got != 0 {
		t.Fatalf("aborted batch applied: %d", got)
	}
	// The arena is reusable after abort.
	if err := r.RecordU64(root, 0, 10); err != nil {
		t.Fatal(err)
	}
	r.Commit()
	if got := p.U64(root, 0); got != 10 {
		t.Fatalf("reuse after abort failed: %d", got)
	}
}

func TestRedoLogFull(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(256)
	r, _ := p.NewRedoLog(64)
	if err := r.Record(root, 0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := r.Record(root, 32, make([]byte, 32)); !errors.Is(err, ErrRedoFull) {
		t.Fatalf("err = %v, want ErrRedoFull", err)
	}
}

// TestRedoLogCrashSweepAtomicity is the redo counterpart of the undo
// crash sweep: at every barrier, recovery yields either none or all of
// the batch — never a prefix.
func TestRedoLogCrashSweepAtomicity(t *testing.T) {
	sawNone, sawAll := false, false
	for barrier := 1; barrier < 40; barrier++ {
		dev := pmem.NewDevice(poolSize)
		p, err := Create(dev, "t", Options{Derandomize: true})
		if err != nil {
			t.Fatal(err)
		}
		root, _ := p.Root(64)
		r, err := p.NewRedoLog(1024)
		if err != nil {
			t.Fatal(err)
		}
		logOid := r.Oid()
		startBarriers := dev.Barriers()

		crashed := func() (crashed bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(pmem.Crash); !ok {
						panic(rec)
					}
					crashed = true
				}
			}()
			dev.SetInjector(pmem.BarrierFailure{N: startBarriers + barrier})
			if err := r.RecordU64(root, 0, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.RecordU64(root, 8, 2); err != nil {
				t.Fatal(err)
			}
			if err := r.RecordU64(root, 16, 3); err != nil {
				t.Fatal(err)
			}
			r.Commit()
			return false
		}()

		img := pmem.NewImage([16]byte{}, "t", dev.PersistedSnapshot())
		p2, err := Open(pmem.NewDeviceFromImage(img), "t")
		if err != nil {
			t.Fatalf("barrier %d: reopen: %v", barrier, err)
		}
		if _, err := OpenRedoLog(p2, logOid, 1024); err != nil {
			t.Fatalf("barrier %d: redo open: %v", barrier, err)
		}
		a, b, c := p2.U64(root, 0), p2.U64(root, 8), p2.U64(root, 16)
		switch {
		case a == 0 && b == 0 && c == 0:
			sawNone = true
		case a == 1 && b == 2 && c == 3:
			sawAll = true
		default:
			t.Fatalf("barrier %d: partial batch survived: %d %d %d", barrier, a, b, c)
		}
		if !crashed {
			break
		}
	}
	if !sawNone || !sawAll {
		t.Fatalf("sweep did not cover both outcomes (none=%v all=%v)", sawNone, sawAll)
	}
}

func TestRedoLogRecoveryIdempotent(t *testing.T) {
	// Applying a valid redo log twice must be harmless (redo is
	// idempotent by construction: it writes absolute values).
	p := newPool(t)
	root, _ := p.Root(64)
	r, _ := p.NewRedoLog(1024)
	if err := r.RecordU64(root, 0, 5); err != nil {
		t.Fatal(err)
	}
	r.Commit()
	img := pmem.NewImage([16]byte{}, "test", p.Device().PersistedSnapshot())
	for i := 0; i < 2; i++ {
		p2, err := Open(pmem.NewDeviceFromImage(img), "test")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenRedoLog(p2, r.Oid(), 1024); err != nil {
			t.Fatal(err)
		}
		if p2.U64(root, 0) != 5 {
			t.Fatalf("round %d: value lost", i)
		}
	}
}
