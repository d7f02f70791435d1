package pmemobj

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

const poolSize = 512 * 1024

func newPool(t *testing.T) *Pool {
	t.Helper()
	dev := pmem.NewDevice(poolSize)
	p, err := Create(dev, "test", Options{Derandomize: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCreateOpenRoundTrip(t *testing.T) {
	p := newPool(t)
	root, err := p.Root(128)
	if err != nil {
		t.Fatal(err)
	}
	p.SetU64(root, 0, 0xdead)
	p.Persist(root, 0, 8)
	img := p.Close()

	dev2 := pmem.NewDeviceFromImage(img)
	p2, err := Open(dev2, "test")
	if err != nil {
		t.Fatal(err)
	}
	root2 := p2.RootOid()
	if root2 != root {
		t.Fatalf("root moved: %d -> %d", root, root2)
	}
	if got := p2.U64(root2, 0); got != 0xdead {
		t.Fatalf("root field = %#x, want 0xdead", got)
	}
}

func TestOpenWrongLayout(t *testing.T) {
	p := newPool(t)
	img := p.Close()
	dev := pmem.NewDeviceFromImage(img)
	if _, err := Open(dev, "other"); !errors.Is(err, ErrWrongLayout) {
		t.Fatalf("err = %v, want ErrWrongLayout", err)
	}
}

func TestOpenGarbage(t *testing.T) {
	dev := pmem.NewDevice(4096)
	if _, err := Open(dev, ""); !errors.Is(err, ErrBadPool) {
		t.Fatalf("err = %v, want ErrBadPool", err)
	}
}

func TestDerandomizedUUIDConstant(t *testing.T) {
	a := newPool(t)
	b := newPool(t)
	if a.UUID() != b.UUID() {
		t.Fatalf("derandomized pools have different UUIDs")
	}
}

func TestRandomUUIDVariesBySeed(t *testing.T) {
	devA := pmem.NewDevice(poolSize)
	devB := pmem.NewDevice(poolSize)
	a, _ := Create(devA, "t", Options{UUIDSeed: 1})
	b, _ := Create(devB, "t", Options{UUIDSeed: 2})
	if a.UUID() == b.UUID() {
		t.Fatalf("different seeds produced identical UUIDs")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	p := newPool(t)
	a, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.IsNull() || b.IsNull() {
		t.Fatalf("bad handles: %d %d", a, b)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	c, err := p.Alloc(50)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed block not reused: got %d, want %d", c, a)
	}
}

func TestAllocExhaustion(t *testing.T) {
	dev := pmem.NewDevice(headerSize + DefaultLogCap + 8192)
	p, err := Create(dev, "t", Options{Derandomize: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		if _, err := p.Alloc(256); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
		if n > 1000 {
			t.Fatalf("allocator never exhausted a tiny heap")
		}
	}
	if n == 0 {
		t.Fatalf("no allocation succeeded")
	}
}

func TestObjectSize(t *testing.T) {
	p := newPool(t)
	oid, _ := p.Alloc(100)
	sz, err := p.ObjectSize(oid)
	if err != nil {
		t.Fatal(err)
	}
	if sz < 100 {
		t.Fatalf("ObjectSize = %d, want >= 100", sz)
	}
}

func TestDoubleFree(t *testing.T) {
	p := newPool(t)
	oid, _ := p.Alloc(64)
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(oid); err == nil {
		t.Fatalf("double free not detected")
	}
}

func TestNullDerefPanics(t *testing.T) {
	p := newPool(t)
	defer func() {
		if r := recover(); r != ErrNullOid {
			t.Fatalf("recover = %v, want ErrNullOid", r)
		}
	}()
	p.U64(OidNull, 0)
}

func TestAllocSurvivesReopen(t *testing.T) {
	p := newPool(t)
	oid, _ := p.Alloc(64)
	p.SetU64(oid, 0, 77)
	p.Persist(oid, 0, 8)
	img := p.Close()

	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.U64(oid, 0); got != 77 {
		t.Fatalf("value lost across reopen: %d", got)
	}
	// The rebuilt allocator must not hand the same block out again.
	oid2, _ := p2.Alloc(64)
	if oid2 == oid {
		t.Fatalf("reopened allocator reissued a live block")
	}
}

func TestTxCommitDurable(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	err := p.Tx(func() error {
		if err := p.TxAdd(root, 0, 8); err != nil {
			return err
		}
		p.SetU64(root, 0, 1234)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Commit must have persisted the store: check the *persisted* state.
	snap := p.Device().PersistedSnapshot()
	img := pmem.NewImage([16]byte{}, "test", snap)
	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.U64(root, 0); got != 1234 {
		t.Fatalf("committed value not durable: %d", got)
	}
	if p2.Recovered() {
		t.Fatalf("clean commit left a live undo log")
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	p.SetU64(root, 0, 10)
	p.Persist(root, 0, 8)
	errBoom := errors.New("boom")
	err := p.Tx(func() error {
		if err := p.TxAdd(root, 0, 8); err != nil {
			return err
		}
		p.SetU64(root, 0, 99)
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Tx error = %v, want boom", err)
	}
	if got := p.U64(root, 0); got != 10 {
		t.Fatalf("abort did not roll back: %d", got)
	}
}

func TestTxCrashBeforeCommitRecovers(t *testing.T) {
	// Crash mid-transaction; on reopen the undo log must restore the old
	// value — the auto-recovery path of pmemobj_open.
	p := newPool(t)
	root, _ := p.Root(64)
	p.SetU64(root, 0, 10)
	p.Persist(root, 0, 8)

	dev := p.dev
	var crashed bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.Crash); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		// TxAdd issues 2 barriers; crash right after the log entry becomes
		// valid, then overwrite in place, but never commit.
		p.Begin()
		if err := p.TxAdd(root, 0, 8); err != nil {
			t.Fatal(err)
		}
		p.SetU64(root, 0, 99)
		p.FlushRange(root, 0, 8)
		dev.SetInjector(pmem.BarrierFailure{N: dev.Barriers() + 1})
		p.Drain() // in-place update persisted; log still valid -> crash
		t.Fatalf("unreachable: injector should have fired")
	}()
	if !crashed {
		t.Fatalf("no crash")
	}

	img := pmem.NewImage([16]byte{}, "test", dev.PersistedSnapshot())
	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Recovered() {
		t.Fatalf("open did not run recovery")
	}
	if got := p2.U64(root, 0); got != 10 {
		t.Fatalf("recovery restored %d, want 10", got)
	}
}

func TestTxCrashAfterCommitKeepsNewValue(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	p.SetU64(root, 0, 10)
	p.Persist(root, 0, 8)
	err := p.Tx(func() error {
		if err := p.TxAdd(root, 0, 8); err != nil {
			return err
		}
		p.SetU64(root, 0, 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	img := pmem.NewImage([16]byte{}, "test", p.dev.PersistedSnapshot())
	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.U64(root, 0); got != 20 {
		t.Fatalf("post-commit crash lost committed value: %d", got)
	}
}

func TestTxAllocAbortFreesObject(t *testing.T) {
	p := newPool(t)
	var oid Oid
	errBoom := errors.New("boom")
	_ = p.Tx(func() error {
		var err error
		oid, err = p.TxAlloc(128)
		if err != nil {
			return err
		}
		return errBoom
	})
	// The block must be free again: a fresh alloc of the same size reuses it.
	oid2, err := p.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if oid2 != oid {
		t.Fatalf("aborted TxAlloc leaked block: got %d, want %d", oid2, oid)
	}
}

func TestTxAllocCrashRecoveryFreesObject(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	dev := p.dev
	func() {
		defer func() { _ = recover() }()
		p.Begin()
		oid, err := p.TxAlloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.TxAdd(root, 0, 8); err != nil {
			t.Fatal(err)
		}
		p.SetU64(root, 0, uint64(oid))
		dev.SetInjector(pmem.OpFailure{N: dev.Ops() + 1})
		p.U64(root, 0) // any PM op fires the crash
		t.Fatalf("unreachable")
	}()
	img := pmem.NewImage([16]byte{}, "test", dev.PersistedSnapshot())
	p2, err := Open(pmem.NewDeviceFromImage(img), "test")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Recovered() {
		t.Fatalf("no recovery ran")
	}
	if got := p2.RootOid(); got != root {
		t.Fatalf("root handle changed: %d", got)
	}
	if got := p2.U64(root, 0); got != 0 {
		t.Fatalf("uncommitted root pointer survived recovery: %d", got)
	}
}

func TestTxAddDupDetection(t *testing.T) {
	p := newPool(t)
	rec := trace.NewRecorder()
	p.dev.SetSink(rec)
	root, _ := p.Root(64)
	err := p.Tx(func() error {
		if err := p.TxAdd(root, 0, 16); err != nil {
			return err
		}
		if err := p.TxAdd(root, 0, 8); err != nil { // fully covered: dup
			return err
		}
		if err := p.TxAdd(root, 8, 16); err != nil { // partial: not a dup
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.CountKind(trace.TxAddDup); got != 1 {
		t.Fatalf("TxAddDup events = %d, want 1", got)
	}
	if got := rec.CountKind(trace.TxAdd); got != 2 {
		t.Fatalf("TxAdd events = %d, want 2", got)
	}
}

func TestTxAllocCoversObjectRange(t *testing.T) {
	// TX_ADD of a just-TX_ALLOCed object is the paper's Bug 8/9/12
	// pattern: redundant.
	p := newPool(t)
	rec := trace.NewRecorder()
	p.dev.SetSink(rec)
	err := p.Tx(func() error {
		oid, err := p.TxZNew(64)
		if err != nil {
			return err
		}
		return p.TxAdd(oid, 0, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.CountKind(trace.TxAddDup); got != 1 {
		t.Fatalf("TxAddDup events = %d, want 1", got)
	}
}

func TestTxSetU64LogsAndStores(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	p.SetU64(root, 8, 5)
	p.Persist(root, 8, 8)
	errBoom := errors.New("boom")
	_ = p.Tx(func() error {
		if err := p.TxSetU64(root, 8, 6); err != nil {
			return err
		}
		if got := p.U64(root, 8); got != 6 {
			t.Fatalf("TxSetU64 did not store: %d", got)
		}
		return errBoom
	})
	if got := p.U64(root, 8); got != 5 {
		t.Fatalf("TxSetU64 not rolled back: %d", got)
	}
}

func TestTxFreeDeferredToCommit(t *testing.T) {
	p := newPool(t)
	oid, _ := p.Alloc(64)
	errBoom := errors.New("boom")
	_ = p.Tx(func() error {
		if err := p.TxFree(oid); err != nil {
			return err
		}
		return errBoom // abort: free must not happen
	})
	if _, err := p.ObjectSize(oid); err != nil {
		t.Fatalf("aborted TxFree released the object: %v", err)
	}
	err := p.Tx(func() error { return p.TxFree(oid) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ObjectSize(oid); err == nil {
		t.Fatalf("committed TxFree did not release the object")
	}
}

func TestNestedTxCommitsOnce(t *testing.T) {
	p := newPool(t)
	rec := trace.NewRecorder()
	p.dev.SetSink(rec)
	root, _ := p.Root(64)
	err := p.Tx(func() error {
		return p.Tx(func() error {
			return p.TxSetU64(root, 0, 3)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.CountKind(trace.TxBegin); got != 1 {
		t.Fatalf("TxBegin events = %d, want 1 (outermost only)", got)
	}
	if got := rec.CountKind(trace.TxEnd); got != 1 {
		t.Fatalf("TxEnd events = %d, want 1", got)
	}
}

func TestTxOutsideErrors(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	if err := p.TxAdd(root, 0, 8); !errors.Is(err, ErrNoTx) {
		t.Fatalf("TxAdd outside tx: %v", err)
	}
	if _, err := p.TxAlloc(8); !errors.Is(err, ErrNoTx) {
		t.Fatalf("TxAlloc outside tx: %v", err)
	}
	if err := p.Commit(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("Commit outside tx: %v", err)
	}
}

func TestTxLogFull(t *testing.T) {
	dev := pmem.NewDevice(headerSize + 512 + 64*1024)
	p, err := Create(dev, "t", Options{Derandomize: true, LogCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	root, _ := p.Root(4096)
	err = p.Tx(func() error {
		return p.TxAdd(root, 0, 4096) // exceeds the 512-byte arena
	})
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
	// The failed transaction must have been aborted cleanly.
	if p.InTx() {
		t.Fatalf("pool still in tx after log-full abort")
	}
}

func TestCrashPanicPropagatesThroughTx(t *testing.T) {
	p := newPool(t)
	root, _ := p.Root(64)
	p.dev.SetInjector(pmem.OpFailure{N: p.dev.Ops() + 2})
	defer func() {
		r := recover()
		if _, ok := r.(pmem.Crash); !ok {
			t.Fatalf("recover = %v, want pmem.Crash", r)
		}
	}()
	_ = p.Tx(func() error {
		p.SetU64(root, 0, 1) // ops advance; injector fires
		p.SetU64(root, 8, 2)
		return nil
	})
	t.Fatalf("unreachable")
}

func TestBytesAccessors(t *testing.T) {
	p := newPool(t)
	oid, _ := p.Alloc(32)
	p.SetBytes(oid, 4, []byte("hello"))
	if got := string(p.Bytes(oid, 4, 5)); got != "hello" {
		t.Fatalf("Bytes = %q", got)
	}
}

func TestRangeSetProperty(t *testing.T) {
	// Property: after Add(r), Covered(r) is always true, and Add returns
	// ranges whose total length never exceeds r's.
	f := func(offs []uint8, lens []uint8) bool {
		s := newRangeSet()
		n := len(offs)
		if len(lens) < n {
			n = len(lens)
		}
		for i := 0; i < n; i++ {
			r := pmem.Range{Off: int(offs[i]), Len: int(lens[i])%32 + 1}
			fresh := s.Add(r)
			total := 0
			for _, fr := range fresh {
				total += fr.Len
			}
			if total > r.Len {
				return false
			}
			if !s.Covered(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSetAddDisjointAndOverlap(t *testing.T) {
	s := newRangeSet()
	fresh := s.Add(pmem.Range{Off: 10, Len: 10})
	if len(fresh) != 1 || fresh[0] != (pmem.Range{Off: 10, Len: 10}) {
		t.Fatalf("first add fresh = %+v", fresh)
	}
	fresh = s.Add(pmem.Range{Off: 15, Len: 10}) // overlaps tail
	if len(fresh) != 1 || fresh[0] != (pmem.Range{Off: 20, Len: 5}) {
		t.Fatalf("overlap add fresh = %+v", fresh)
	}
	fresh = s.Add(pmem.Range{Off: 0, Len: 30}) // holes at both ends are fresh
	if len(fresh) != 2 || fresh[0] != (pmem.Range{Off: 0, Len: 10}) ||
		fresh[1] != (pmem.Range{Off: 25, Len: 5}) {
		t.Fatalf("cover add fresh = %+v", fresh)
	}
	if fresh = s.Add(pmem.Range{Off: 5, Len: 5}); fresh != nil {
		t.Fatalf("covered add fresh = %+v, want nil", fresh)
	}
}

func TestTxDurabilityUnderCrashSweepProperty(t *testing.T) {
	// Sweep a crash across every barrier of a committed transaction; after
	// recovery the value must be either the old or the new one — never a
	// torn or intermediate state. This is the core crash-consistency
	// invariant of undo logging.
	run := func(failBarrier int) (crashed bool, img *pmem.Image) {
		dev := pmem.NewDevice(poolSize)
		p, err := Create(dev, "t", Options{Derandomize: true})
		if err != nil {
			t.Fatal(err)
		}
		root, _ := p.Root(64)
		p.SetU64(root, 0, 0xAAAA)
		p.Persist(root, 0, 8)
		dev.SetInjector(pmem.BarrierFailure{N: dev.Barriers() + failBarrier})
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.Crash); !ok {
					panic(r)
				}
				crashed = true
				img = pmem.NewImage([16]byte{}, "t", dev.PersistedSnapshot())
			}
		}()
		err = p.Tx(func() error {
			if err := p.TxAdd(root, 0, 8); err != nil {
				return err
			}
			p.SetU64(root, 0, 0xBBBB)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return false, pmem.NewImage([16]byte{}, "t", dev.PersistedSnapshot())
	}
	sawOld, sawNew := false, false
	for fb := 1; fb < 20; fb++ {
		_, img := run(fb)
		p2, err := Open(pmem.NewDeviceFromImage(img), "t")
		if err != nil {
			t.Fatalf("barrier %d: open failed: %v", fb, err)
		}
		root := p2.RootOid()
		got := p2.U64(root, 0)
		switch got {
		case 0xAAAA:
			sawOld = true
		case 0xBBBB:
			sawNew = true
		default:
			t.Fatalf("barrier %d: inconsistent value %#x", fb, got)
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("crash sweep did not exercise both outcomes (old=%v new=%v)", sawOld, sawNew)
	}
}

// TestAllocatorCrashSweepProperty drives random alloc/free sequences and
// crashes at arbitrary PM operations; the heap headers must scan clean
// on every reopen (the allocator's ordered header-update protocol).
func TestAllocatorCrashSweepProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("allocator crash sweep is slow")
	}
	for seed := int64(1); seed <= 3; seed++ {
		for op := 5; op < 3000; op += 17 {
			dev := pmem.NewDevice(poolSize)
			p, err := Create(dev, "t", Options{Derandomize: true})
			if err != nil {
				t.Fatal(err)
			}
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.Crash); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				dev.SetInjector(pmem.OpFailure{N: dev.Ops() + op})
				rng := newSeededRNG(seed)
				var live []Oid
				for i := 0; i < 60; i++ {
					if rng.Intn(3) > 0 || len(live) == 0 {
						oid, err := p.Alloc(uint64(16 + rng.Intn(200)))
						if err != nil {
							break
						}
						live = append(live, oid)
					} else {
						idx := rng.Intn(len(live))
						if err := p.Free(live[idx]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:idx], live[idx+1:]...)
					}
				}
			}()
			if !crashed {
				break // op index beyond the sequence; later ops won't crash either
			}
			img := pmem.NewImage([16]byte{}, "t", dev.PersistedSnapshot())
			if _, err := Open(pmem.NewDeviceFromImage(img), "t"); err != nil {
				t.Fatalf("seed %d op %d: heap corrupt after crash: %v", seed, op, err)
			}
		}
	}
}

func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
