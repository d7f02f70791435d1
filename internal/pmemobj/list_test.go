package pmemobj

import (
	"errors"
	"testing"

	"pmfuzz/internal/pmem"
)

// listFixture allocates a head object and n elements; elements store
// their value at offset 0 and links at offset 8.
func listFixture(t *testing.T, n int) (*Pool, *List, []Oid) {
	t.Helper()
	p := newPool(t)
	head, err := p.Root(32)
	if err != nil {
		t.Fatal(err)
	}
	l, err := p.NewList(head, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var elems []Oid
	for i := 0; i < n; i++ {
		oid, err := p.AllocZeroed(24)
		if err != nil {
			t.Fatal(err)
		}
		p.SetU64(oid, 0, uint64(i+1))
		p.Persist(oid, 0, 8)
		elems = append(elems, oid)
	}
	return p, l, elems
}

func values(t *testing.T, p *Pool, l *List) []uint64 {
	t.Helper()
	var out []uint64
	for e := l.First(); !e.IsNull(); e = l.Next(e) {
		out = append(out, p.U64(e, 0))
	}
	if _, err := l.Len(); err != nil {
		t.Fatal(err)
	}
	return out
}

func eq(a, b []uint64) bool {
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

func TestListPushFrontBack(t *testing.T) {
	p, l, elems := listFixture(t, 4)
	err := p.Tx(func() error {
		if err := l.PushBack(elems[0]); err != nil { // 1
			return err
		}
		if err := l.PushBack(elems[1]); err != nil { // 1 2
			return err
		}
		if err := l.PushFront(elems[2]); err != nil { // 3 1 2
			return err
		}
		return l.PushBack(elems[3]) // 3 1 2 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(t, p, l); !eq(got, []uint64{3, 1, 2, 4}) {
		t.Fatalf("values = %v", got)
	}
	// Backward traversal must agree.
	var back []uint64
	for e := l.Last(); !e.IsNull(); e = l.Prev(e) {
		back = append(back, p.U64(e, 0))
	}
	if !eq(back, []uint64{4, 2, 1, 3}) {
		t.Fatalf("backward = %v", back)
	}
}

func TestListRemove(t *testing.T) {
	p, l, elems := listFixture(t, 3)
	err := p.Tx(func() error {
		for _, e := range elems {
			if err := l.PushBack(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Remove middle, then head, then tail.
	for i, victim := range []int{1, 0, 2} {
		if err := p.Tx(func() error { return l.Remove(elems[victim]) }); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
		if _, err := l.Len(); err != nil {
			t.Fatalf("after remove %d: %v", i, err)
		}
	}
	if !l.Empty() {
		t.Fatalf("list not empty")
	}
}

func TestListOutsideTxRejected(t *testing.T) {
	_, l, elems := listFixture(t, 1)
	if err := l.PushBack(elems[0]); !errors.Is(err, ErrNoTx) {
		t.Fatalf("err = %v, want ErrNoTx", err)
	}
	if err := l.Remove(elems[0]); !errors.Is(err, ErrNoTx) {
		t.Fatalf("err = %v, want ErrNoTx", err)
	}
}

func TestListAbortRollsBack(t *testing.T) {
	p, l, elems := listFixture(t, 2)
	if err := p.Tx(func() error { return l.PushBack(elems[0]) }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_ = p.Tx(func() error {
		if err := l.PushBack(elems[1]); err != nil {
			return err
		}
		return boom
	})
	if got := values(t, p, l); !eq(got, []uint64{1}) {
		t.Fatalf("abort did not restore list: %v", got)
	}
}

// TestListCrashSweep: a failure at any ordering point during a splice
// leaves, after recovery, either the old or the new list — never a
// broken one.
func TestListCrashSweep(t *testing.T) {
	for barrier := 1; barrier < 60; barrier++ {
		p, l, elems := listFixture(t, 3)
		dev := p.Device()
		if err := p.Tx(func() error { return l.PushBack(elems[0]) }); err != nil {
			t.Fatal(err)
		}
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.Crash); !ok {
						panic(r)
					}
					c = true
				}
			}()
			dev.SetInjector(pmem.BarrierFailure{N: dev.Barriers() + barrier})
			err := p.Tx(func() error {
				if err := l.PushFront(elems[1]); err != nil {
					return err
				}
				return l.Remove(elems[0])
			})
			if err != nil {
				t.Fatal(err)
			}
			return false
		}()
		img := pmem.NewImage([16]byte{}, "test", dev.PersistedSnapshot())
		p2, err := Open(pmem.NewDeviceFromImage(img), "test")
		if err != nil {
			t.Fatalf("barrier %d: %v", barrier, err)
		}
		l2, err := p2.NewList(p2.RootOid(), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := l2.Len()
		if err != nil {
			t.Fatalf("barrier %d: corrupt list after recovery: %v", barrier, err)
		}
		if n != 1 {
			t.Fatalf("barrier %d: list length %d, want 1 (old or new state)", barrier, n)
		}
		if !crashed {
			break
		}
	}
}
