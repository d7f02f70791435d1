package pmemobj

import (
	"testing"

	"pmfuzz/internal/pmem"
)

func benchPool(b *testing.B) *Pool {
	b.Helper()
	dev := pmem.NewDevice(4 << 20)
	p, err := Create(dev, "bench", Options{Derandomize: true})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkTxCommitSmall(b *testing.B) {
	p := benchPool(b)
	root, _ := p.Root(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := p.Tx(func() error {
			if err := p.TxAdd(root, 0, 8); err != nil {
				return err
			}
			p.SetU64(root, 0, uint64(i))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxAddRangeTreeLookup(b *testing.B) {
	p := benchPool(b)
	root, _ := p.Root(4096)
	p.Begin()
	if err := p.TxAdd(root, 0, 4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fully covered: exercises the redundant-add lookup path (the
		// performance cost Bugs 8–12 pay).
		if err := p.TxAdd(root, uint64(i%4088), 8); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Abort()
}

func BenchmarkAllocFree(b *testing.B) {
	p := benchPool(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oid, err := p.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(oid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenWithRecovery(b *testing.B) {
	// Build a crash image with a pending undo log, then repeatedly open it.
	p := benchPool(b)
	root, _ := p.Root(64)
	dev := p.dev
	func() {
		defer func() { _ = recover() }()
		p.Begin()
		if err := p.TxAdd(root, 0, 8); err != nil {
			b.Fatal(err)
		}
		p.SetU64(root, 0, 42)
		dev.SetInjector(pmem.BarrierFailure{N: dev.Barriers() + 1})
		p.Drain()
	}()
	img := pmem.NewImage([16]byte{}, "bench", dev.PersistedSnapshot())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2, err := Open(pmem.NewDeviceFromImage(img), "bench")
		if err != nil {
			b.Fatal(err)
		}
		if !p2.Recovered() {
			b.Fatal("no recovery ran")
		}
	}
}
