package pmem

import "testing"

func BenchmarkStore(b *testing.B) {
	d := NewDevice(1 << 20)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store((i*8)%(1<<19), buf, site)
	}
}

func BenchmarkStoreFlushFence(b *testing.B) {
	d := NewDevice(1 << 20)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 8) % (1 << 19)
		d.Store(off, buf, site)
		d.Flush(off, 8, site)
		d.Fence(site)
	}
}

func BenchmarkPersistedSnapshot(b *testing.B) {
	d := NewDevice(1 << 20)
	d.Store(0, make([]byte, 4096), site)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.PersistedSnapshot()
	}
}

func BenchmarkImageMarshal(b *testing.B) {
	img := NewImage([16]byte{}, "bench", make([]byte, 1<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = img.Marshal()
	}
}

// BenchmarkImageHash measures a 1 MiB image's ID: "cold" hashes every
// page, "derived" rehashes one dirty page over a base's leaves and runs
// the root pass — the cost a crash image pays.
func BenchmarkImageHash(b *testing.B) {
	base := NewImage([16]byte{}, "bench", make([]byte, 1<<20))
	base.Seal()
	b.Run("cold", func(b *testing.B) {
		img := NewImage([16]byte{}, "bench", base.Bytes())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = img.Hash()
		}
	})
	b.Run("derived", func(b *testing.B) {
		e := base.Edit()
		e.WriteAt([]byte{1}, 5*PageSize+7)
		img := e.Image([16]byte{}, "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = img.Hash()
		}
	})
}
