package imgstore

import (
	"math/rand"
	"testing"

	"pmfuzz/internal/pmem"
)

// benchImage builds a pool-like image: mostly zeros with scattered
// structure, the compression profile the store actually sees.
func benchImage(seed int64) *pmem.Image {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1<<20)
	for i := 0; i < 200; i++ {
		off := rng.Intn(len(data) - 64)
		rng.Read(data[off : off+64])
	}
	return pmem.NewImage([16]byte{}, "bench", data)
}

func BenchmarkPutCompress(b *testing.B) {
	s := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Put(benchImage(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutDedup(b *testing.B) {
	s := New(0)
	img := benchImage(1)
	if _, _, err := s.Put(img); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fresh, err := s.Put(img); err != nil || fresh {
			b.Fatal("dedup miss")
		}
	}
}

func BenchmarkGetDecompress(b *testing.B) {
	s := New(0) // no cache: every Get decompresses
	id, _, err := s.Put(benchImage(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(id, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCached(b *testing.B) {
	s := New(4)
	id, _, err := s.Put(benchImage(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Get(id, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(id, nil); err != nil {
			b.Fatal(err)
		}
	}
}
