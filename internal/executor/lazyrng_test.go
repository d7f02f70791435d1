package executor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesEager checks that a rand.Rand over lazySource
// draws exactly what one over an eagerly seeded source draws, across a
// mix of the methods that take the Int63 and the Uint64 paths, and again
// after a reseed.
func TestLazySourceMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		eager := rand.New(rand.NewSource(seed))
		lazy := rand.New(&lazySource{seed: seed})
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		for round := 0; round < 2; round++ {
			for i := 0; i < 2000; i++ {
				var a, b uint64
				switch op := mix.Intn(5); op {
				case 0:
					a, b = uint64(eager.Int63()), uint64(lazy.Int63())
				case 1:
					a, b = eager.Uint64(), lazy.Uint64()
				case 2:
					a, b = uint64(eager.Uint32()), uint64(lazy.Uint32())
				case 3:
					n := 1 + mix.Intn(1000)
					a, b = uint64(eager.Intn(n)), uint64(lazy.Intn(n))
				case 4:
					n := 1 + mix.Int63n(1<<50)
					a, b = uint64(eager.Int63n(n)), uint64(lazy.Int63n(n))
				}
				if a != b {
					t.Fatalf("seed %d round %d draw %d: lazy %d, eager %d", seed, round, i, b, a)
				}
			}
			eager.Seed(seed + 1)
			lazy.Seed(seed + 1)
		}
	}
}

// TestArenaRNGMatchesFresh runs workloads that draw from the RNG on one
// arena with alternating seeds, so its pooled generator is reseeded in
// place between runs, and requires the results of fresh runs.
func TestArenaRNGMatchesFresh(t *testing.T) {
	arena := NewArena()
	for round := 0; round < 2; round++ {
		for _, wl := range []string{"hashmap-tx", "skiplist", "btree", "hashmap-atomic"} {
			for _, seed := range []int64{1, 2} {
				tc := TestCase{Workload: wl, Input: arenaInput, Seed: seed}
				fresh := Run(tc, Options{})
				reused := Run(tc, Options{Arena: arena})
				compareResults(t, fmt.Sprintf("%s seed %d round %d", wl, seed, round), fresh, reused)
				arena.Recycle(reused)
			}
		}
	}
	// The seed must reach the image, or this test checks nothing.
	a := Run(TestCase{Workload: "hashmap-tx", Input: arenaInput, Seed: 1}, Options{})
	b := Run(TestCase{Workload: "hashmap-tx", Input: arenaInput, Seed: 2}, Options{})
	if bytes.Equal(a.Image.Bytes(), b.Image.Bytes()) {
		t.Fatal("hashmap-tx images do not depend on the seed")
	}
}
