package executor

import (
	"testing"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
)

// TestDeviceOutputRootMatchesCold pins the device-side derivation of
// image IDs on every workload: output images of clean runs and of
// probabilistic-failure crashes, on an empty base and on an image base,
// through a fresh device and through an arena's full and fast resets,
// all hash to the cold root of their bytes.
func TestDeviceOutputRootMatchesCold(t *testing.T) {
	names := workloads.Names()
	if len(names) != 8 {
		t.Fatalf("want 8 workloads, got %d", len(names))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			check := func(what string, res *Result) {
				t.Helper()
				if res.Faulted() || res.Image == nil {
					t.Fatalf("%s: run faulted or produced no image", what)
				}
				img := res.Image
				if img.Hash() != pmem.ContentHash(img.UUID, img.Layout, img.Bytes()) {
					t.Fatalf("%s: derived root differs from the cold root", what)
				}
			}
			tc := TestCase{Workload: name, Input: sweepInput(name), Seed: 3}
			fresh := Run(tc, Options{})
			check("empty base, fresh device", fresh)

			arena := NewArena()
			onImage := tc
			onImage.Image = fresh.Image
			onImage.Input = sweepInput(name)[:len(sweepInput(name))/2]
			for i, c := range []TestCase{tc, tc, onImage, onImage, tc} {
				// Runs 1 and 3 repeat their predecessor's base, so the
				// arena takes the fast reset path.
				check("arena run", Run(c, Options{Arena: arena}))
				crashed := 0
				for s := int64(0); s < 6; s++ {
					cp := c
					cp.Injector = pmem.NewProbabilisticFailure(s+int64(i)*31, 0.02)
					if res := Run(cp, Options{Arena: arena}); res.Crashed {
						crashed++
						if res.Image.Hash() != pmem.ContentHash(res.Image.UUID, res.Image.Layout, res.Image.Bytes()) {
							t.Fatalf("run %d seed %d: crash image root differs from the cold root", i, s)
						}
					}
				}
				if crashed == 0 {
					t.Fatalf("run %d: no probabilistic failure fired", i)
				}
			}
		})
	}
}
