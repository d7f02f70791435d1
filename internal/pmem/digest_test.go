package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
)

// randomSweep builds a journal over base by hand: nBarriers checkpoints
// whose deltas are random ascending line sets (the final line clipped to
// the pool size, as the device journals it) and whose pre-fence deltas
// are random subsets of them.
func randomSweep(rng *rand.Rand, base, leaves []byte, nBarriers int) *Sweep {
	size := len(base)
	nLines := (size + LineSize - 1) / LineSize
	sw := &Sweep{base: pageSlices(base), leaves: leaves}
	for b := 1; b <= nBarriers; b++ {
		cp := Checkpoint{Barrier: b, Op: 2 * b, PreOp: 2*b - 1}
		// Mostly a few lines clustered in one region, sometimes spread
		// over the whole pool.
		lo, hi := 0, nLines
		if rng.Intn(4) != 0 {
			lo = rng.Intn(nLines)
			hi = min(nLines, lo+1+rng.Intn(3*PageSize/LineSize))
		}
		for l := lo; l < hi; l++ {
			if rng.Intn(8) != 0 {
				continue
			}
			start, end := lineBounds(l, size)
			data := make([]byte, end-start)
			rng.Read(data)
			cp.Delta = append(cp.Delta, LineDelta{Line: l, Data: data})
			if rng.Intn(2) == 0 {
				cp.PreDelta = append(cp.PreDelta, LineDelta{Line: l, Data: data})
			}
		}
		sw.cps = append(sw.cps, cp)
	}
	return sw
}

// TestPageRootIncremental pins the page digest's derivation paths to the
// cold pass: over random and empty bases, pool sizes that are and are
// not page multiples, random ascending line-delta sequences and forward,
// backward and random access, every ID the sweep cursor, the
// Partitioner, ImageEdit and Seal derive equals ContentHash of the same
// bytes.
func TestPageRootIncremental(t *testing.T) {
	const layout = "digest"
	sizes := []int{100, PageSize, 3*PageSize + 123, 4 * PageSize, 9*PageSize + LineSize}
	for _, size := range sizes {
		for _, empty := range []bool{true, false} {
			rng := rand.New(rand.NewSource(int64(size)))
			base := make([]byte, size)
			leaves := zeroLeaves(size)
			if !empty {
				rng.Read(base)
				leaves = coldLeaves(pageSlices(base))
			} else if !bytes.Equal(leaves, coldLeaves(pageSlices(base))) {
				t.Fatalf("size %d: zero-page leaves differ from a cold pass over zeros", size)
			}
			sw := randomSweep(rng, base, leaves, 12)
			cold := func(data []byte) [32]byte { return ContentHash([16]byte{}, layout, data) }

			cur, part := sw.Cursor(), sw.Partition(layout)
			type point struct {
				b   int
				pre bool
			}
			var points []point
			for b := 1; b <= sw.Barriers(); b++ {
				pre := cur.PreFenceImage(b, layout)
				fp, ok := part.PreFence(b)
				if !ok || pre.Hash() != cold(pre.Bytes()) || fp.ImageHash != pre.Hash() {
					t.Fatalf("size %d empty %t: pre-fence %d root differs from the cold root", size, empty, b)
				}
				img := cur.Image(b, layout)
				if img.Hash() != cold(img.Bytes()) || part.Barrier(b).ImageHash != img.Hash() {
					t.Fatalf("size %d empty %t: barrier %d root differs from the cold root", size, empty, b)
				}
				points = append(points, point{b, true}, point{b, false})
			}
			// Backward, then random, access rebuilds from the base leaves.
			for i := len(points) - 1; i >= 0; i-- {
				points = append(points, points[i])
			}
			for range 24 {
				points = append(points, points[rng.Intn(len(points))])
			}
			for _, p := range points {
				var img *Image
				var fp [32]byte
				if p.pre {
					img = cur.PreFenceImage(p.b, layout)
					f, _ := part.PreFence(p.b)
					fp = f.ImageHash
				} else {
					img = cur.Image(p.b, layout)
					fp = part.Barrier(p.b).ImageHash
				}
				if want := cold(img.Bytes()); img.Hash() != want || fp != want {
					t.Fatalf("size %d empty %t: point %+v root differs from the cold root after a seek", size, empty, p)
				}
			}

			// Edits over random runs, and Seal, against the cold root.
			src := NewImage([16]byte{7}, layout, append([]byte(nil), base...))
			src.Seal()
			for range 8 {
				e := src.Edit()
				for range 1 + rng.Intn(4) {
					off := rng.Intn(size)
					run := make([]byte, 1+rng.Intn(min(size-off, 2*PageSize)))
					rng.Read(run)
					if _, err := e.WriteAt(run, int64(off)); err != nil {
						t.Fatal(err)
					}
				}
				d := e.Image(src.UUID, layout)
				want := ContentHash(d.UUID, layout, d.Bytes())
				if d.Hash() != want {
					t.Fatalf("size %d empty %t: derived root differs from the cold root", size, empty)
				}
				if d.Seal() != want || d.Hash() != want {
					t.Fatalf("size %d empty %t: sealed root differs from the cold root", size, empty)
				}
				src = d
			}
		}
	}
}

// TestDeviceImageRootMatchesCold checks the device's own derivation:
// persisted images taken mid-run and at close, and sweep images, on an
// empty base, on an image base reached through both the full and the
// fast reset paths, and on a base without leaves, hash to the cold root
// of their bytes.
func TestDeviceImageRootMatchesCold(t *testing.T) {
	const size = 5*PageSize + 200
	check := func(what string, img *Image) {
		t.Helper()
		if img.Hash() != ContentHash(img.UUID, img.Layout, img.Bytes()) {
			t.Fatalf("%s: derived root differs from the cold root", what)
		}
	}
	run := func(d *Device, seed int64) *Image {
		rng := rand.New(rand.NewSource(seed))
		for i := range 60 {
			off := rng.Intn(size - 8)
			d.Store(off, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, instr.SiteID(i))
			if i%3 == 0 {
				d.Flush(off, 8, instr.SiteID(i))
				d.Fence(instr.SiteID(i))
			}
		}
		check("mid-run", d.PersistedImage([16]byte{1}, "dev"))
		return d.Close([16]byte{1}, "dev")
	}
	sweep := func(d *Device, seed int64) {
		d.BeginSweep()
		run(d, seed)
		sw := d.EndSweep()
		cur := sw.Cursor()
		for b := sw.Barriers(); b >= 1; b -= 3 {
			img := cur.Image(b, "dev")
			if img.Hash() != ContentHash([16]byte{}, "dev", img.Bytes()) {
				t.Fatalf("sweep barrier %d: derived root differs from the cold root", b)
			}
		}
	}
	d := NewDevice(size)
	out := run(d, 1)
	check("empty base", out)
	for i, seed := range []int64{2, 3, 4} { // full reset, then fast resets
		d.Reset(out)
		check("image base", run(d, seed))
		if i == 0 {
			d.ResetEmpty(size)
			check("empty base again", run(d, 5))
		}
	}
	leafless := NewImage([16]byte{}, "dev", out.Bytes())
	d.Reset(leafless)
	check("leafless base", run(d, 6))
	for _, base := range []*Image{nil, out, leafless} {
		if base == nil {
			d.ResetEmpty(size)
		} else {
			d.Reset(base)
		}
		sweep(d, 7)
	}
}

// TestImageIDFramesLengths pins the root's length framing: moving bytes
// between layout and data, or growing data by zero bytes, changes the ID.
func TestImageIDFramesLengths(t *testing.T) {
	a := NewImage([16]byte{}, "ab", []byte("c"))
	b := NewImage([16]byte{}, "a", []byte("bc"))
	c := NewImage([16]byte{}, "ab", []byte("c\x00"))
	if a.Hash() == b.Hash() || a.Hash() == c.Hash() {
		t.Fatal("image IDs do not frame layout and data lengths")
	}
}
