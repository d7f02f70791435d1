package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
)

// sharingSize is a pool of six full pages and a partial one.
const sharingSize = 6*PageSize + 3*LineSize

// randomOps drives n random stores, non-temporal stores, flushes and
// fences into d. Writes cluster in a few pages, so most pages stay
// shared with the device's base, and some straddle a page boundary.
func randomOps(rng *rand.Rand, d *Device, n int) {
	size := d.Size()
	for i := range n {
		site := instr.SiteID(i)
		off := rng.Intn(size)
		if rng.Intn(3) != 0 {
			off = min(size-1, rng.Intn(2)*3*PageSize+rng.Intn(PageSize+PageSize/2))
		}
		p := make([]byte, 1+rng.Intn(min(96, size-off)))
		rng.Read(p)
		switch rng.Intn(5) {
		case 0, 1:
			d.Store(off, p, site)
		case 2:
			d.NTStore(off, p, site)
		case 3:
			d.Flush(off, len(p), site)
		default:
			d.Fence(site)
		}
	}
}

// keptImage is an image and the flat reference of its contents and ID,
// taken when it was produced.
type keptImage struct {
	img  *Image
	want []byte
	id   [32]byte
}

func keep(img *Image) keptImage {
	flat := img.Bytes()
	return keptImage{img: img, want: flat, id: ContentHash(img.UUID, img.Layout, flat)}
}

// checkKept requires every kept image to still hold its reference bytes
// and ID.
func checkKept(t *testing.T, stage string, kept []keptImage) {
	t.Helper()
	for i, k := range kept {
		if !bytes.Equal(k.img.Bytes(), k.want) {
			t.Fatalf("%s: image %d bytes changed", stage, i)
		}
		if k.img.Hash() != k.id {
			t.Fatalf("%s: image %d ID differs from the cold ID of its bytes", stage, i)
		}
	}
}

// TestPageSharedSweepImages journals a sweep and keeps every crash image
// the cursor emits, plus the run's output image. The images share pages
// with each other, with the base and with the cursor's working vector;
// none may change when the cursor moves on (forward or backward), nor
// when a device is reset onto them in random order and written.
func TestPageSharedSweepImages(t *testing.T) {
	for seed := range int64(6) {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, sharingSize)
		rng.Read(data)
		base := NewImage([16]byte{9}, "share", data)
		var kept []keptImage
		if seed%2 == 0 {
			base.Seal() // with and without a base leaf vector
		}
		kept = append(kept, keep(base))

		d := NewDeviceFromImage(base)
		d.BeginSweep()
		randomOps(rng, d, 120)
		sw := d.EndSweep()
		kept = append(kept, keep(d.Close([16]byte{9}, "share")))

		cur := sw.Cursor()
		for b := 1; b <= sw.Barriers(); b++ {
			if sw.Checkpoint(b).PreOp >= 1 {
				kept = append(kept, keep(cur.PreFenceImage(b, "share")))
			}
			kept = append(kept, keep(cur.Image(b, "share")))
		}
		for _, b := range rng.Perm(sw.Barriers()) {
			kept = append(kept, keep(cur.Image(b+1, "share")))
		}
		checkKept(t, "after the cursor moved on", kept)

		dev := NewDevice(sharingSize)
		for _, i := range rng.Perm(len(kept)) {
			dev.Reset(kept[i].img)
			if !bytes.Equal(dev.PersistedSnapshot(), kept[i].want) {
				t.Fatalf("seed %d: reset onto image %d restored other bytes", seed, i)
			}
			randomOps(rng, dev, 40)
			kept = append(kept, keep(dev.Close([16]byte{9}, "share")))
		}
		checkKept(t, "after resets onto the images", kept)
	}
}

// TestPageSharedDeviceReset is the differential test of Device.Reset:
// one device is reset over and over onto images that share pages with
// its previous base (its own outputs, edits of them, crash images),
// onto unrelated images, onto an empty state and onto a pool of another
// size. After every reset its persisted and volatile state must equal a
// device built with NewDeviceFromImage (or NewDevice), and after the
// same random operations on both they must still agree.
func TestPageSharedDeviceReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(size int) *Image {
		data := make([]byte, size)
		rng.Read(data)
		return NewImage([16]byte{}, "reset", data)
	}
	pool := []*Image{nil, random(sharingSize), random(sharingSize), random(3 * PageSize)}
	d := NewDevice(sharingSize)
	for round := range 200 {
		img := pool[rng.Intn(len(pool))]
		var ref *Device
		if img == nil {
			d.ResetEmpty(sharingSize)
			ref = NewDevice(sharingSize)
		} else {
			d.Reset(img)
			ref = NewDeviceFromImage(img)
		}
		same := func(stage string) {
			t.Helper()
			if !bytes.Equal(d.persisted, ref.persisted) || !bytes.Equal(d.volatile, ref.volatile) {
				t.Fatalf("round %d %s: reused device state differs from a fresh device", round, stage)
			}
		}
		same("after reset")
		seed := rng.Int63()
		randomOps(rand.New(rand.NewSource(seed)), d, 30)
		randomOps(rand.New(rand.NewSource(seed)), ref, 30)
		same("after the same operations")

		switch rng.Intn(3) {
		case 0: // the run's output, sharing all but its written pages
			pool = append(pool, d.Close([16]byte{}, "reset"))
		case 1: // an edit of a pooled image
			if base := pool[1+rng.Intn(len(pool)-1)]; base.Size() > LineSize {
				e := base.Edit()
				p := make([]byte, LineSize)
				rng.Read(p)
				e.WriteAt(p, int64(rng.Intn(base.Size()-LineSize)))
				pool = append(pool, e.Image([16]byte{}, "reset"))
			}
		default: // a crash state, persisted but not closed
			pool = append(pool, d.PersistedImage([16]byte{}, "reset"))
		}
	}
}
