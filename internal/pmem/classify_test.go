package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
)

// scriptSweep journals a scripted segment on top of a scripted warm-up
// segment and returns the detached journal.
func scriptSweep(t *testing.T, size int, seed int64, steps int) *Sweep {
	t.Helper()
	d, _ := scriptDevice(size, seed, steps, nil)
	d.BeginSweep()
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < steps; i++ {
		off := rng.Intn(size - 16)
		var p [8]byte
		rng.Read(p[:])
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			d.Store(off, p[:], instr.SiteID(i))
		case 4:
			d.NTStore(off, p[:], instr.SiteID(i))
		case 5, 6:
			d.Flush(off, 16, instr.SiteID(i))
		case 7, 8:
			d.Fence(instr.SiteID(i))
		default:
			d.MarkCommitVar(off, 4)
			d.Load(off, p[:], instr.SiteID(i))
		}
	}
	sw := d.EndSweep()
	if sw == nil || sw.Barriers() == 0 {
		t.Fatalf("seed %d: no journal", seed)
	}
	_ = d.Close([16]byte{}, "")
	return sw
}

// TestPartitionerMatchesCursor pins the equivalence layer's core claim:
// every fingerprint component the Partitioner derives from the journal
// equals what a materialized cursor image would yield — the image hash
// matches Image.Hash on the cursor's bytes, the taint signature matches
// the checkpoint's lost set, and the commit-variable count/signature
// match the normalized prefix over the materialized data. Checked at
// every pre-fence and barrier point, forward then out of order.
func TestPartitionerMatchesCursor(t *testing.T) {
	const size, steps, layout = 4096, 400, "script"
	for seed := int64(1); seed <= 3; seed++ {
		sw := scriptSweep(t, size, seed, steps)
		cur := sw.Cursor()
		part := sw.Partition(layout)

		wantFP := func(data []byte, lost []Range, cvCount int) Fingerprint {
			rs := sw.CommitVarsAt(cvCount)
			img := NewImage([16]byte{}, layout, data)
			return Fingerprint{
				ImageHash: img.Hash(),
				TaintSig:  TaintSignature(lost),
				CVCount:   len(rs),
				CVHash:    CommitVarSignature(rs, img),
			}
		}

		type point struct {
			b        int
			preFence bool
			want     Fingerprint
		}
		var points []point
		for b := 1; b <= sw.Barriers(); b++ {
			cp := sw.Checkpoint(b)
			if cp.PreOp >= 1 {
				fp, ok := part.PreFence(b)
				if !ok {
					t.Fatalf("seed %d barrier %d: PreFence refused an existing point", seed, b)
				}
				want := wantFP(cur.PreFenceImage(b, "").Bytes(), cp.PreLost, cp.PreCommitVarCount)
				if fp != want {
					t.Fatalf("seed %d barrier %d: pre-fence fingerprint differs:\n got %+v\nwant %+v", seed, b, fp, want)
				}
				points = append(points, point{b: b, preFence: true, want: want})
			} else if _, ok := part.PreFence(b); ok {
				t.Fatalf("seed %d barrier %d: PreFence accepted a nonexistent point", seed, b)
			}
			fp := part.Barrier(b)
			want := wantFP(cur.Image(b, "").Bytes(), cp.Lost, cp.CommitVarCount)
			if fp != want {
				t.Fatalf("seed %d barrier %d: barrier fingerprint differs:\n got %+v\nwant %+v", seed, b, fp, want)
			}
			points = append(points, point{b: b, want: want})
		}

		// Out-of-order re-fingerprinting must rebuild from the base and
		// reproduce the forward walk's values exactly.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			p := points[rng.Intn(len(points))]
			if p.preFence {
				fp, ok := part.PreFence(p.b)
				if !ok || fp != p.want {
					t.Fatalf("seed %d barrier %d: random-access pre-fence fingerprint diverged", seed, p.b)
				}
			} else if fp := part.Barrier(p.b); fp != p.want {
				t.Fatalf("seed %d barrier %d: random-access barrier fingerprint diverged", seed, p.b)
			}
		}
		if part.AppliedLines() == 0 {
			t.Fatalf("seed %d: partitioner applied no delta lines", seed)
		}
	}
}

// TestSweepCursorSeekOrder pins SweepCursor's random-access contract:
// backward and arbitrary-order seeks rebuild from the base and produce
// images byte-identical to a forward-only walk, for barrier and
// pre-fence materializations alike.
func TestSweepCursorSeekOrder(t *testing.T) {
	const size, steps = 4096, 300
	sw := scriptSweep(t, size, 7, steps)

	fwd := sw.Cursor()
	images := make(map[int][]byte, sw.Barriers())
	prefence := make(map[int][]byte)
	for b := 1; b <= sw.Barriers(); b++ {
		if sw.Checkpoint(b).PreOp >= 1 {
			prefence[b] = fwd.PreFenceImage(b, "").Bytes()
		}
		images[b] = fwd.Image(b, "").Bytes()
	}

	// Strictly backward on one persistent cursor.
	back := sw.Cursor()
	for b := sw.Barriers(); b >= 1; b-- {
		if !bytes.Equal(back.Image(b, "").Bytes(), images[b]) {
			t.Fatalf("backward seek to %d diverges", b)
		}
		if want, ok := prefence[b]; ok && !bytes.Equal(back.PreFenceImage(b, "").Bytes(), want) {
			t.Fatalf("backward pre-fence seek to %d diverges", b)
		}
	}

	// Random-access on the same (already-rewound) cursor.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		b := 1 + rng.Intn(sw.Barriers())
		if !bytes.Equal(back.Image(b, "").Bytes(), images[b]) {
			t.Fatalf("random seek to %d diverges", b)
		}
	}
}

// TestCommitVarsAtBoundaries pins CommitVarsAt at the journal's edge
// barriers (b=1 and b=Barriers()) and degenerate counts: n=0 is empty,
// n past the registration log clamps, and every returned slice is a
// fresh normalized copy the caller may mutate.
func TestCommitVarsAtBoundaries(t *testing.T) {
	const size, steps = 4096, 300
	sw := scriptSweep(t, size, 11, steps)

	if got := sw.CommitVarsAt(0); len(got) != 0 {
		t.Fatalf("CommitVarsAt(0) = %v, want empty", got)
	}
	first := sw.Checkpoint(1)
	last := sw.Checkpoint(sw.Barriers())
	for _, n := range []int{first.CommitVarCount, last.CommitVarCount, 1 << 20} {
		got := sw.CommitVarsAt(n)
		if !rangesEq(got, NormalizeRanges(got)) {
			t.Fatalf("CommitVarsAt(%d) not normalized: %v", n, got)
		}
		// The slice must be caller-owned: mutating it cannot perturb a
		// subsequent call.
		if len(got) > 0 {
			got[0].Off ^= 1
			again := sw.CommitVarsAt(n)
			if len(again) > 0 && again[0].Off == got[0].Off {
				t.Fatalf("CommitVarsAt(%d) returned a shared slice", n)
			}
		}
	}
	// Counts are monotone along the journal: the last barrier sees at
	// least as many registrations as the first.
	if last.CommitVarCount < first.CommitVarCount {
		t.Fatalf("commit-var counts not monotone: first=%d last=%d", first.CommitVarCount, last.CommitVarCount)
	}
}
