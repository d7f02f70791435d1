package pmem

import (
	"bytes"
	"testing"

	"pmfuzz/internal/instr"
)

// scriptedRun drives a fixed little workload against dev: two stores on
// separate lines, a flush+fence for the first, a flush without fence for
// the second, and a final dirty store. It panics mid-way when the device's
// injector or op limit fires, exactly like instrumented program code.
func scriptedRun(dev *Device) {
	site := instr.ID("reuse-test")
	dev.Store(0, []byte("persisted line"), site)
	dev.Flush(0, 14, site)
	dev.Fence(site)
	dev.Store(128, []byte("flushed not fenced"), site)
	dev.Flush(128, 18, site)
	dev.Store(256, []byte("dirty only"), site)
}

// TestDeviceReuseAcrossCrashHangClean reuses ONE device arena across a
// crashed run, a hung run, and a clean run, and demands the clean run's
// final image be byte-identical to a fresh device's. Any state leak from
// the aborted runs — a surviving dirty/queued line, a stale epoch stamp, a
// leftover injector, op limit, or sweep journal — shows up as a diff.
func TestDeviceReuseAcrossCrashHangClean(t *testing.T) {
	const size = 4096

	// Reference: a fresh device per run.
	ref := NewDevice(size)
	scriptedRun(ref)
	want := ref.Close([16]byte{}, "").Bytes()

	reused := NewDevice(size)

	// Leg 1: crash at the first fence, leaving queued/dirty lines behind.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("crash leg: expected a Crash panic")
			} else if _, ok := r.(Crash); !ok {
				t.Fatalf("crash leg: panic %v, want Crash", r)
			}
		}()
		reused.SetInjector(BarrierFailure{N: 1})
		scriptedRun(reused)
	}()

	// Leg 2: hang via op limit, aborting with volatile state in flight.
	reused.ResetEmpty(size)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("hang leg: expected a Hang panic")
			} else if _, ok := r.(Hang); !ok {
				t.Fatalf("hang leg: panic %v, want Hang", r)
			}
		}()
		reused.SetOpLimit(2)
		scriptedRun(reused)
	}()

	// Leg 3: clean run on the same arena.
	reused.ResetEmpty(size)
	if n := reused.DirtyLines(); n != 0 {
		t.Fatalf("dirty lines after reset = %d, want 0", n)
	}
	if n := reused.QueuedLines(); n != 0 {
		t.Fatalf("queued lines after reset = %d, want 0", n)
	}
	if rs := reused.UnpersistedRanges(); len(rs) != 0 {
		t.Fatalf("unpersisted ranges after reset = %v, want none", rs)
	}
	scriptedRun(reused)
	got := reused.Close([16]byte{}, "").Bytes()

	if !bytes.Equal(got, want) {
		t.Fatalf("reused-device image differs from fresh-device image")
	}
}

// TestDeviceResetFromImageFastPath checks the same-base fast Reset: a
// device reset repeatedly onto one image must behave exactly like a device
// freshly constructed from that image, including after runs that crashed
// part-way and left touched lines behind.
func TestDeviceResetFromImageFastPath(t *testing.T) {
	const size = 4096
	site := instr.ID("reuse-test-base")

	// Build a base image with recognizable persisted content.
	seed := NewDevice(size)
	seed.Store(0, []byte("base image content"), site)
	seed.Flush(0, 18, site)
	seed.Fence(site)
	base := NewImage([16]byte{}, "t", seed.Close([16]byte{}, "").Bytes())

	want := func() []byte {
		d := NewDeviceFromImage(base)
		scriptedRun(d)
		return d.Close([16]byte{}, "").Bytes()
	}()

	d := NewDeviceFromImage(base)
	for i := 0; i < 3; i++ {
		// A crashed run in between must not poison the next reset.
		func() {
			defer func() { recover() }()
			d.SetInjector(OpFailure{N: 2})
			scriptedRun(d)
		}()
		d.Reset(base)
		scriptedRun(d)
		got := d.Close([16]byte{}, "").Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: reset-device image differs from fresh NewDeviceFromImage", i)
		}
		d.Reset(base)
	}

	// The base image itself must never be mutated by device runs.
	if !bytes.Equal(base.Bytes()[:18], []byte("base image content")) {
		t.Fatal("base image mutated by device reuse")
	}
}
