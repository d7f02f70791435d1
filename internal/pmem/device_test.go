package pmem

import (
	"bytes"
	"testing"
	"testing/quick"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/trace"
)

const site = instr.SiteID(1)

func TestStoreIsVolatileUntilFence(t *testing.T) {
	d := NewDevice(1024)
	d.Store(0, []byte{1, 2, 3}, site)
	if got := d.PersistedSnapshot()[0]; got != 0 {
		t.Fatalf("store persisted without flush+fence: %d", got)
	}
	d.Flush(0, 3, site)
	if got := d.PersistedSnapshot()[0]; got != 0 {
		t.Fatalf("flush alone persisted data: %d", got)
	}
	d.Fence(site)
	if got := d.PersistedSnapshot()[0]; got != 1 {
		t.Fatalf("after fence persisted[0]=%d, want 1", got)
	}
}

func TestLoadSeesVolatileState(t *testing.T) {
	d := NewDevice(256)
	d.Store(10, []byte{42}, site)
	b := make([]byte, 1)
	d.Load(10, b, site)
	if b[0] != 42 {
		t.Fatalf("load returned %d, want 42", b[0])
	}
}

func TestFlushWholeLineGranularity(t *testing.T) {
	// Flushing one byte must flush its whole cache line.
	d := NewDevice(256)
	d.Store(0, bytes.Repeat([]byte{9}, LineSize), site)
	d.Flush(5, 1, site)
	d.Fence(site)
	p := d.PersistedSnapshot()
	for i := 0; i < LineSize; i++ {
		if p[i] != 9 {
			t.Fatalf("byte %d of flushed line not persisted", i)
		}
	}
}

func TestStoreAfterFlushReDirties(t *testing.T) {
	d := NewDevice(256)
	d.Store(0, []byte{1}, site)
	d.Flush(0, 1, site)
	d.Store(1, []byte{2}, site) // same line: must re-dirty, dropping the queued state
	d.Fence(site)
	p := d.PersistedSnapshot()
	if p[0] != 0 || p[1] != 0 {
		t.Fatalf("re-dirtied line persisted at fence: %v", p[:2])
	}
}

func TestNTStoreQueuesWithoutFlush(t *testing.T) {
	d := NewDevice(256)
	d.NTStore(0, []byte{7}, site)
	if d.QueuedLines() != 1 || d.DirtyLines() != 0 {
		t.Fatalf("NT store: queued=%d dirty=%d, want 1,0", d.QueuedLines(), d.DirtyLines())
	}
	d.Fence(site)
	if d.PersistedSnapshot()[0] != 7 {
		t.Fatalf("NT store not durable after fence")
	}
}

func TestClosePersistsEverything(t *testing.T) {
	d := NewDevice(256)
	d.Store(100, []byte{5, 6}, site)
	data := d.Close([16]byte{}, "").Bytes()
	if data[100] != 5 || data[101] != 6 {
		t.Fatalf("Close did not persist dirty data")
	}
}

func TestClosedDevicePanics(t *testing.T) {
	d := NewDevice(64)
	d.Close([16]byte{}, "")
	defer func() {
		if recover() == nil {
			t.Fatalf("store on closed device did not panic")
		}
	}()
	d.Store(0, []byte{1}, site)
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(64)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range store did not panic")
		}
	}()
	d.Store(60, []byte{1, 2, 3, 4, 5}, site)
}

func TestBarrierFailureInjection(t *testing.T) {
	d := NewDevice(256)
	d.SetInjector(BarrierFailure{N: 2})
	crashed := func() (c *Crash) {
		defer func() {
			if r := recover(); r != nil {
				cr := r.(Crash)
				c = &cr
			}
		}()
		d.Store(0, []byte{1}, site)
		d.Flush(0, 1, site)
		d.Fence(site) // barrier 1
		d.Store(64, []byte{2}, site)
		d.Flush(64, 1, site)
		d.Fence(site) // barrier 2: crash fires here
		d.Store(128, []byte{3}, site)
		return nil
	}()
	if crashed == nil {
		t.Fatalf("injected failure did not fire")
	}
	if crashed.Barrier != 2 {
		t.Fatalf("crash at barrier %d, want 2", crashed.Barrier)
	}
	// The fence's effect applies before the crash: both stores durable.
	p := d.PersistedSnapshot()
	if p[0] != 1 || p[64] != 2 {
		t.Fatalf("persisted state at crash: %d,%d want 1,2", p[0], p[64])
	}
	if p[128] != 0 {
		t.Fatalf("store after crash point leaked into image")
	}
}

func TestOpFailureInjection(t *testing.T) {
	d := NewDevice(256)
	d.SetInjector(OpFailure{N: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("op failure did not fire")
		}
		c := r.(Crash)
		if c.Op != 2 || c.Barrier != -1 {
			t.Fatalf("crash = %+v, want op 2, barrier -1", c)
		}
	}()
	d.Store(0, []byte{1}, site) // op 1
	d.Store(8, []byte{2}, site) // op 2: crash
	d.Store(16, []byte{3}, site)
}

func TestProbabilisticFailureDeterministic(t *testing.T) {
	run := func() int {
		d := NewDevice(4096)
		d.SetInjector(NewProbabilisticFailure(99, 0.01))
		at := -1
		func() {
			defer func() {
				if r := recover(); r != nil {
					at = r.(Crash).Op
				}
			}()
			for i := 0; i < 4000; i += 8 {
				d.Store(i%4000, []byte{byte(i)}, site)
			}
		}()
		return at
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("probabilistic injection not deterministic: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("probabilistic injection never fired over 500 ops at 1%%")
	}
}

func TestUnpersistedRanges(t *testing.T) {
	d := NewDevice(512)
	d.Store(10, []byte{1, 2, 3}, site)
	rs := d.UnpersistedRanges()
	if len(rs) != 1 || rs[0].Off != 10 || rs[0].Len != 3 {
		t.Fatalf("UnpersistedRanges = %+v, want [{10 3}]", rs)
	}
	d.Flush(10, 3, site)
	// Flushed-but-unfenced is still unpersisted.
	rs = d.UnpersistedRanges()
	if len(rs) != 1 {
		t.Fatalf("queued lines dropped from unpersisted set: %+v", rs)
	}
	d.Fence(site)
	if rs = d.UnpersistedRanges(); len(rs) != 0 {
		t.Fatalf("after fence UnpersistedRanges = %+v, want empty", rs)
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	d := NewDevice(256)
	rec := trace.NewRecorder()
	d.SetSink(rec)
	d.Store(0, []byte{1}, site)
	d.Flush(0, 1, site)
	d.Fence(site)
	kinds := []trace.Kind{trace.Store, trace.Flush, trace.Fence}
	if rec.Len() != 3 {
		t.Fatalf("recorded %d events, want 3", rec.Len())
	}
	for i, k := range kinds {
		if rec.Events()[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, rec.Events()[i].Kind, k)
		}
	}
}

func TestTracerReceivesPMOps(t *testing.T) {
	d := NewDevice(256)
	tr := instr.NewTracer()
	d.SetTracer(tr)
	d.Store(0, []byte{1}, site)
	d.Fence(site)
	if tr.PMOps() != 2 {
		t.Fatalf("tracer saw %d PM ops, want 2", tr.PMOps())
	}
}

func TestClockCharges(t *testing.T) {
	d := NewDevice(256)
	before := d.Clock().Now()
	d.Store(0, []byte{1}, site)
	d.Flush(0, 1, site)
	d.Fence(site)
	if d.Clock().Now() <= before {
		t.Fatalf("clock did not advance")
	}
}

func TestStatsCounting(t *testing.T) {
	d := NewDevice(256)
	d.Store(0, []byte{1}, site)
	d.Load(0, make([]byte, 1), site)
	d.Flush(0, 1, site)
	d.Fence(site)
	d.NTStore(64, []byte{1}, site)
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 || s.NTStores != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNormalizeRanges(t *testing.T) {
	rs := NormalizeRanges([]Range{{Off: 10, Len: 5}, {Off: 0, Len: 4}, {Off: 12, Len: 10}, {Off: 4, Len: 2}})
	want := []Range{{Off: 0, Len: 6}, {Off: 10, Len: 12}}
	if len(rs) != len(want) {
		t.Fatalf("NormalizeRanges = %+v, want %+v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("NormalizeRanges[%d] = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

func TestRangeOverlapContains(t *testing.T) {
	a := Range{Off: 0, Len: 10}
	b := Range{Off: 5, Len: 10}
	c := Range{Off: 10, Len: 1}
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Fatalf("overlap logic wrong")
	}
	if !a.Contains(Range{Off: 2, Len: 3}) || a.Contains(b) {
		t.Fatalf("contains logic wrong")
	}
}

func TestPersistedNeverAheadOfVolatile(t *testing.T) {
	// Property: after any operation sequence, every persisted byte equals
	// either the current volatile byte or some previously stored value —
	// and any byte never stored remains zero in both.
	f := func(ops []byte) bool {
		d := NewDevice(1024)
		touched := make(map[int]bool)
		for i, op := range ops {
			off := (int(op) * 7) % 900
			switch i % 4 {
			case 0, 1:
				d.Store(off, []byte{op}, site)
				touched[off] = true
			case 2:
				d.Flush(off, 1, site)
			case 3:
				d.Fence(site)
			}
		}
		p := d.PersistedSnapshot()
		for i, b := range p {
			if b != 0 && !touched[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestImageRoundTrip(t *testing.T) {
	img := NewImage([16]byte{}, "btree", []byte{1, 2, 3, 4})
	img.UUID[3] = 0xaa
	b := img.Marshal()
	got, err := UnmarshalImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout != "btree" || !bytes.Equal(got.Bytes(), img.Bytes()) || got.UUID != img.UUID {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestImageChecksumDetectsCorruption(t *testing.T) {
	img := NewImage([16]byte{}, "x", make([]byte, 128))
	b := img.Marshal()
	b[20] ^= 0xff
	if _, err := UnmarshalImage(b); err == nil {
		t.Fatalf("corrupted image unmarshalled without error")
	}
}

func TestImageUnmarshalTruncated(t *testing.T) {
	img := NewImage([16]byte{}, "x", make([]byte, 64))
	b := img.Marshal()
	for _, n := range []int{0, 4, 10, len(b) - 1} {
		if _, err := UnmarshalImage(b[:n]); err == nil {
			t.Fatalf("truncated image (%d bytes) accepted", n)
		}
	}
}

func TestImageHashDedup(t *testing.T) {
	a := NewImage([16]byte{}, "x", []byte{1, 2, 3})
	b := NewImage([16]byte{}, "x", []byte{1, 2, 3})
	c := NewImage([16]byte{}, "x", []byte{1, 2, 4})
	if a.Hash() != b.Hash() {
		t.Fatalf("identical images hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatalf("different images hash identically")
	}
}

func TestImageMarshalPropertyRoundTrip(t *testing.T) {
	f := func(layout string, data []byte, uuid [16]byte) bool {
		if len(layout) > 1000 {
			layout = layout[:1000]
		}
		img := NewImage(uuid, layout, data)
		got, err := UnmarshalImage(img.Marshal())
		if err != nil {
			return false
		}
		return got.Layout == layout && bytes.Equal(got.Bytes(), data) && got.UUID == uuid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceFromImage(t *testing.T) {
	pmemImageHelper(t)
}

// pmemImageHelper builds a device, persists data, and verifies a device
// restored from the resulting image sees the same persisted state.
func pmemImageHelper(t *testing.T) *Image {
	t.Helper()
	d := NewDevice(256)
	d.Store(8, []byte{0xab}, site)
	data := d.Close([16]byte{}, "").Bytes()
	img := NewImage([16]byte{}, "t", data)
	d2 := NewDeviceFromImage(img)
	b := make([]byte, 1)
	d2.Load(8, b, site)
	if b[0] != 0xab {
		t.Fatalf("device from image lost data")
	}
	if d2.PersistedSnapshot()[8] != 0xab {
		t.Fatalf("image data not treated as persisted")
	}
	return img
}
