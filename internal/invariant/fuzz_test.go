package invariant

import (
	"bytes"
	"testing"

	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// FuzzInvariantParse fuzzes the pminv parser: any input ParseSet
// accepts must canonicalize to output that reparses to the same bytes
// (parse -> marshal -> reparse -> marshal is a fixed point).
func FuzzInvariantParse(f *testing.F) {
	f.Add([]byte("pminv v1\nworkload btree\n"))
	f.Add([]byte("pminv v1\nworkload a\norder 0x1 0x2 support=3\natomic 0x1 0x2 support=1\n"))
	f.Add([]byte("pminv v1\nworkload w\nvalue 0xbeef 128 4 00112233 support=7\n# note\n\norder 0x9 0x1 support=2\n"))
	f.Add([]byte("pminv v2\nworkload x\n"))
	f.Add([]byte("pminv v1\nworkload x\nvalue 0x1 0 1 zz support=1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSet(data)
		if err != nil {
			return
		}
		m := s.Marshal()
		s2, err := ParseSet(m)
		if err != nil {
			t.Fatalf("canonical output rejected: %v\n%s", err, m)
		}
		if m2 := s2.Marshal(); !bytes.Equal(m, m2) {
			t.Fatalf("marshal not a fixed point:\n%s\nvs\n%s", m, m2)
		}
	})
}

// synthObservation decodes one synthetic observation from fuzz bytes:
// a PM-op trace (4 bytes per event) plus a small derived at-rest image.
func synthObservation(data []byte) ([]trace.Event, *pmem.Image) {
	var evs []trace.Event
	seq := 0
	for len(data) >= 4 {
		op, site, off, ln := data[0], data[1], data[2], data[3]
		data = data[4:]
		seq++
		ev := trace.Event{
			Site: uint32(site%8) + 1,
			Off:  int(off) * 8,
			Len:  int(ln%16) + 1,
			Seq:  seq,
		}
		switch op % 6 {
		case 0:
			ev.Kind = trace.Store
		case 1:
			ev.Kind = trace.NTStore
		case 2:
			ev.Kind = trace.Flush
		case 3:
			ev.Kind = trace.Fence
		case 4:
			ev.Kind = trace.Store
			ev.Internal = true
		case 5:
			ev.Kind = trace.Load
		}
		evs = append(evs, ev)
	}
	img := make([]byte, 512)
	for _, ev := range evs {
		if ev.Kind != trace.Store && ev.Kind != trace.NTStore {
			continue
		}
		for i := 0; i < ev.Len && ev.Off+i < len(img); i++ {
			img[ev.Off+i] = byte(ev.Site)
		}
	}
	return evs, pmem.NewImage([16]byte{}, "fuzz", img)
}

// FuzzMinerTrace feeds synthetic PM-op traces to the miner: it must
// never panic, mined sets must be independent of observation order,
// and every mined set must survive its own serialization round trip.
func FuzzMinerTrace(f *testing.F) {
	f.Add([]byte{0, 1, 0, 8, 2, 1, 0, 8, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 4, 0, 2, 8, 4, 3, 0, 0, 0, 1, 3, 16, 8, 3, 0, 0, 0})
	f.Add([]byte{4, 1, 0, 8, 0, 2, 0, 8, 2, 2, 0, 8, 3, 0, 0, 0, 5, 1, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		ev1, img1 := synthObservation(data[:half])
		ev2, img2 := synthObservation(data[half:])

		fwd := NewMiner("fuzz")
		fwd.Observe(ev1, img1)
		fwd.Observe(ev2, img2)
		rev := NewMiner("fuzz")
		rev.Observe(ev2, img2)
		rev.Observe(ev1, img1)

		mf, mr := fwd.Mine().Marshal(), rev.Mine().Marshal()
		if !bytes.Equal(mf, mr) {
			t.Fatalf("mined set depends on observation order:\n%s\nvs\n%s", mf, mr)
		}
		s, err := ParseSet(mf)
		if err != nil {
			t.Fatalf("mined set does not reparse: %v\n%s", err, mf)
		}
		if got := s.Marshal(); !bytes.Equal(got, mf) {
			t.Fatalf("mined set round trip drifted:\n%s\nvs\n%s", got, mf)
		}
	})
}
