package pmem

import (
	"bytes"
	"testing"
)

// FuzzImageUnmarshal asserts UnmarshalImage never panics on arbitrary
// bytes and that every image it accepts roundtrips byte-exactly through
// Marshal.
func FuzzImageUnmarshal(f *testing.F) {
	valid := NewImage([16]byte{}, "btree", []byte("pool contents"))
	copy(valid.UUID[:], "0123456789abcdef")
	f.Add(valid.Marshal())
	empty := &Image{}
	f.Add(empty.Marshal())
	f.Add([]byte("PMFZIMG1"))
	f.Add([]byte("not an image"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := UnmarshalImage(raw)
		if err != nil {
			return
		}
		again, err := UnmarshalImage(img.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of accepted image failed: %v", err)
		}
		if again.UUID != img.UUID || again.Layout != img.Layout || !bytes.Equal(again.Bytes(), img.Bytes()) {
			t.Fatalf("roundtrip drifted: %+v vs %+v", img, again)
		}
		// A parsed image must also re-serialize to the exact input: the
		// format has no slack bytes, and the checksum pins the rest.
		if !bytes.Equal(img.Marshal(), raw) {
			t.Fatalf("accepted image does not re-marshal to its input (%d vs %d bytes)",
				len(img.Marshal()), len(raw))
		}
	})
}
