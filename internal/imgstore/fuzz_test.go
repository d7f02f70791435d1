package imgstore

import (
	"testing"

	"pmfuzz/internal/pmem"
)

// fuzzBase is the image every FuzzImportBlob store holds before the
// import, so delta blobs have a base to resolve: two full pages and a
// partial one, with distinct content per page.
func fuzzBase() *pmem.Image {
	data := make([]byte, 2*pmem.PageSize+100)
	for i := range data {
		data[i] = byte(i / pmem.PageSize * 17)
	}
	return pmem.NewImage([16]byte{3}, "fuzz", data)
}

// FuzzImportBlob feeds (ID, blob) pairs to ImportBlob on a store that
// holds fuzzBase. Import must never panic, and every blob it accepts
// must come back from Get as an image whose cold hash is its ID. The
// checked-in corpus holds a valid full blob, a valid delta blob over
// the base, a truncated blob, a wrong tag, a flipped payload byte, a
// huge delta layout length, and two full blobs whose data hashes to
// the ID but whose payload is malformed: a bad magic, and trailing
// bytes after the data.
func FuzzImportBlob(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawID, blob []byte) {
		var id ID
		copy(id[:], rawID)
		s := New(0)
		if _, _, err := s.Put(fuzzBase()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ImportBlob(id, blob); err != nil {
			return
		}
		img, err := s.Get(id, nil)
		if err != nil {
			t.Fatalf("accepted blob %s does not decode: %v", id, err)
		}
		if got := pmem.ContentHash(img.UUID, img.Layout, img.Bytes()); ID(got) != id {
			t.Fatalf("accepted blob %s decodes to an image hashing to %s", id, ID(got))
		}
	})
}

// TestTamperedDeltaRunRejected rewrites one byte of a stored delta
// blob's run data, keeping the blob well formed, and requires Get to
// reject it: the byte lies in a page the derived ID rehashes.
func TestTamperedDeltaRunRejected(t *testing.T) {
	s := New(0)
	base := mkImage(3, 3*pmem.PageSize+200)
	baseID, _, err := s.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	img := mkDerived(base, 70, 130)
	id, _, err := s.PutDelta(img, baseID, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id, nil); err != nil {
		t.Fatalf("untampered delta: %v", err)
	}

	data := img.Bytes()
	data[130*pmem.LineSize+5] ^= 1
	tampered := pmem.NewImage(img.UUID, img.Layout, data)
	blob, err := s.encodeDeltaBlob(tampered, baseID, base)
	if err != nil {
		t.Fatal(err)
	}
	s.blobs[id] = blob
	if _, err := s.Get(id, nil); err == nil {
		t.Fatal("Get accepted a delta blob whose run byte was tampered with")
	}
}
