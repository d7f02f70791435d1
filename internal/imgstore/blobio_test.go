package imgstore

import (
	"bytes"
	"errors"
	"testing"

	"pmfuzz/internal/pmem"
)

// TestDupPutSkipsDeflate pins the duplicate fast path: a Put or
// PutDelta of content the store already holds is answered from the
// index before any compression work — BytesCompressed must not move.
func TestDupPutSkipsDeflate(t *testing.T) {
	s := New(4)
	base := mkImage(1, 4096)
	if _, _, err := s.Put(base); err != nil {
		t.Fatal(err)
	}
	comp := s.Stats().BytesCompressed
	if comp == 0 {
		t.Fatal("first Put compressed nothing")
	}
	if _, fresh, err := s.Put(mkImage(1, 4096)); err != nil || fresh {
		t.Fatalf("duplicate Put: fresh=%v err=%v", fresh, err)
	}
	if got := s.Stats().BytesCompressed; got != comp {
		t.Errorf("duplicate Put re-deflated: BytesCompressed %d -> %d", comp, got)
	}

	baseID, _, _ := s.Put(base)
	child := pmem.NewImage([16]byte{}, "t", append(bytes.Repeat([]byte{1}, 4095), 2))
	if _, _, err := s.PutDelta(child, baseID, base); err != nil {
		t.Fatal(err)
	}
	comp = s.Stats().BytesCompressed
	if _, fresh, err := s.PutDelta(child, baseID, base); err != nil || fresh {
		t.Fatalf("duplicate PutDelta: fresh=%v err=%v", fresh, err)
	}
	if got := s.Stats().BytesCompressed; got != comp {
		t.Errorf("duplicate PutDelta re-deflated: BytesCompressed %d -> %d", comp, got)
	}
}

// TestExportImportFullBlob moves a full blob store-to-store and pins
// that a duplicate import is a dedup hit with no decompression.
func TestExportImportFullBlob(t *testing.T) {
	src := New(4)
	img := mkImage(9, 2048)
	id, _, err := src.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, hasBase, ok := src.ExportBlob(id)
	if !ok || hasBase {
		t.Fatalf("ExportBlob: ok=%v hasBase=%v", ok, hasBase)
	}

	dst := New(4)
	fresh, err := dst.ImportBlob(id, blob)
	if err != nil || !fresh {
		t.Fatalf("ImportBlob: fresh=%v err=%v", fresh, err)
	}
	got, err := dst.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), img.Bytes()) || got.Layout != img.Layout {
		t.Fatal("imported image differs from original")
	}

	decomp := dst.Stats().BytesDecompressed
	fresh, err = dst.ImportBlob(id, blob)
	if err != nil || fresh {
		t.Fatalf("duplicate ImportBlob: fresh=%v err=%v", fresh, err)
	}
	st := dst.Stats()
	if st.Dedups == 0 {
		t.Error("duplicate import not counted as dedup")
	}
	if st.BytesDecompressed != decomp {
		t.Errorf("duplicate import decompressed: %d -> %d", decomp, st.BytesDecompressed)
	}
}

// TestExportImportDeltaBlob ships a delta in its native encoding: the
// import must fail with ErrMissingDeltaBase until the base arrives,
// then verify the reconstruction against the content hash.
func TestExportImportDeltaBlob(t *testing.T) {
	src := New(4)
	base := mkImage(3, 4096)
	baseID, _, err := src.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	child := pmem.NewImage([16]byte{}, "t", append(bytes.Repeat([]byte{3}, 4000), bytes.Repeat([]byte{4}, 96)...))
	childID, _, err := src.PutDelta(child, baseID, base)
	if err != nil {
		t.Fatal(err)
	}
	blob, gotBase, hasBase, ok := src.ExportBlob(childID)
	if !ok {
		t.Fatal("ExportBlob failed")
	}
	if !hasBase {
		t.Skip("store kept the child full-encoded; delta wire path not exercised")
	}
	if gotBase != baseID {
		t.Fatalf("ExportBlob base = %s, want %s", gotBase, baseID)
	}
	if wire, has, err := DeltaBase(blob); err != nil || !has || wire != baseID {
		t.Fatalf("DeltaBase = %s/%v/%v, want %s", wire, has, err, baseID)
	}

	dst := New(4)
	if _, err := dst.ImportBlob(childID, blob); !errors.Is(err, ErrMissingDeltaBase) {
		t.Fatalf("import without base: err=%v, want ErrMissingDeltaBase", err)
	}
	baseBlob, _, _, _ := src.ExportBlob(baseID)
	if _, err := dst.ImportBlob(baseID, baseBlob); err != nil {
		t.Fatal(err)
	}
	fresh, err := dst.ImportBlob(childID, blob)
	if err != nil || !fresh {
		t.Fatalf("delta import after base: fresh=%v err=%v", fresh, err)
	}
	got, err := dst.Get(childID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), child.Bytes()) {
		t.Fatal("delta import reconstructed wrong image")
	}

	// ExportBlobFull re-encodes the same image self-contained.
	full, err := src.ExportBlobFull(childID)
	if err != nil {
		t.Fatal(err)
	}
	if b, has, err := DeltaBase(full); err != nil || has {
		t.Fatalf("ExportBlobFull still delta-encoded (base %s, err %v)", b, err)
	}
	solo := New(4)
	if fresh, err := solo.ImportBlob(childID, full); err != nil || !fresh {
		t.Fatalf("full fallback import: fresh=%v err=%v", fresh, err)
	}
}

// TestImportBlobRejectsTampering pins the verify-before-admit rule: a
// bit flipped anywhere in the wire blob must be rejected, for both
// encodings, leaving the destination store unchanged.
func TestImportBlobRejectsTampering(t *testing.T) {
	src := New(4)
	img := mkImage(5, 2048)
	id, _, err := src.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, _, _ := src.ExportBlob(id)

	// Claiming the wrong ID for a valid blob must fail the content hash.
	other, _, _ := src.Put(mkImage(6, 2048))
	dst := New(4)
	if _, err := dst.ImportBlob(other, blob); err == nil {
		t.Error("blob admitted under a mismatched content hash")
	}
	if dst.Len() != 0 {
		t.Errorf("store grew to %d after rejected import", dst.Len())
	}

	// Corrupting the compressed payload must fail inflation or the hash.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if _, err := dst.ImportBlob(id, bad); err == nil {
		t.Error("corrupted blob admitted")
	}
	if _, err := dst.ImportBlob(id, []byte{99}); err == nil {
		t.Error("unknown blob tag admitted")
	}
	if _, err := dst.ImportBlob(id, nil); err == nil {
		t.Error("empty blob admitted")
	}
}
