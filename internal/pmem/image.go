package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Image is a serialized PM pool file — the unit PMFuzz generates, mutates
// (indirectly), deduplicates, and hands to the testing tools as part of a
// test case.
//
// Its contents are an immutable vector of PageSize pages (the last one
// may be partial), the same geometry as the ID's digest leaves. A page is
// never written once an image holds it, so images derived from one
// another — a run's output from its start image, a crash state from its
// previous sweep point, a delta-decoded image from its base — share every
// page they did not change, and producing one costs its changed pages.
type Image struct {
	// UUID identifies the pool. Under derandomization (§4.4(1)) pool
	// creation writes a constant UUID so identical inputs yield
	// byte-identical images.
	UUID [16]byte
	// Layout names the pool layout (e.g. "btree"), mirroring
	// pmemobj_create's layout string.
	Layout string

	// pages holds the contents; pages may be shared with other images
	// and are never written.
	pages [][]byte

	// leaves is the page-leaf vector the ID derives from (nil: unknown,
	// and Hash makes a cold pass). Pages listed in stale (ascending, no
	// duplicates) may differ from it and are rehashed when the ID is
	// needed. leaves may be shared with other images and is never
	// written once attached.
	leaves []byte
	stale  []int32

	// hash memoizes the ID when it was computed by a sweep partitioner or
	// verified during decode. It is only ever set through
	// SetPrecomputedHash and Seal.
	hash    [32]byte
	hashSet bool
}

const imageMagic = "PMFZIMG1"

// ErrBadImage reports a malformed or corrupted serialized image.
var ErrBadImage = errors.New("pmem: bad image")

// NewImage returns an image holding data. The image takes ownership of
// data, which is sliced into its pages without a copy: the caller must not
// write data afterwards.
func NewImage(uuid [16]byte, layout string, data []byte) *Image {
	return &Image{UUID: uuid, Layout: layout, pages: pageSlices(data)}
}

// Size returns the image's data length in bytes.
func (img *Image) Size() int { return pagesSize(img.pages) }

// NumPages returns how many pages hold the image's data.
func (img *Image) NumPages() int { return len(img.pages) }

// Page returns page p of the image's data. The page may be shared with
// other images: callers must not write it.
func (img *Image) Page(p int) []byte { return img.pages[p] }

// SharesPage reports whether page p of img is the very page o holds at
// p — a byte comparison can then be skipped.
func (img *Image) SharesPage(o *Image, p int) bool {
	return p < len(img.pages) && p < len(o.pages) && samePage(img.pages[p], o.pages[p])
}

// Bytes returns a flat copy of the image's data. It costs the whole
// pool; per-execution paths read pages or ranges instead.
func (img *Image) Bytes() []byte {
	out := make([]byte, 0, img.Size())
	for _, pg := range img.pages {
		out = append(out, pg...)
	}
	return out
}

// ReadAt copies the data at off into b, io.ReaderAt style: a read past
// the end returns the bytes that exist and io.EOF.
func (img *Image) ReadAt(b []byte, off int64) (int, error) {
	size := int64(img.Size())
	if off < 0 {
		return 0, fmt.Errorf("pmem: ReadAt negative offset %d", off)
	}
	if off >= size {
		return 0, io.EOF
	}
	end := min(size, off+int64(len(b)))
	n := 0
	eachChunk(img.pages, int(off), int(end), func(c []byte) { n += copy(b[n:], c) })
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// Hash returns the image ID: the page-digest root over UUID, layout and
// data (see digest.go). PMFuzz's image-reduction step (§4.5 step ④)
// deduplicates on this value. An image with a derived leaf vector costs
// its changed pages plus the root pass; one without pays a cold pass.
func (img *Image) Hash() [32]byte {
	switch {
	case img.hashSet:
		return img.hash
	case img.hasLeaves():
		return rootOf(img.UUID, img.Layout, img.pages, img.leaves, img.stale)
	default:
		return rootOf(img.UUID, img.Layout, img.pages, coldLeaves(img.pages), nil)
	}
}

// hasLeaves reports whether the attached leaf vector fits the pages.
func (img *Image) hasLeaves() bool {
	return img.leaves != nil && len(img.leaves) == len(img.pages)*leafSize
}

// exactLeaves returns the leaf vector of the image without changing it:
// the attached vector when nothing is stale, a patched copy when some
// pages are, and a cold pass when the image has none.
func (img *Image) exactLeaves() []byte {
	switch {
	case !img.hasLeaves():
		return coldLeaves(img.pages)
	case len(img.stale) == 0:
		return img.leaves
	default:
		leaves := append([]byte(nil), img.leaves...)
		rehashPages(leaves, img.pages, img.stale)
		return leaves
	}
}

// SetPrecomputedHash memoizes the image's ID. The caller owns the
// invariant that h equals Hash() of the image; the sweep partitioner's
// consumers use it to skip a redundant root pass.
func (img *Image) SetPrecomputedHash(h [32]byte) {
	img.hash = h
	img.hashSet = true
}

// Seal attaches the image's full leaf vector and memoizes its ID, which
// it returns, so later derivations from this image start from its
// leaves.
func (img *Image) Seal() [32]byte {
	img.leaves, img.stale = img.exactLeaves(), nil
	img.SetPrecomputedHash(rootOf(img.UUID, img.Layout, img.pages, img.leaves, nil))
	return img.hash
}

// Clone returns an image with the same identity and pages but without
// the leaf vector and ID memo, so its Hash makes a cold pass. The pages
// are shared, being immutable; to change contents, build a new image
// with NewImage or Edit.
func (img *Image) Clone() *Image {
	return &Image{UUID: img.UUID, Layout: img.Layout, pages: img.pages}
}

// ImageEdit builds an image from a base image by writing byte ranges.
// A written page is copied once, on its first write; every other page
// is shared with the base.
type ImageEdit struct {
	base  *Image
	pages cowPages
}

// Edit starts an edit over img; img itself is never changed.
func (img *Image) Edit() *ImageEdit {
	e := &ImageEdit{base: img}
	e.pages.reset(img.pages)
	return e
}

// WriteAt copies b to offset off, io.WriterAt style. Writes must lie
// within the image.
func (e *ImageEdit) WriteAt(b []byte, off int64) (int, error) {
	if off < 0 || off > int64(pagesSize(e.pages.pages)-len(b)) {
		return 0, fmt.Errorf("pmem: edit write [%d, +%d) out of range", off, len(b))
	}
	e.pages.writeAt(b, int(off))
	return len(b), nil
}

// Image returns the edited contents as an image with the given identity.
// Its leaf vector derives from the base's, with the written pages
// stale. The edit must not be used afterwards.
func (e *ImageEdit) Image(uuid [16]byte, layout string) *Image {
	img := &Image{UUID: uuid, Layout: layout, pages: e.pages.pages}
	img.leaves = e.base.exactLeaves()
	img.stale = uniquePages(append([]int32(nil), e.pages.ownedIdx...))
	return img
}

// serialSize returns the size of the serialization WriteTo produces.
func (img *Image) serialSize() int {
	return len(imageMagic) + 16 + 8 + len(img.Layout) + 8 + img.Size()
}

// WriteTo writes the image's serialization without a checksum:
// magic | uuid | layout len | layout | data len | data. ReadImage reads
// it back; Marshal appends a SHA-256 for files that travel outside a
// content-addressed store.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 0, len(imageMagic)+16+8+len(img.Layout)+8)
	hdr = append(append(hdr, imageMagic...), img.UUID[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(img.Layout)))
	hdr = binary.LittleEndian.AppendUint64(append(hdr, img.Layout...), uint64(img.Size()))
	n, err := w.Write(hdr)
	total := int64(n)
	for _, pg := range img.pages {
		if err != nil {
			break
		}
		n, err = w.Write(pg)
		total += int64(n)
	}
	return total, err
}

// Marshal serializes the image as WriteTo does, followed by a SHA-256
// of everything before it, into one buffer of exact size.
func (img *Image) Marshal() []byte {
	buf := bytes.NewBuffer(make([]byte, 0, img.serialSize()+sha256.Size))
	img.WriteTo(buf) // writes to a bytes.Buffer cannot fail
	sum := sha256.Sum256(buf.Bytes())
	return append(buf.Bytes(), sum[:]...)
}

// ReadImage reads WriteTo's serialization from r, which must end where
// the serialization does. A layout or data length above max is rejected
// before anything is allocated for it. The data is read straight into
// the image's pages.
func ReadImage(r io.Reader, max int) (*Image, error) {
	var hdr [len(imageMagic) + 16 + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadImage, err)
	}
	if string(hdr[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	uuid := [16]byte(hdr[len(imageMagic):])
	ll := binary.LittleEndian.Uint64(hdr[len(imageMagic)+16:])
	if ll > uint64(max) {
		return nil, fmt.Errorf("%w: bad layout length %d", ErrBadImage, ll)
	}
	layout := make([]byte, ll+8)
	if _, err := io.ReadFull(r, layout); err != nil {
		return nil, fmt.Errorf("%w: layout and data length: %v", ErrBadImage, err)
	}
	dl := binary.LittleEndian.Uint64(layout[ll:])
	if dl > uint64(max) {
		return nil, fmt.Errorf("%w: bad data length %d", ErrBadImage, dl)
	}
	data := make([]byte, dl)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("%w: data of length %d: %v", ErrBadImage, dl, err)
	}
	var tail [1]byte
	if _, err := io.ReadFull(r, tail[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: bytes after the data", ErrBadImage)
	}
	return NewImage(uuid, string(layout[:ll]), data), nil
}

// UnmarshalImage parses Marshal's output, verifying magic and checksum.
// The image does not retain b.
func UnmarshalImage(b []byte) (*Image, error) {
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("%w: truncated checksum", ErrBadImage)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if want := sha256.Sum256(body); !bytes.Equal(want[:], sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	return ReadImage(bytes.NewReader(body), len(body))
}
