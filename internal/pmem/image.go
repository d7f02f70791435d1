package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Image is a serialized PM pool file — the unit PMFuzz generates, mutates
// (indirectly), deduplicates, and hands to the testing tools as part of a
// test case.
type Image struct {
	// UUID identifies the pool. Under derandomization (§4.4(1)) pool
	// creation writes a constant UUID so identical inputs yield
	// byte-identical images.
	UUID [16]byte
	// Layout names the pool layout (e.g. "btree"), mirroring
	// pmemobj_create's layout string.
	Layout string
	// Data is the raw pool contents.
	Data []byte

	// leaves is the page-leaf vector the ID derives from (nil: unknown,
	// and Hash makes a cold pass). Pages listed in stale (ascending, no
	// duplicates) may differ from it and are rehashed from Data when the
	// ID is needed. leaves may be shared with other images and is never
	// written once attached.
	leaves []byte
	stale  []int32

	// hash memoizes the ID when it was computed by a sweep partitioner or
	// verified during decode. It is only ever set through
	// SetPrecomputedHash and Seal, on images whose contents will not
	// change.
	hash    [32]byte
	hashSet bool
}

const imageMagic = "PMFZIMG1"

// ErrBadImage reports a malformed or corrupted serialized image.
var ErrBadImage = errors.New("pmem: bad image")

// Hash returns the image ID: the page-digest root over UUID, layout and
// data (see digest.go). PMFuzz's image-reduction step (§4.5 step ④)
// deduplicates on this value. An image with a derived leaf vector costs
// its changed pages plus the root pass; one without pays a cold pass.
func (img *Image) Hash() [32]byte {
	switch {
	case img.hashSet:
		return img.hash
	case img.hasLeaves():
		return rootOf(img.UUID, img.Layout, img.Data, img.leaves, img.stale)
	default:
		return ContentHash(img.UUID, img.Layout, img.Data)
	}
}

// hasLeaves reports whether the attached leaf vector fits Data.
func (img *Image) hasLeaves() bool {
	return img.leaves != nil && len(img.leaves) == pageCount(len(img.Data))*leafSize
}

// exactLeaves returns the leaf vector of Data without changing the
// image: the attached vector when nothing is stale, a patched copy when
// some pages are, and a cold pass when the image has none.
func (img *Image) exactLeaves() []byte {
	switch {
	case !img.hasLeaves():
		return coldLeaves(img.Data)
	case len(img.stale) == 0:
		return img.leaves
	default:
		leaves := append([]byte(nil), img.leaves...)
		rehashPages(leaves, img.Data, img.stale)
		return leaves
	}
}

// SetPrecomputedHash memoizes the image's ID. The caller owns the
// invariant that h equals Hash() of the current contents and that the
// image is no longer mutated; the sweep partitioner's consumers use it
// to skip a redundant root pass.
func (img *Image) SetPrecomputedHash(h [32]byte) {
	img.hash = h
	img.hashSet = true
}

// Seal attaches the image's full leaf vector and memoizes its ID, which
// it returns, so later derivations from this image start from its
// leaves. Call it only on images whose Data will not change.
func (img *Image) Seal() [32]byte {
	img.leaves, img.stale = img.exactLeaves(), nil
	img.SetPrecomputedHash(rootOf(img.UUID, img.Layout, img.Data, img.leaves, nil))
	return img.hash
}

// DeriveFrom attaches a leaf vector derived from base's: img.Data must
// equal base.Data outside the changed ranges, and the pages those ranges
// overlap are rehashed when the ID is needed. Images of different sizes
// derive nothing (Hash stays a cold pass).
func (img *Image) DeriveFrom(base *Image, changed []Range) {
	if len(base.Data) != len(img.Data) {
		return
	}
	var stale []int32
	for _, r := range changed {
		if r.Len <= 0 {
			continue
		}
		for p := max(r.Off, 0) / PageSize; p <= (r.End()-1)/PageSize && p < pageCount(len(img.Data)); p++ {
			stale = append(stale, int32(p))
		}
	}
	img.leaves, img.stale = base.exactLeaves(), uniquePages(stale)
	img.hashSet = false
}

// Clone returns a deep copy of the image. The leaf vector and hash memo
// are deliberately dropped: clones exist to be mutated.
func (img *Image) Clone() *Image {
	data := make([]byte, len(img.Data))
	copy(data, img.Data)
	out := &Image{Layout: img.Layout, Data: data}
	out.UUID = img.UUID
	return out
}

// marshalSize returns the exact serialized size of the image.
func (img *Image) marshalSize() int {
	return len(imageMagic) + 16 + 8 + len(img.Layout) + 8 + len(img.Data) + sha256.Size
}

// Marshal serializes the image with a checksummed header:
// magic | uuid | layout len | layout | data len | data | sha256.
// One buffer of exact size is allocated and the checksum is computed over
// it in place — no bytes.Buffer growth and no second copy of the pool.
func (img *Image) Marshal() []byte {
	out := make([]byte, img.marshalSize())
	p := copy(out, imageMagic)
	p += copy(out[p:], img.UUID[:])
	binary.LittleEndian.PutUint64(out[p:], uint64(len(img.Layout)))
	p += 8
	p += copy(out[p:], img.Layout)
	binary.LittleEndian.PutUint64(out[p:], uint64(len(img.Data)))
	p += 8
	p += copy(out[p:], img.Data)
	sum := sha256.Sum256(out[:p])
	copy(out[p:], sum[:])
	return out
}

// UnmarshalImage parses a serialized image, verifying magic and checksum.
func UnmarshalImage(b []byte) (*Image, error) {
	if len(b) < len(imageMagic)+16+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadImage)
	}
	if string(b[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if len(b) < 32 {
		return nil, fmt.Errorf("%w: truncated checksum", ErrBadImage)
	}
	body, sum := b[:len(b)-32], b[len(b)-32:]
	want := sha256.Sum256(body)
	if !bytes.Equal(want[:], sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	img := &Image{}
	p := len(imageMagic)
	copy(img.UUID[:], body[p:p+16])
	p += 16
	if p+8 > len(body) {
		return nil, fmt.Errorf("%w: truncated layout length", ErrBadImage)
	}
	ll := int(binary.LittleEndian.Uint64(body[p : p+8]))
	p += 8
	if ll < 0 || ll > len(body)-p {
		return nil, fmt.Errorf("%w: bad layout length %d", ErrBadImage, ll)
	}
	img.Layout = string(body[p : p+ll])
	p += ll
	if p+8 > len(body) {
		return nil, fmt.Errorf("%w: truncated data length", ErrBadImage)
	}
	dl := int(binary.LittleEndian.Uint64(body[p : p+8]))
	p += 8
	if dl != len(body)-p {
		return nil, fmt.Errorf("%w: bad data length %d", ErrBadImage, dl)
	}
	img.Data = make([]byte, dl)
	copy(img.Data, body[p:])
	return img, nil
}
