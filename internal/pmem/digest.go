package pmem

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// This file implements the image ID: a two-level page digest. Each
// PageSize page of an image's data gets a leaf (SHA-256 of the page's
// bytes; the last page may be partial), and the ID is a SHA-256 root over
// a domain tag, the UUID, the length-framed layout, the data length and
// the leaf vector.
//
// Two levels suffice: pools are 1–2 MiB, so the leaf vector is at most
// 16 KiB and the root pass costs about as much as rehashing four pages.
// A deeper tree would add code and save nothing.
//
// What the digest buys is derivation. An image produced from another
// (a crash state from its previous sweep point, a run's output from its
// start image, a delta-decoded image from its base) differs from that
// image in a handful of pages, so its ID costs those pages plus the root
// pass instead of a full pass over the pool.

// PageSize is the leaf granularity of the image ID.
const PageSize = 4096

// leafSize is the size of one leaf in a leaf vector.
const leafSize = sha256.Size

// rootTag separates image IDs from every other SHA-256 in the system.
const rootTag = "pmfuzz/image-root/v2\x00"

// zeroPageLeaf is the leaf of a full page of zero bytes: an empty device
// derives its leaf vector from it without hashing anything.
var zeroPageLeaf = sha256.Sum256(make([]byte, PageSize))

// pageCount returns how many leaves cover n bytes of data.
func pageCount(n int) int { return (n + PageSize - 1) / PageSize }

// pageOfLine returns the page holding cache line l.
func pageOfLine(l int) int32 { return int32(l * LineSize / PageSize) }

// rehashPages overwrites the leaves of the given pages with fresh hashes
// of their contents.
func rehashPages(leaves []byte, pages [][]byte, which []int32) {
	for _, p := range which {
		l := sha256.Sum256(pages[p])
		copy(leaves[int(p)*leafSize:], l[:])
	}
}

// coldLeaves computes every leaf of a page vector.
func coldLeaves(pages [][]byte) []byte {
	leaves := make([]byte, len(pages)*leafSize)
	for p, pg := range pages {
		l := sha256.Sum256(pg)
		copy(leaves[p*leafSize:], l[:])
	}
	return leaves
}

// zeroLeaves returns the leaf vector of n zero bytes.
func zeroLeaves(n int) []byte {
	np := pageCount(n)
	leaves := make([]byte, np*leafSize)
	for p := range np {
		copy(leaves[p*leafSize:], zeroPageLeaf[:])
	}
	if tail := n % PageSize; tail != 0 {
		l := sha256.Sum256(make([]byte, tail))
		copy(leaves[(np-1)*leafSize:], l[:])
	}
	return leaves
}

// rootOf computes the ID of a page vector whose leaves equal base except
// on the given ascending, duplicate-free pages, which are rehashed on the
// fly; base itself is never written.
func rootOf(uuid [16]byte, layout string, pages [][]byte, base []byte, stale []int32) [32]byte {
	h := sha256.New()
	// Header: tag, UUID, length-framed layout, data length.
	hdr := make([]byte, 0, len(rootTag)+16+8+len(layout)+8)
	hdr = append(append(hdr, rootTag...), uuid[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(layout)))
	hdr = binary.LittleEndian.AppendUint64(append(hdr, layout...), uint64(pagesSize(pages)))
	h.Write(hdr)
	next := 0
	for _, p := range stale {
		h.Write(base[next*leafSize : int(p)*leafSize])
		l := sha256.Sum256(pages[p])
		h.Write(l[:])
		next = int(p) + 1
	}
	h.Write(base[next*leafSize:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ContentHash is the cold image ID of the given contents: every page is
// hashed. It equals Hash on an Image with the same fields.
func ContentHash(uuid [16]byte, layout string, data []byte) [32]byte {
	pages := pageSlices(data)
	return rootOf(uuid, layout, pages, coldLeaves(pages), nil)
}

// uniquePages sorts pages and drops duplicates in place.
func uniquePages(pages []int32) []int32 {
	slices.Sort(pages)
	return slices.Compact(pages)
}

// leafTracker keeps the leaf vector of a working page vector that is
// updated one cache line at a time: written lines mark their page stale,
// and sync rehashes exactly the stale pages. The sweep cursor and the
// Partitioner each walk one page vector through a journal with it.
type leafTracker struct {
	leaves  []byte  // private to the tracker
	isStale []bool  // per page
	stale   []int32 // pages marked since the last sync, unsorted
}

// reset makes base (the leaf vector of the buffer's new contents) the
// tracker's state; base is copied, never retained.
func (t *leafTracker) reset(base []byte) {
	t.leaves = append(t.leaves[:0], base...)
	if n := len(base) / leafSize; len(t.isStale) != n {
		t.isStale = make([]bool, n)
	} else {
		for _, p := range t.stale {
			t.isStale[p] = false
		}
	}
	t.stale = t.stale[:0]
}

// markLines records that the delta's lines were written.
func (t *leafTracker) markLines(ds []LineDelta) {
	for _, ld := range ds {
		if p := pageOfLine(ld.Line); !t.isStale[p] {
			t.isStale[p] = true
			t.stale = append(t.stale, p)
		}
	}
}

// sync rehashes the stale pages of the tracked page vector.
func (t *leafTracker) sync(pages [][]byte) {
	rehashPages(t.leaves, pages, t.stale)
	for _, p := range t.stale {
		t.isStale[p] = false
	}
	t.stale = t.stale[:0]
}
