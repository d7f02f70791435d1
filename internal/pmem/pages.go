package pmem

// This file holds the page-vector primitives images are built from. An
// image's contents are a vector of PageSize pages, the last one possibly
// partial; a page is never written once any image holds it. Producers
// work on a cowPages vector that clones a page on its first write after
// the vector was last shared, so every image they emit shares all the
// pages it did not change.

// zeroPage backs every all-zero page of an empty device. Like every image
// page it is never written.
var zeroPage = make([]byte, PageSize)

// pageSlices cuts data into capacity-limited PageSize slices.
func pageSlices(data []byte) [][]byte {
	pages := make([][]byte, pageCount(len(data)))
	for p := range pages {
		start, end := p*PageSize, min((p+1)*PageSize, len(data))
		pages[p] = data[start:end:end]
	}
	return pages
}

// zeroPages returns the page vector of n zero bytes, every page a slice
// of zeroPage.
func zeroPages(n int) [][]byte {
	pages := make([][]byte, pageCount(n))
	for p := range pages {
		pages[p] = zeroPage[:min(PageSize, n-p*PageSize)]
	}
	return pages
}

// pagesSize returns the byte length of a page vector.
func pagesSize(pages [][]byte) int {
	if len(pages) == 0 {
		return 0
	}
	return (len(pages)-1)*PageSize + len(pages[len(pages)-1])
}

// samePage reports whether two pages are the same reference (and hence,
// pages being immutable, the same bytes).
func samePage(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// eachChunk calls fn on the page-bounded pieces of [off, end), in order.
func eachChunk(pages [][]byte, off, end int, fn func([]byte)) {
	for off < end {
		p, in := off/PageSize, off%PageSize
		n := min(len(pages[p])-in, end-off)
		fn(pages[p][in : in+n])
		off += n
	}
}

// cowPages is a page vector edited one byte range at a time. Pages it
// shares — with its base or with a snapshot it handed out — are cloned
// on their first write; pages it owns are written in place.
type cowPages struct {
	pages    [][]byte
	owned    []bool  // per page: pages[p] is referenced by nothing else
	ownedIdx []int32 // pages with owned set, in first-write order
}

// reset makes the vector a shared copy of base.
func (w *cowPages) reset(base [][]byte) {
	w.pages = append(w.pages[:0], base...)
	if len(w.owned) != len(base) {
		w.owned = make([]bool, len(base))
		w.ownedIdx = w.ownedIdx[:0]
	}
	w.share()
}

// share marks every page shared, so the next write to it clones it.
func (w *cowPages) share() {
	for _, p := range w.ownedIdx {
		w.owned[p] = false
	}
	w.ownedIdx = w.ownedIdx[:0]
}

// snapshot returns the current vector for an image to hold; every page
// becomes shared.
func (w *cowPages) snapshot() [][]byte {
	out := append([][]byte(nil), w.pages...)
	w.share()
	return out
}

// writeAt copies b to offset off, which must lie within the vector.
func (w *cowPages) writeAt(b []byte, off int) {
	for len(b) > 0 {
		p, in := off/PageSize, off%PageSize
		n := copy(w.writable(p, in == 0 && len(b) >= len(w.pages[p]))[in:], b)
		b, off = b[n:], off+n
	}
}

// applyDelta writes a sweep delta's lines.
func (w *cowPages) applyDelta(ds []LineDelta) {
	for _, ld := range ds {
		w.writeAt(ld.Data, ld.Line*LineSize)
	}
}

// writable returns page p for writing, cloning it first unless the
// vector owns it. whole means the caller overwrites the entire page, so
// the clone skips copying the old bytes.
func (w *cowPages) writable(p int, whole bool) []byte {
	if !w.owned[p] {
		pg := make([]byte, len(w.pages[p]))
		if !whole {
			copy(pg, w.pages[p])
		}
		w.pages[p] = pg
		w.owned[p] = true
		w.ownedIdx = append(w.ownedIdx, int32(p))
	}
	return w.pages[p]
}
