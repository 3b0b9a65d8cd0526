package corpus

import (
	"encoding/binary"
	"hash/crc32"
	"unsafe"

	"scholarrank/internal/container"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint digests the ranking-relevant content of the corpus: the
// article keys, years, venues, the article→author and reference CSRs,
// and the author and venue key tables. Titles, names and the solver
// permutation are not covered. Two stores with equal fingerprints
// produce identical rankings under identical options, which is what
// binds a ranking snapshot to its corpus.
//
// The digest is two CRC-32s over the same byte stream, IEEE in the
// high word and Castagnoli in the low. The stream is each covered
// column in turn, each led by its length: the little-endian bytes of
// the dense columns, and for the string columns the offsets rebased to
// the start of their block followed by the block's bytes. The digest
// therefore depends on content, not on where Freeze or a file placed
// the strings in the arena, and a heap, a mapped and a re-frozen store
// of one corpus agree. It reads the columns in place and allocates
// nothing corpus-sized.
func (s *Store) Fingerprint() uint64 {
	var d digest
	d.stringColumn(s.arena, s.artKeyOff)
	d.column(container.LE(s.years))
	d.column(container.LE(s.venueOf))
	d.offsets(s.artAuthorOff)
	d.column(container.LE(s.artAuthors))
	d.offsets(s.refOff)
	d.column(container.LE(s.refs))
	d.stringColumn(s.arena, s.authorKeyOff)
	d.stringColumn(s.arena, s.venueKeyOff)
	d.flush()
	return uint64(d.ieee)<<32 | uint64(d.cast)
}

// digest feeds bytes to both CRCs, staging small and transformed
// values in a fixed block.
type digest struct {
	ieee, cast uint32
	block      [4096]byte
	n          int
}

func (d *digest) update(b []byte) {
	d.ieee = crc32.Update(d.ieee, crc32.IEEETable, b)
	d.cast = crc32.Update(d.cast, castagnoli, b)
}

func (d *digest) flush() {
	d.update(d.block[:d.n])
	d.n = 0
}

func (d *digest) u64(v uint64) {
	if d.n+8 > len(d.block) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.block[d.n:], v)
	d.n += 8
}

// column feeds a length-prefixed byte column straight to the CRCs.
func (d *digest) column(b []byte) {
	d.u64(uint64(len(b)))
	d.flush()
	d.update(b)
}

// offsets feeds an (n+1)-offset column as its n end offsets relative
// to the first.
func (d *digest) offsets(off []int64) {
	if len(off) == 0 {
		d.u64(0)
		return
	}
	d.u64(uint64(len(off) - 1))
	for _, o := range off[1:] {
		d.u64(uint64(o - off[0]))
	}
}

// stringColumn feeds the rebased offsets of a string column, then the
// arena block they delimit.
func (d *digest) stringColumn(arena string, off []int64) {
	d.offsets(off)
	var block string
	if len(off) > 0 {
		block = arena[off[0]:off[len(off)-1]]
	}
	d.column(unsafe.Slice(unsafe.StringData(block), len(block)))
}
