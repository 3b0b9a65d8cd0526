//go:build (linux || darwin) && (amd64 || arm64)

package corpus

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"

	"scholarrank/internal/sparse"
)

// mmapAvailable reports whether this build has the zero-copy mapped
// loader (tests use it to gate load-mode assertions).
const mmapAvailable = true

// openMapped is the real zero-copy implementation, available where
// mmap exists and the host is little-endian (the build tag pins the
// architectures): SCORP payloads are little-endian, so on these hosts
// a mapped section IS the column, no decode needed.
func openMapped(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open SCORP: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("corpus: stat SCORP: %w", err)
	}
	size := fi.Size()
	if size < int64(scorpHeaderLen) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCorpus)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Some filesystems refuse mmap; the heap loader always works.
		return ReadSCORPAt(f, size)
	}
	tab, err := parseSCORPTable(data, uint64(size))
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	if !tab.aligned() {
		// The version byte is outside every CRC, so a forged image can
		// claim the aligned layout without having it: such payloads are
		// not reinterpretable in place, so load onto the heap instead.
		syscall.Munmap(data)
		return ReadSCORPAt(f, size)
	}
	s, err := decodeMappedStore(data, tab)
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	s.mm = newMapRegion(data, syscall.Munmap)
	return s, nil
}

// castI64s reinterprets an 8-byte-aligned little-endian payload as an
// int64 column without copying.
func castI64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// castI32s reinterprets a 4-byte-aligned little-endian payload as an
// int32 column without copying.
func castI32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// decodeMappedStore builds a Store whose columns alias the mapped
// image. Only O(section table) structure is checked — tags present,
// exact byte lengths against the meta counts, CSR id-array sizes —
// touching a handful of pages; CRCs and full column validation are
// deliberately skipped (see OpenMapped's trust model and Verify).
func decodeMappedStore(data []byte, tab *scorpTable) (*Store, error) {
	sec := func(tag string) ([]byte, bool) {
		e, ok := tab.lookup(tag)
		if !ok {
			return nil, false
		}
		return data[e.off : e.off+e.length], true
	}
	meta, ok := sec("meta")
	if !ok || len(meta) != 32 {
		return nil, fmt.Errorf("%w: missing meta section", ErrBadCorpus)
	}
	nArt, nAuth, nVen, citations, err := parseMeta(meta)
	if err != nil {
		return nil, err
	}
	arena, ok := sec("arna")
	if !ok {
		return nil, fmt.Errorf("%w: missing arna section", ErrBadCorpus)
	}
	s := &Store{citations: int(citations)}
	if len(arena) > 0 {
		s.arena = unsafe.String(&arena[0], len(arena))
	}

	section := func(tag string, wantLen uint64) ([]byte, error) {
		b, ok := sec(tag)
		if !ok || uint64(len(b)) != wantLen {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, tag, len(b), wantLen)
		}
		return b, nil
	}
	load := func(dst *[]int64, tag string, n uint64) {
		if err == nil {
			var b []byte
			if b, err = section(tag, (n+1)*8); err == nil {
				*dst = castI64s(b)
			}
		}
	}
	loadDense := func(dst *[]int32, tag string, n uint64) {
		if err == nil {
			var b []byte
			if b, err = section(tag, n*4); err == nil {
				*dst = castI32s(b)
			}
		}
	}
	load(&s.artKeyOff, "akof", nArt)
	load(&s.artTitleOff, "atof", nArt)
	loadDense(&s.years, "yrsc", nArt)
	loadDense(&s.venueOf, "vnuc", nArt)
	load(&s.artAuthorOff, "aaof", nArt)
	load(&s.refOff, "refo", nArt)
	load(&s.authorKeyOff, "ukof", nAuth)
	load(&s.authorNameOff, "unof", nAuth)
	load(&s.authorArtOff, "uaof", nAuth)
	load(&s.venueKeyOff, "vkof", nVen)
	load(&s.venueNameOff, "vnof", nVen)
	load(&s.venueArtOff, "vaof", nVen)
	if err != nil {
		return nil, err
	}
	csrIDs := func(tag string, off []int64) ([]int32, error) {
		n, err := csrIDCount(tag, off)
		if err != nil {
			return nil, err
		}
		b, err := section(tag, n*4)
		if err != nil {
			return nil, err
		}
		return castI32s(b), nil
	}
	if s.artAuthors, err = csrIDs("aaid", s.artAuthorOff); err != nil {
		return nil, err
	}
	if s.refs, err = csrIDs("refi", s.refOff); err != nil {
		return nil, err
	}
	if s.authorArts, err = csrIDs("uaid", s.authorArtOff); err != nil {
		return nil, err
	}
	if s.venueArts, err = csrIDs("vaid", s.venueArtOff); err != nil {
		return nil, err
	}
	if b, ok := sec("perm"); ok {
		if uint64(len(b)) != nArt*4 {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, "perm", len(b), nArt*4)
		}
		// NewPermutation copies its input, so the permutation survives
		// munmap — it is the one column small enough to own outright.
		perm, perr := sparse.NewPermutation(castI32s(b))
		if perr != nil {
			return nil, fmt.Errorf("%w: perm section: %v", ErrBadCorpus, perr)
		}
		s.perm = perm
	}
	return s, nil
}
