package corpus

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCorpusClosed is returned by Close when the mapping's refcount
// already reached zero — a double close or a use-after-close bug in
// the caller's lifetime management.
var ErrCorpusClosed = errors.New("corpus: mapped Store already closed")

// mapRegion is one mmap'd SCORP image, shared by every Store view
// whose columns alias it. The refcount decides when munmap is safe:
// it starts at 1 for the handle OpenMapped returns, Retain adds
// references (one per serving generation, in practice), and the Close
// that drops it to zero unmaps. After that, any access through an
// aliasing column faults — which is why holders must Retain before
// sharing and Close only what they retained.
type mapRegion struct {
	data  []byte
	refs  atomic.Int64
	unmap func([]byte) error
}

func newMapRegion(data []byte, unmap func([]byte) error) *mapRegion {
	m := &mapRegion{data: data, unmap: unmap}
	m.refs.Store(1)
	return m
}

func (m *mapRegion) retain() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (m *mapRegion) release() error {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return ErrCorpusClosed
		}
		if m.refs.CompareAndSwap(n, n-1) {
			if n == 1 {
				return m.unmap(m.data)
			}
			return nil
		}
	}
}

// OpenMapped opens a SCORP file as a zero-copy Store: the file is
// memory-mapped read-only and the section payloads are reinterpreted
// in place as the store's columns, so opening costs O(section table)
// regardless of corpus size and the OS page cache — shared across
// processes — serves corpora larger than RAM.
//
// The mapped path requires 8-byte-aligned sections, a little-endian
// host, and an OS with mmap support; in every other case — a file
// whose sections are misaligned, a filesystem that refuses mmap, a
// platform without it — OpenMapped silently falls back to the heap
// loader and returns a fully-owned store whose Close is a no-op.
// LoadMode reports which path was taken.
//
// Trust model: the heap loader CRC-checks and validates every column;
// the mapped path verifies only the header, section table, alignment
// and section lengths, because checksumming or validating the columns
// would page the whole corpus in and defeat the O(1) boot. Mapped
// opens are for operator-owned files written by WriteSCORPFile; call
// Verify after opening when provenance is in doubt, and use the heap
// loaders for genuinely untrusted bytes.
//
// The returned store owns one reference to the mapping. Close it when
// done; Retain/Close additional references before sharing the store
// with independently-scoped holders (see the serve package's
// generation swap). Thawed builders alias the mapping too, so keep
// the store retained until Freeze returns.
func OpenMapped(path string) (*Store, error) {
	return openMapped(path)
}

// Retain adds one reference to the store's underlying mapping so a
// matching Close is required before munmap. It reports false when the
// mapping is already gone (retaining a heap store always succeeds —
// there is nothing to unmap).
func (s *Store) Retain() bool {
	if s.mm == nil {
		return true
	}
	return s.mm.retain()
}

// Close releases one reference to the store's underlying mapping and
// unmaps it when the count reaches zero. After the final Close every
// accessor of every view aliasing the mapping is invalid. Closing a
// heap-backed store is a no-op.
func (s *Store) Close() error {
	if s.mm == nil {
		return nil
	}
	if err := s.mm.release(); err != nil {
		if errors.Is(err, ErrCorpusClosed) {
			return err
		}
		return fmt.Errorf("corpus: munmap: %w", err)
	}
	return nil
}

// MappedBytes returns the size of the underlying mapping in bytes, or
// 0 for a heap-backed store. The value counts address space, not
// resident pages — residency is the OS page cache's business.
func (s *Store) MappedBytes() int64 {
	if s.mm == nil {
		return 0
	}
	return int64(len(s.mm.data))
}

// LoadMode reports how the store's columns are backed: "mmap" for a
// store aliasing a mapped SCORP file, "heap" otherwise (built,
// decoded, or fallen back).
func (s *Store) LoadMode() string {
	if s.mm != nil {
		return "mmap"
	}
	return "heap"
}
