//go:build (linux || darwin) && (amd64 || arm64)

package corpus

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"

	"scholarrank/internal/container"
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
	if size < container.HeaderLen {
		// Too short to map a header: the heap loader names the fault.
		return ReadSCORPAt(f, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Some filesystems refuse mmap; the heap loader always works.
		return ReadSCORPAt(f, size)
	}
	tab, err := scorpFormat.ParseTable(data, uint64(size))
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	if !tab.Aligned() {
		// Payloads that are not reinterpretable in place load onto the
		// heap instead.
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

// cast reinterprets an aligned little-endian payload as a column
// without copying.
func cast[T int32 | int64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(zero)))
}

// decodeMappedStore builds a Store whose columns alias the mapped
// image. Only O(section table) structure is checked — tags present,
// exact byte lengths against the meta counts, CSR id-array sizes —
// touching a handful of pages; CRCs and full column validation are
// deliberately skipped (see OpenMapped's trust model and Verify).
func decodeMappedStore(data []byte, tab *container.Table) (*Store, error) {
	return decodeColumns(columnSource{
		section: func(tag string) ([]byte, bool, error) {
			i := tab.Index(tag)
			if i < 0 {
				return nil, false, nil
			}
			e := tab.Entries[i]
			return data[e.Off : e.Off+e.Len], true, nil
		},
		str: func(b []byte) string {
			if len(b) == 0 {
				return ""
			}
			return unsafe.String(&b[0], len(b))
		},
		i64: cast[int64],
		i32: cast[int32],
	})
}
