// Package container is the one binary framing of every durable file
// the program writes: the SCORP corpus and the SRNKS ranking snapshot.
// Layout (all integers little-endian):
//
//	magic [5]byte | version byte | 2 reserved bytes | u32 sectionCount
//	sectionCount × { tag [4]byte | u64 offset | u64 length | u32 crc32 }
//	section payloads (offsets are absolute file offsets)
//
// Each section's CRC-32 (IEEE) covers its payload bytes, so a truncated
// or bit-flipped file is refused section by section, and the error
// names the section. Every payload starts on an 8-byte boundary, with
// zero padding between sections; the padding belongs to no section and
// is outside every CRC. Alignment lets a mapped file's payloads be
// reinterpreted in place as int64/int32 columns.
//
// The magic names the kind of file and the version byte belongs to the
// kind: a Format refuses every version but its own, naming the command
// that regenerates the file. Readers locate sections by tag and skip
// tags they do not know, but still CRC-check them (Reader.VerifyUnread);
// a tag listed twice is refused.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

const (
	// Align is the payload alignment the writer guarantees: wide enough
	// for the widest column element type (int64, float64).
	Align = 8
	// MaxSections bounds the section table so a hostile header cannot
	// demand an enormous allocation.
	MaxSections = 256
	// HeaderLen and EntryLen are the byte sizes of the fixed header and
	// of one section-table entry.
	HeaderLen = 5 + 1 + 2 + 4
	EntryLen  = 4 + 8 + 8 + 4
)

// Format is one kind of container file: its five-byte magic, its one
// version, and the sentinel errors its readers wrap.
type Format struct {
	Magic   string
	Version byte
	// Regenerate is the command that rewrites a file of another
	// version; the version error names it.
	Regenerate string
	// ErrBad (malformed file), ErrCRC (section checksum mismatch) and
	// ErrVersion (other version) are wrapped by every error the
	// format's readers return for bad bytes.
	ErrBad, ErrCRC, ErrVersion error
}

// Section is one tagged payload to write. Tags are four bytes.
type Section struct {
	Tag  string
	Data []byte
}

func alignUp(off uint64) uint64 {
	return (off + Align - 1) &^ uint64(Align-1)
}

// Write encodes sections, in order, as one container.
func (f *Format) Write(w io.Writer, sections []Section) error {
	header := make([]byte, 0, HeaderLen+len(sections)*EntryLen)
	header = append(header, f.Magic...)
	header = append(header, f.Version, 0, 0)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sections)))
	offset := uint64(HeaderLen + len(sections)*EntryLen)
	for _, sec := range sections {
		offset = alignUp(offset)
		header = append(header, sec.Tag...)
		header = binary.LittleEndian.AppendUint64(header, offset)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(sec.Data)))
		header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(sec.Data))
		offset += uint64(len(sec.Data))
	}
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("write %s header: %w", f.Magic, err)
	}
	pos := uint64(len(header))
	var pad [Align]byte
	for _, sec := range sections {
		n := alignUp(pos) - pos
		if _, err := w.Write(pad[:n]); err != nil {
			return fmt.Errorf("write %s padding: %w", f.Magic, err)
		}
		if _, err := w.Write(sec.Data); err != nil {
			return fmt.Errorf("write %s section %q: %w", f.Magic, sec.Tag, err)
		}
		pos += n + uint64(len(sec.Data))
	}
	return nil
}

// WriteFile writes the container to path atomically: a temporary
// sibling file is fsynced and renamed over the target, so a
// concurrently booting reader never sees a half-written file, and the
// directory is fsynced after the rename, so the new name survives a
// crash. The file keeps the permissions of the file it replaces; a new
// file is created 0644 under the process umask.
func (f *Format) WriteFile(path string, sections []Section) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, "."+strings.ToLower(f.Magic)+"-")
	if err != nil {
		return fmt.Errorf("%s temp: %w", f.Magic, err)
	}
	defer os.Remove(tmp.Name())
	if old, err := os.Stat(path); err == nil {
		err = tmp.Chmod(old.Mode().Perm())
	}
	if err == nil {
		err = f.Write(tmp, sections)
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("%s sync: %w", f.Magic, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%s close: %w", f.Magic, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("%s rename: %w", f.Magic, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("%s sync directory: %w", f.Magic, err)
	}
	return nil
}

// createTemp creates a new file named prefix plus a random suffix in
// dir, mode 0644 under the umask (os.CreateTemp would make it 0600).
func createTemp(dir, prefix string) (*os.File, error) {
	for try := 0; ; try++ {
		name := filepath.Join(dir, prefix+strconv.FormatUint(uint64(rand.Uint32()), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// syncDir fsyncs directory dir, making a rename in it durable. It is a
// variable so tests can count the syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Entry is one parsed section-table row.
type Entry struct {
	Tag      string
	Off, Len uint64
	CRC      uint32
}

// Table is the parsed section table in file order, bounds-checked
// against the file size.
type Table struct {
	Entries []Entry
}

// Index returns the position of tag's entry, or -1 when it is absent.
func (t *Table) Index(tag string) int {
	return slices.IndexFunc(t.Entries, func(e Entry) bool { return e.Tag == tag })
}

// Aligned reports whether every payload starts on an Align boundary —
// the precondition for reinterpreting a mapped file in place. The
// version byte is outside every CRC, so a forged image can claim the
// aligned layout without having it.
func (t *Table) Aligned() bool {
	for _, e := range t.Entries {
		if e.Off%Align != 0 {
			return false
		}
	}
	return true
}

// checkHeader validates the magic and version of hdr and returns the
// section count. The version is checked as soon as its byte is there,
// so a file of another version is refused as such even when its layout
// differs from here on.
func (f *Format) checkHeader(hdr []byte) (int, error) {
	if len(hdr) <= len(f.Magic) || string(hdr[:len(f.Magic)]) != f.Magic {
		return 0, fmt.Errorf("%w: bad magic", f.ErrBad)
	}
	if v := hdr[len(f.Magic)]; v != f.Version {
		return 0, fmt.Errorf("%w: version %d, want %d; regenerate the file with %s",
			f.ErrVersion, v, f.Version, f.Regenerate)
	}
	if len(hdr) < HeaderLen {
		return 0, fmt.Errorf("%w: truncated header", f.ErrBad)
	}
	count := binary.LittleEndian.Uint32(hdr[HeaderLen-4:])
	if count > MaxSections {
		return 0, fmt.Errorf("%w: %d sections", f.ErrBad, count)
	}
	return int(count), nil
}

// ParseTable parses and bounds-checks the header and section table at
// the start of hdr; size is the total file size the offsets are
// validated against.
func (f *Format) ParseTable(hdr []byte, size uint64) (*Table, error) {
	count, err := f.checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	tableEnd := HeaderLen + count*EntryLen
	if len(hdr) < tableEnd || uint64(tableEnd) > size {
		return nil, fmt.Errorf("%w: truncated section table", f.ErrBad)
	}
	t := &Table{Entries: make([]Entry, 0, count)}
	for i := 0; i < count; i++ {
		raw := hdr[HeaderLen+i*EntryLen:]
		e := Entry{
			Tag: string(raw[:4]),
			Off: binary.LittleEndian.Uint64(raw[4:]),
			Len: binary.LittleEndian.Uint64(raw[12:]),
			CRC: binary.LittleEndian.Uint32(raw[20:]),
		}
		if e.Off < uint64(tableEnd) || e.Off > size || e.Len > size-e.Off {
			return nil, fmt.Errorf("%w: section %q out of bounds", f.ErrBad, e.Tag)
		}
		if t.Index(e.Tag) >= 0 {
			return nil, fmt.Errorf("%w: section %q listed twice", f.ErrBad, e.Tag)
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// Reader serves the CRC-verified sections of a container held by an
// io.ReaderAt, one at a time through one reused scratch buffer, so a
// decoder reads each section exactly once and never holds the whole
// file.
type Reader struct {
	f       *Format
	r       io.ReaderAt
	tab     *Table
	read    []bool
	scratch []byte
}

// NewReader reads and parses the header and section table of the
// container of the given total size.
func (f *Format) NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	hdr := make([]byte, max(0, min(size, HeaderLen+MaxSections*EntryLen)))
	if len(hdr) > 0 {
		if _, err := r.ReadAt(hdr, 0); err != nil {
			return nil, fmt.Errorf("read %s header: %w", f.Magic, err)
		}
	}
	tab, err := f.ParseTable(hdr, uint64(size))
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, r: r, tab: tab, read: make([]bool, len(tab.Entries))}, nil
}

// Section returns the CRC-verified payload of tag, or ok=false when
// the section is absent. The bytes are valid only until the next call,
// so the decoder copies what it keeps.
func (rd *Reader) Section(tag string) (buf []byte, ok bool, err error) {
	i := rd.tab.Index(tag)
	if i < 0 {
		return nil, false, nil
	}
	e := rd.tab.Entries[i]
	rd.read[i] = true
	if uint64(cap(rd.scratch)) < e.Len {
		rd.scratch = make([]byte, e.Len)
	}
	buf = rd.scratch[:e.Len]
	// An empty section may sit at the end of the file, where some
	// readers answer even an empty read with io.EOF.
	if e.Len > 0 {
		if _, err := rd.r.ReadAt(buf, int64(e.Off)); err != nil {
			return nil, true, fmt.Errorf("read %s section %q: %w", rd.f.Magic, tag, err)
		}
	}
	if crc32.ChecksumIEEE(buf) != e.CRC {
		return nil, true, fmt.Errorf("%w: section %q", rd.f.ErrCRC, tag)
	}
	return buf, true, nil
}

// VerifyUnread CRC-checks every listed section the decoder has not
// read — tags it does not know — so a reader refuses every corrupt
// file, not only the corruption it happens to look at.
func (rd *Reader) VerifyUnread() error {
	for i, e := range rd.tab.Entries {
		if !rd.read[i] {
			if _, _, err := rd.Section(e.Tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// elem is the element types a payload holds as a little-endian array.
type elem interface{ int32 | int64 | float64 }

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// native returns the in-memory bytes of v.
func native[T elem](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// swapEach reverses the byte order of every size-byte element of b.
func swapEach(b []byte, size int) {
	for i := 0; i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// LE returns the little-endian bytes of v. On a little-endian host they
// alias v, so writing a column or hashing it copies nothing; elsewhere
// they are an encoded copy.
func LE[T elem](v []T) []byte {
	b := native(v)
	if littleEndian {
		return b
	}
	b = slices.Clone(b)
	swapEach(b, int(unsafe.Sizeof(v[0])))
	return b
}

// FromLE decodes a little-endian payload into a new slice; trailing
// bytes short of a whole element are ignored.
func FromLE[T elem](b []byte) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	v := make([]T, len(b)/size)
	dst := native(v)
	copy(dst, b)
	if !littleEndian {
		swapEach(dst, size)
	}
	return v
}
