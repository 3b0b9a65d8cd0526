package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var (
	errBad  = errors.New("bad")
	errCRC  = errors.New("crc")
	errVers = errors.New("version")
	testFmt = &Format{Magic: "TESTC", Version: 7, Regenerate: "regen-cmd", ErrBad: errBad, ErrCRC: errCRC, ErrVersion: errVers}
)

func encode(t *testing.T, secs ...Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testFmt.Write(&buf, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func open(t *testing.T, raw []byte) (*Reader, error) {
	t.Helper()
	return testFmt.NewReader(bytes.NewReader(raw), int64(len(raw)))
}

// TestRoundTripAligned: sections come back by tag, in any order, every
// payload starts on an Align boundary, and an empty last section at the
// end of the file reads as empty.
func TestRoundTripAligned(t *testing.T) {
	raw := encode(t, Section{"aaaa", []byte("odd")}, Section{"bbbb", LE([]int64{1, -2})}, Section{"cccc", nil})
	rd, err := open(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.tab.Aligned() {
		t.Error("writer produced a misaligned section")
	}
	b, ok, err := rd.Section("bbbb")
	if err != nil || !ok || !slices.Equal(FromLE[int64](b), []int64{1, -2}) {
		t.Errorf("bbbb: %v %v %v", b, ok, err)
	}
	if b, ok, err := rd.Section("aaaa"); err != nil || !ok || string(b) != "odd" {
		t.Errorf("aaaa: %q %v %v", b, ok, err)
	}
	if b, ok, err := rd.Section("cccc"); err != nil || !ok || len(b) != 0 {
		t.Errorf("cccc: %q %v %v", b, ok, err)
	}
	if _, ok, err := rd.Section("none"); ok || err != nil {
		t.Errorf("absent section: ok %v, err %v", ok, err)
	}
}

// TestRefusals: a wrong magic, another version (naming the
// regenerating command), a short header, a duplicate tag and a flipped
// payload bit of a section the decoder never reads are all refused
// with the format's own errors.
func TestRefusals(t *testing.T) {
	good := encode(t, Section{"aaaa", []byte("payload")}, Section{"xtra", []byte("unknown to the decoder")})
	if _, err := open(t, append([]byte("OTHER"), good[5:]...)); !errors.Is(err, errBad) {
		t.Errorf("magic: %v", err)
	}
	stamped := slices.Clone(good)
	stamped[5] = 6
	if _, err := open(t, stamped); !errors.Is(err, errVers) || !strings.Contains(err.Error(), "regen-cmd") {
		t.Errorf("version: %v", err)
	}
	if _, err := open(t, good[:7]); !errors.Is(err, errBad) {
		t.Errorf("short header: %v", err)
	}
	if _, err := open(t, encode(t, Section{"aaaa", nil}, Section{"aaaa", nil})); !errors.Is(err, errBad) {
		t.Errorf("duplicate tag: %v", err)
	}
	flipped := slices.Clone(good)
	flipped[len(flipped)-1] ^= 1
	rd, err := open(t, flipped)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.Section("aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := rd.VerifyUnread(); !errors.Is(err, errCRC) || !strings.Contains(err.Error(), `"xtra"`) {
		t.Errorf("unread corrupt section: %v", err)
	}
}

func TestLEFromLE(t *testing.T) {
	f := []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), 1.5}
	back := FromLE[float64](LE(f))
	for i := range f {
		if math.Float64bits(back[i]) != math.Float64bits(f[i]) {
			t.Errorf("float %d: %x vs %x", i, math.Float64bits(back[i]), math.Float64bits(f[i]))
		}
	}
	if got := LE([]int32{0x01020304}); !bytes.Equal(got, []byte{4, 3, 2, 1}) {
		t.Errorf("LE int32 = %x, want little-endian", got)
	}
	if LE([]int64(nil)) != nil || len(FromLE[int32](nil)) != 0 {
		t.Error("empty columns")
	}
}

// TestWriteFileModeAndDirectorySync: a new file gets 0644 under the
// umask — the mode any file created 0644 gets, not the 0600 of a
// temporary file — a replaced file keeps its mode, and every write
// syncs the directory once, after the rename.
func TestWriteFileModeAndDirectorySync(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		synced = append(synced, d)
		return nil
	}
	probe := filepath.Join(dir, "probe")
	pf, err := os.OpenFile(probe, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	umasked := modeOf(t, probe)

	path := filepath.Join(dir, "new.testc")
	secs := []Section{{Tag: "aaaa", Data: []byte("payload")}}
	if err := testFmt.WriteFile(path, secs); err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, path); got != umasked {
		t.Errorf("new file mode %v, want %v (0644 under the umask)", got, umasked)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := testFmt.WriteFile(path, secs); err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, path); got != 0o640 {
		t.Errorf("replaced file mode %v, want -rw-r-----", got)
	}
	if !slices.Equal(synced, []string{dir, dir}) {
		t.Errorf("directory syncs %q, want one per write of %q", synced, dir)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("%d directory entries after two writes, want the file and the probe (no temporary left)", len(entries))
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, encode(t, secs...)) {
		t.Errorf("file content differs from the encoded container (read error %v)", err)
	}
}

func modeOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// table crafts a header and section table with count entries, each
// (tag, off, len) with a zero CRC; count may differ from len(entries).
func table(count int, entries ...Entry) []byte {
	hdr := append([]byte(testFmt.Magic), testFmt.Version, 0, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(count))
	for _, e := range entries {
		hdr = append(hdr, e.Tag...)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.Off)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.Len)
		hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	}
	return hdr
}

// TestParseTableBoundaries pins every bound check of the header and
// section table at its exact edge: the bytes that make a header whole,
// the section cap, a payload starting right after the table, and a
// payload ending at the last byte of the file.
func TestParseTableBoundaries(t *testing.T) {
	parse := func(hdr []byte, size int) error {
		_, err := testFmt.ParseTable(hdr, uint64(size))
		return err
	}
	empty := table(0)
	if err := parse(empty[:len(testFmt.Magic)], len(testFmt.Magic)); !errors.Is(err, errBad) {
		t.Errorf("header of the magic alone: %v", err)
	}
	if err := parse(empty[:HeaderLen-1], HeaderLen-1); !errors.Is(err, errBad) {
		t.Errorf("header of HeaderLen-1 bytes: %v", err)
	}
	if err := parse(empty, HeaderLen); err != nil {
		t.Errorf("header of HeaderLen bytes, no sections: %v", err)
	}

	many := func(n int) []byte {
		secs := make([]Section, n)
		for i := range secs {
			secs[i] = Section{Tag: fmt.Sprintf("s%03d", i)}
		}
		return encode(t, secs...)
	}
	if raw := many(MaxSections); parse(raw, len(raw)) != nil {
		t.Errorf("MaxSections sections refused: %v", parse(raw, len(raw)))
	}
	if raw := many(MaxSections + 1); !errors.Is(parse(raw, len(raw)), errBad) {
		t.Errorf("MaxSections+1 sections accepted")
	}

	end := HeaderLen + EntryLen // the first byte after a one-entry table
	for _, c := range []struct {
		name     string
		off, len uint64
		size     int
		ok       bool
	}{
		{"payload at the table's end", uint64(end), 3, end + 3, true},
		{"payload one byte into the table", uint64(end - 1), 3, end + 3, false},
		{"payload ending at the file's end", uint64(end) + 2, 5, end + 7, true},
		{"payload ending one byte past the file", uint64(end) + 2, 6, end + 7, false},
		{"empty payload at the file's end", uint64(end) + 7, 0, end + 7, true},
		{"empty payload one byte past the file", uint64(end) + 8, 0, end + 7, false},
	} {
		err := parse(table(1, Entry{Tag: "aaaa", Off: c.off, Len: c.len}), c.size)
		if c.ok && err != nil || !c.ok && !errors.Is(err, errBad) {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if err := parse(table(1, Entry{Tag: "aaaa", Off: uint64(end)}), end-1); !errors.Is(err, errBad) {
		t.Errorf("table longer than the file: %v", err)
	}
	if err := parse(table(1, Entry{Tag: "aaaa", Off: uint64(end)})[:end-1], end); !errors.Is(err, errBad) {
		t.Errorf("table cut short of its count: %v", err)
	}
}
