package container

import (
	"bytes"
	"errors"
	"math"
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
