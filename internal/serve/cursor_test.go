package serve

import (
	"math"
	"testing"
)

// FuzzDecodeCursor feeds the /query page-token decoder hostile input:
// any token either errors or yields a position at or above 0, and every
// token encodeCursor makes decodes to the version and position it was
// made from.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(encodeCursor(7, 20), int64(7), 20)
	f.Add("", int64(0), 0)
	f.Add("LTE6LTE", int64(-1), 0) // "-1:-1"
	f.Add("OjA", int64(math.MinInt64), math.MaxInt)
	f.Add("%%%", int64(math.MaxInt64), 1)
	f.Fuzz(func(t *testing.T, token string, version int64, pos int) {
		if _, after, err := decodeCursor(token); err == nil && after < 0 {
			t.Fatalf("decodeCursor(%q) = position %d with no error", token, after)
		}
		if pos < 0 {
			pos = -(pos + 1) // every non-negative position is reachable
		}
		v, after, err := decodeCursor(encodeCursor(version, pos))
		if err != nil || v != version || after != pos {
			t.Fatalf("round trip of (%d, %d) = (%d, %d, %v)", version, pos, v, after, err)
		}
	})
}
