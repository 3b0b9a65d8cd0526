package corpus

import (
	"hash/maphash"
	"slices"
	"sync"
)

// keySeed seeds every key index in the process, so Freeze can copy a
// table slot for slot instead of rehashing it.
var keySeed = maphash.MakeSeed()

// keyIndex maps one key column (article, author or venue keys) to
// dense ids. It is an open-addressing table with linear probing whose
// slots hold id+1, 0 marking an empty slot, kept at most half full. It
// stores no string: a lookup hashes the key and checks each candidate
// id against the key column of the Store or Builder that owns the
// table (keyOf), so the table never pins an arena or a mapping.
type keyIndex struct {
	slots []int32
	n     int // ids held
}

// slotsFor is the table size for n keys: the power of two that keeps
// the load at or below one half.
func slotsFor(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// find returns the id whose key is key. A nil table holds nothing.
func (t *keyIndex) find(key string, keyOf func(int32) string) (int32, bool) {
	if t == nil || t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(keySeed, key) & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return 0, false
		}
		if keyOf(v-1) == key {
			return v - 1, true
		}
	}
}

// put places id, whose key must be absent, without growing the table.
func (t *keyIndex) put(id int32, keyOf func(int32) string) {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(keySeed, keyOf(id)) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id + 1
	t.n++
}

// add places id, whose key must be absent, doubling the table first
// when it would pass half full.
func (t *keyIndex) add(id int32, keyOf func(int32) string) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots, t.n = make([]int32, slotsFor(t.n+1)), 0
		for _, v := range old {
			if v != 0 {
				t.put(v-1, keyOf)
			}
		}
	}
	t.put(id, keyOf)
}

// extendKeyIndex returns a new table over ids [0, n) of keyOf. base,
// when non-nil, holds ids [0, base.n) of the same column: its slots
// are copied when they have room for n keys, and only the ids after
// them are hashed. base itself is not written.
func extendKeyIndex(base *keyIndex, n int, keyOf func(int32) string) *keyIndex {
	t := &keyIndex{}
	if base != nil && len(base.slots) >= slotsFor(n) {
		t.slots, t.n = slices.Clone(base.slots), base.n
	} else {
		t.slots = make([]int32, slotsFor(n))
	}
	for id := t.n; id < n; id++ {
		t.put(int32(id), keyOf)
	}
	return t
}

// storeKeys is a Store's index over one key column. Freeze fills it
// before the store is published; a store decoded or mapped from SCORP
// builds it on first use.
type storeKeys struct {
	once sync.Once
	t    *keyIndex
}

func (k *storeKeys) get(n int, keyOf func(int32) string) *keyIndex {
	k.once.Do(func() {
		if k.t == nil {
			k.t = extendKeyIndex(nil, n, keyOf)
		}
	})
	return k.t
}

// builderKeys is a Builder's index over one key column: the table of
// the store it was thawed from (or last froze), read in place for the
// ids that store holds, and a table of its own for the ids added
// since. The base table is shared with a frozen Store and never
// written.
type builderKeys struct {
	base  *keyIndex // ids below base.n
	added keyIndex  // ids from base.n on
}

func (k *builderKeys) find(key string, keyOf func(int32) string) (int32, bool) {
	if id, ok := k.base.find(key, keyOf); ok {
		return id, true
	}
	return k.added.find(key, keyOf)
}

func (k *builderKeys) add(id int32, keyOf func(int32) string) { k.added.add(id, keyOf) }

// freeze returns the table over all n ids for the store being frozen,
// and re-bases the builder on it: the builder goes on reading it as a
// thawed builder reads its store's.
func (k *builderKeys) freeze(n int, keyOf func(int32) string) *keyIndex {
	var t *keyIndex
	if k.base == nil { // the builder's own table already holds every id
		added := k.added
		t = &added
	} else {
		t = extendKeyIndex(k.base, n, keyOf)
	}
	*k = builderKeys{base: t}
	return t
}
