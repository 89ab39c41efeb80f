package validate

import (
	"math/rand"
	"testing"
)

// The open-addressing table must agree with a Go map under any mix of
// inserts and deletes, including keys that collide into long probe runs
// and runs that wrap around the end of the slot array.
func TestTableMatchesMap(t *testing.T) {
	for _, keyRange := range []uint64{8, 100, 1 << 40} {
		var tb table[int]
		ref := map[uint64]int{}
		r := rand.New(rand.NewSource(int64(keyRange)))
		for step := 0; step < 20000; step++ {
			k := uint64(r.Int63n(int64(keyRange)))
			if r.Intn(3) == 0 {
				if i := tb.find(k); i >= 0 {
					tb.del(i)
				}
				delete(ref, k)
			} else {
				v, fresh := tb.put(k)
				if _, had := ref[k]; fresh == had {
					t.Fatalf("range %d step %d: put(%d) fresh=%v, map had it: %v", keyRange, step, k, fresh, had)
				}
				*v = step
				ref[k] = step
			}
			if tb.n != len(ref) {
				t.Fatalf("range %d step %d: table holds %d keys, map %d", keyRange, step, tb.n, len(ref))
			}
		}
		for k, want := range ref {
			i := tb.find(k)
			if i < 0 || tb.slots[i].val != want {
				t.Fatalf("range %d: key %d lost or wrong", keyRange, k)
			}
		}
	}
}
