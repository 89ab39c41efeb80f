package goal

import (
	"sort"
	"testing"
)

// samePrograms reports structural equality modulo op renumbering: equal rank
// counts, per-rank op sequences (kind, peer, tag, bytes, work), and equal
// dependency structure expressed in rank-local positions. Labels are ignored
// (Write regenerates them).
func samePrograms(p, q *Program) bool {
	if p.NumRanks != q.NumRanks || len(p.Ops) != len(q.Ops) {
		return false
	}
	localDeps := func(prog *Program, ids []OpID, id OpID) []int {
		local := make(map[OpID]int, len(ids))
		for k, id := range ids {
			local[id] = k
		}
		out := make([]int, 0, len(prog.Deps(id)))
		for _, d := range prog.Deps(id) {
			out = append(out, local[d])
		}
		sort.Ints(out)
		return out
	}
	pr, qr := p.rankOps(), q.rankOps()
	for rank := range pr {
		pids, qids := pr[rank], qr[rank]
		if len(pids) != len(qids) {
			return false
		}
		for k := range pids {
			po, qo := p.Op(pids[k]), q.Op(qids[k])
			if po.Kind != qo.Kind || po.Peer != qo.Peer || po.Tag != qo.Tag ||
				po.Bytes != qo.Bytes || po.Work != qo.Work {
				return false
			}
			pd, qd := localDeps(p, pids, pids[k]), localDeps(q, qids, qids[k])
			if len(pd) != len(qd) {
				return false
			}
			for i := range pd {
				if pd[i] != qd[i] {
					return false
				}
			}
		}
	}
	return true
}

// FuzzGOALText round-trips every parseable input: parse → serialize →
// parse must preserve structure, and the second serialization must equal
// the first byte-for-byte (Write is canonical). Inputs that fail to parse
// must fail with an error, never a panic or a runaway allocation.
func FuzzGOALText(f *testing.F) {
	seeds := []string{
		"num_ranks 1\n",
		"num_ranks 2\nrank 0 {\n a: calc 100us\n b: send 8b to 1 tag 3\n b requires a\n}\nrank 1 {\n c: recv 8b from 0 tag 3\n}\n",
		"num_ranks 3\nrank 2 {\n x: recv 64b from any tag any\n}\nrank 0 {\n y: send 64b to 2 tag 1\n}\n",
		"num_ranks 2\nrank 0 {\n a: calc 1ns\n}\nrank 0 {\n a: calc 2ns\n}\n",
		"num_ranks 2\nrank 0 {\n a: send 4k to 1 tag 0\n b: send 2m to 1 tag 1\n}\nrank 1 {\n a: recv 4k from 0 tag 0\n b: recv 2m from 0 tag 1\n b requires a\n}\n",
		"# comment\nnum_ranks 1\nrank 0 { // trailing\n a: calc 1ms\n}\n",
		"num_ranks 99999999999\n",
		"num_ranks 2\nrank 0 {\n a: send 8b to 4294967297 tag 0\n}\n",
		"num_ranks 2\nrank 0 {\n a: send 9223372036854775807k to 1 tag 0\n}\n",
		"num_ranks 2\nrank 0 {\n a: calc 99999999999999999999y\n}\n",
		"num_ranks 1\nrank 0 {\n a: calc 1us\n b: calc 2us\n a requires b\n}\n",
		"num_ranks 1\nrank 0 {\n a: calc 1us\n b: calc 2us\n a requires b\n b requires a\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParseString(input)
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		s1 := WriteString(p)
		q, err := ParseString(s1)
		if err != nil {
			t.Fatalf("serialized program does not reparse: %v\ninput:\n%s\nserialized:\n%s", err, input, s1)
		}
		if !samePrograms(p, q) {
			t.Fatalf("round trip changed structure\ninput:\n%s\nserialized:\n%s", input, s1)
		}
		if s2 := WriteString(q); s2 != s1 {
			t.Fatalf("serialization not byte-stable\nfirst:\n%s\nsecond:\n%s", s1, s2)
		}
	})
}
