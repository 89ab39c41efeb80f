package goal

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

func TestKindString(t *testing.T) {
	if KindCalc.String() != "calc" || KindSend.String() != "send" || KindRecv.String() != "recv" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(2)
	c := b.Calc(0, 100)
	s := b.Send(0, 1, 7, 64)
	r := b.Recv(1, 0, 7, 64)
	b.Requires(s, c)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRanks != 2 || len(p.Ops) != 3 {
		t.Fatalf("program shape wrong: %+v", p)
	}
	if got := p.Op(c); got.Kind != KindCalc || got.Work != 100 {
		t.Errorf("calc op = %+v", got)
	}
	if got := p.Op(s); got.Kind != KindSend || got.Peer != 1 || got.Tag != 7 || got.Bytes != 64 {
		t.Errorf("send op = %+v", got)
	}
	if got := p.Op(r); got.Kind != KindRecv || got.Peer != 0 {
		t.Errorf("recv op = %+v", got)
	}
	if d := p.Deps(s); len(d) != 1 || d[0] != c {
		t.Error("dependency missing")
	}
	if outs := p.Outs(c); len(outs) != 1 || outs[0] != s {
		t.Error("reverse edge missing")
	}
	byRank := p.rankOps()
	if got := byRank[0]; len(got) != 2 {
		t.Errorf("rankOps()[0] = %v", got)
	}
	if got := byRank[1]; len(got) != 1 || got[0] != r {
		t.Errorf("rankOps()[1] = %v", got)
	}
}

func TestNewBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBuilder(0) did not panic")
		}
	}()
	NewBuilder(0)
}

func TestDuplicateDepsDeduplicated(t *testing.T) {
	b := NewBuilder(1)
	a := b.Calc(0, 1)
	c := b.Calc(0, 2)
	b.Requires(c, a)
	b.Requires(c, a)
	b.Requires(c, a)
	p := b.MustBuild()
	if len(p.Deps(c)) != 1 {
		t.Errorf("deps not deduplicated: %v", p.Deps(c))
	}
	if len(p.Outs(a)) != 1 {
		t.Errorf("outs not deduplicated: %v", p.Outs(a))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
	}{
		{"self-send", func() *Builder {
			b := NewBuilder(2)
			b.Send(0, 0, 0, 8)
			return b
		}},
		{"self-recv", func() *Builder {
			b := NewBuilder(2)
			b.Recv(1, 1, 0, 8)
			return b
		}},
		{"peer out of range", func() *Builder {
			b := NewBuilder(2)
			b.Send(0, 5, 0, 8)
			return b
		}},
		{"negative bytes", func() *Builder {
			b := NewBuilder(2)
			b.Send(0, 1, 0, -8)
			return b
		}},
		{"negative tag", func() *Builder {
			b := NewBuilder(2)
			b.Send(0, 1, -3, 8)
			return b
		}},
		{"negative work", func() *Builder {
			b := NewBuilder(1)
			b.Calc(0, -1)
			return b
		}},
		{"cycle", func() *Builder {
			b := NewBuilder(1)
			x := b.Calc(0, 1)
			y := b.Calc(0, 1)
			b.Requires(x, y)
			b.Requires(y, x)
			return b
		}},
		{"cross-rank dep", func() *Builder {
			b := NewBuilder(2)
			x := b.Calc(0, 1)
			y := b.Calc(1, 1)
			b.Requires(y, x)
			return b
		}},
	}
	for _, c := range cases {
		if _, err := c.build().Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
}

// TestBuildAgreesWithValidate builds each of Validate's error cases
// through a Builder and checks that Build reports exactly what Validate
// reports for the same ops assembled by hand — a bare op table, as
// perfbench's goal.validate probe times: the two share one per-op check.
// Dependencies reach a program only through Requires, so the dependency
// cases are Build's alone; their bare ops are valid. A case with GOAL text
// also parses it, through the same Build.
func TestBuildAgreesWithValidate(t *testing.T) {
	calc := func(rank int32, work simtime.Duration) Op {
		return Op{Kind: KindCalc, Rank: rank, Work: work}
	}
	msg := func(k Kind, rank, peer, tag int32, bytes int64) Op {
		return Op{Kind: k, Rank: rank, Peer: peer, Tag: tag, Bytes: bytes}
	}
	// requires is one Requires call: op must follow deps.
	type requires struct {
		op   OpID
		deps []OpID
	}
	cases := []struct {
		name     string
		ranks    int
		ops      []Op
		requires []requires
		text     string
		want     string
	}{
		{"valid", 2, []Op{calc(0, 1), msg(KindSend, 0, 1, 0, 8), msg(KindRecv, 1, 0, 0, 8)}, nil, "", ""},
		{"bad rank", 4, []Op{calc(7, 1)}, nil, "",
			"goal: op 0 rank 7 out of range [0,4)"},
		{"negative rank", 4, []Op{calc(0, 1), calc(-1, 1)}, nil, "",
			"goal: op 1 rank -1 out of range [0,4)"},
		{"send peer out of range", 2, []Op{msg(KindSend, 0, 5, 0, 8)}, nil, "",
			"goal: send op 0 peer 5 out of range"},
		{"recv peer out of range", 2, []Op{msg(KindRecv, 1, -2, 0, 8)}, nil, "",
			"goal: recv op 0 peer -2 out of range"},
		{"self-send", 2, []Op{msg(KindSend, 0, 0, 0, 8)}, nil, "",
			"goal: send op 0 is a self-send"},
		{"self-recv", 2, []Op{msg(KindRecv, 1, 1, 0, 8)}, nil, "",
			"goal: recv op 0 is a self-recv"},
		{"negative send size", 2, []Op{msg(KindSend, 0, 1, 0, -8)}, nil, "",
			"goal: send op 0 negative size"},
		{"negative recv size", 2, []Op{msg(KindRecv, 1, 0, 0, -8)}, nil, "",
			"goal: recv op 0 negative size"},
		{"negative send tag", 2, []Op{msg(KindSend, 0, 1, -3, 8)}, nil, "",
			"goal: send op 0 negative tag"},
		{"negative recv tag", 2, []Op{msg(KindRecv, 1, 0, -3, 8)}, nil, "",
			"goal: recv op 0 negative tag"},
		{"negative work", 1, []Op{calc(0, -1)}, nil, "",
			"goal: calc op 0 negative work"},
		{"unknown kind", 1, []Op{{Kind: 9}}, nil, "",
			"goal: op 0 has unknown kind 9"},
		{"self dep", 1, []Op{calc(0, 1), calc(0, 1)}, []requires{{1, []OpID{1}}}, "",
			"goal: op 1 depends on itself"},
		{"cross-rank dep", 2, []Op{calc(0, 1), calc(1, 1)}, []requires{{1, []OpID{0}}}, "",
			"goal: op 1 (rank 1) depends on op 0 (rank 0): cross-rank deps are not allowed"},
		{"cycle", 1, []Op{calc(0, simtime.Microsecond), calc(0, simtime.Microsecond)},
			[]requires{{0, []OpID{1}}, {1, []OpID{0}}},
			"num_ranks 1\nrank 0 {\n a: calc 1us\n b: calc 1us\n a requires b\n b requires a\n}\n",
			"goal: dependency graph has a cycle (0 of 2 ops reachable)"},
	}
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		b := NewBuilder(c.ranks)
		for _, op := range c.ops {
			b.add(op)
		}
		for _, r := range c.requires {
			b.Requires(r.op, r.deps...)
		}
		_, err := b.Build()
		if got := errString(err); got != c.want {
			t.Errorf("%s: Build error %q, want %q", c.name, got, c.want)
		}
		wantBare := c.want
		if len(c.requires) > 0 {
			wantBare = ""
		}
		bare := &Program{NumRanks: c.ranks, Ops: append([]Op(nil), c.ops...)}
		if got := errString(bare.Validate()); got != wantBare {
			t.Errorf("%s: Validate error %q, want %q", c.name, got, wantBare)
		}
		if c.text != "" {
			if _, err := ParseString(c.text); errString(err) != c.want {
				t.Errorf("%s: Parse error %q, want %q", c.name, errString(err), c.want)
			}
		}
	}
}

func TestRequiresPanicsOnUnknown(t *testing.T) {
	b := NewBuilder(1)
	id := b.Calc(0, 1)
	for _, f := range []func(){
		func() { b.Requires(99, id) },
		func() { b.Requires(id, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Requires with unknown op did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder(2)
	b.Calc(0, 100)
	b.Calc(0, 200)
	b.Calc(1, 50)
	s := b.Send(0, 1, 0, 1000)
	r := b.Recv(1, 0, 0, 1000)
	b.Requires(s, OpID(0))
	_ = r
	p := b.MustBuild()
	st := p.Stats()
	if st.NumRanks != 2 || st.NumOps != 5 || st.NumCalc != 3 || st.NumSend != 1 || st.NumRecv != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalSent != 1000 || st.TotalWork != 350 || st.MaxWork != 300 || st.NumDeps != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestCheckBalanced(t *testing.T) {
	b := NewBuilder(2)
	b.Send(0, 1, 0, 8)
	b.Recv(1, 0, 0, 8)
	p := b.MustBuild()
	if err := p.CheckBalanced(); err != nil {
		t.Errorf("balanced program rejected: %v", err)
	}

	b = NewBuilder(2)
	b.Send(0, 1, 0, 8)
	p = b.MustBuild()
	if err := p.CheckBalanced(); err == nil {
		t.Error("unmatched send accepted")
	}

	b = NewBuilder(2)
	b.Recv(1, 0, 0, 8)
	p = b.MustBuild()
	if err := p.CheckBalanced(); err == nil {
		t.Error("unmatched recv accepted")
	}

	// Wildcard recv covered by a surplus send.
	b = NewBuilder(2)
	b.Send(0, 1, 5, 8)
	b.Recv(1, AnySource, AnyTag, 8)
	p = b.MustBuild()
	if err := p.CheckBalanced(); err != nil {
		t.Errorf("wildcard-balanced program rejected: %v", err)
	}

	// Wildcard recv with no send.
	b = NewBuilder(2)
	b.Recv(1, AnySource, AnyTag, 8)
	p = b.MustBuild()
	if err := p.CheckBalanced(); err == nil {
		t.Error("uncovered wildcard recv accepted")
	}
}

func TestSequencer(t *testing.T) {
	b := NewBuilder(2)
	s := b.Seq(0)
	if s.Last() != NoOp || s.rank != 0 {
		t.Error("fresh sequencer state wrong")
	}
	c1 := s.Calc(10)
	sd := s.Send(1, 0, 8)
	rv := s.Recv(1, 0, 8)
	b.Seq(1).Recv(0, 0, 8)
	b.Send(1, 0, 0, 8)
	p := b.MustBuild()
	if len(p.Deps(c1)) != 0 {
		t.Error("first op should have no deps")
	}
	if d := p.Deps(sd); len(d) != 1 || d[0] != c1 {
		t.Errorf("send deps = %v", d)
	}
	if d := p.Deps(rv); len(d) != 1 || d[0] != sd {
		t.Errorf("recv deps = %v", d)
	}
}

func TestSequencerForkJoin(t *testing.T) {
	b := NewBuilder(2)
	s := b.Seq(0)
	c := s.Calc(10)
	f1 := s.Fork(KindSend, 1, 0, 8)
	f2 := s.Fork(KindRecv, 1, 0, 8)
	s.Join(f1, f2)
	tail := s.Calc(5)
	b.Seq(1).Recv(0, 0, 8)
	b.Send(1, 0, 0, 8)
	p := b.MustBuild()
	// Forks depend on c but not on each other.
	if d := p.Deps(f1); len(d) != 1 || d[0] != c {
		t.Errorf("fork1 deps = %v", d)
	}
	if d := p.Deps(f2); len(d) != 1 || d[0] != c {
		t.Errorf("fork2 deps = %v", d)
	}
	// Tail transitively depends on both forks through the join node.
	join := p.Deps(tail)[0]
	jd := p.Deps(join)
	has := func(id OpID) bool {
		for _, d := range jd {
			if d == id {
				return true
			}
		}
		return false
	}
	if !has(f1) || !has(f2) {
		t.Errorf("join deps = %v, want both forks", jd)
	}
}

func TestSequencerJoinEmpty(t *testing.T) {
	b := NewBuilder(1)
	s := b.Seq(0)
	c := s.Calc(1)
	s.Join() // no-op
	if s.Last() != c {
		t.Error("empty Join changed tail")
	}
}

func TestSequencerForkPanicsOnCalc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fork(KindCalc) did not panic")
		}
	}()
	NewBuilder(1).Seq(0).Fork(KindCalc, 0, 0, 0)
}

func TestSeqAfter(t *testing.T) {
	b := NewBuilder(1)
	root := b.Calc(0, 1)
	s := b.SeqAfter(0, root)
	c := s.Calc(2)
	p := b.MustBuild()
	if d := p.Deps(c); len(d) != 1 || d[0] != root {
		t.Errorf("SeqAfter deps = %v", d)
	}
}

// Property: any program built from random valid operations with random
// backward intra-rank dependencies validates and is acyclic.
func TestQuickRandomProgramsValidate(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(8) + 2
		b := NewBuilder(n)
		perRank := make([][]OpID, n)
		for i := 0; i < 50; i++ {
			rank := r.Intn(n)
			var id OpID
			switch r.Intn(3) {
			case 0:
				id = b.Calc(rank, simtime.Duration(r.Intn(1000)))
			case 1:
				peer := (rank + 1 + r.Intn(n-1)) % n
				id = b.Send(rank, peer, r.Intn(4), int64(r.Intn(4096)))
			default:
				peer := (rank + 1 + r.Intn(n-1)) % n
				id = b.Recv(rank, int32(peer), int32(r.Intn(4)), int64(r.Intn(4096)))
			}
			// Backward deps to same-rank ops only: guarantees acyclicity.
			if len(perRank[rank]) > 0 && r.Float64() < 0.5 {
				dep := perRank[rank][r.Intn(len(perRank[rank]))]
				b.Requires(id, dep)
			}
			perRank[rank] = append(perRank[rank], id)
		}
		p, err := b.Build()
		if err != nil {
			return false
		}
		return p.Stats().NumOps == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: in a program built from random Requires calls — interleaved
// across ops, repeating deps, pointing forward and backward, some wider
// than the dedup's linear scan — Deps(id) is the first-occurrence dedup of
// op id's Requires in call order, and Outs is exactly its inverse, in
// ascending ID order.
func TestQuickDepsMatchRequires(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(3) + 1
		nops := r.Intn(80) + 1
		b := NewBuilder(n)
		rank := make([]int, nops)
		for i := range rank {
			rank[i] = r.Intn(n)
			b.Calc(rank[i], simtime.Duration(r.Intn(100)))
		}
		// An op may depend only on a same-rank op of lower priority, which
		// keeps the graph acyclic while IDs point either way.
		prio := r.Perm(nops)
		eligible := func(op, d OpID) bool { return rank[d] == rank[op] && prio[d] < prio[op] }
		want := make([][]OpID, nops)
		for k := r.Intn(4*nops) + 1; k > 0; k-- {
			op := OpID(r.Intn(nops))
			var deps []OpID
			switch {
			case r.Intn(10) == 0: // a wide join, every candidate twice
				for _, i := range append(r.Perm(nops), r.Perm(nops)...) {
					if eligible(op, OpID(i)) {
						deps = append(deps, OpID(i))
					}
				}
			case len(want[op]) > 0 && r.Intn(3) == 0: // a repeat
				deps = append(deps, want[op][r.Intn(len(want[op]))])
			default:
				for m := r.Intn(4); m >= 0; m-- {
					if d := OpID(r.Intn(nops)); eligible(op, d) {
						deps = append(deps, d)
					}
				}
			}
			b.Requires(op, deps...)
			for _, d := range deps {
				if !slices.Contains(want[op], d) {
					want[op] = append(want[op], d)
				}
			}
		}
		p, err := b.Build()
		if err != nil {
			t.Log(err)
			return false
		}
		outs := make([][]OpID, nops)
		total := 0
		for i := range want {
			if !slices.Equal(p.Deps(OpID(i)), want[i]) {
				t.Logf("seed %d: Deps(%d) = %v, want %v", seed, i, p.Deps(OpID(i)), want[i])
				return false
			}
			for _, d := range want[i] {
				outs[d] = append(outs[d], OpID(i))
			}
			total += len(want[i])
		}
		for i := range outs {
			if !slices.Equal(p.Outs(OpID(i)), outs[i]) {
				t.Logf("seed %d: Outs(%d) = %v, want %v", seed, i, p.Outs(OpID(i)), outs[i])
				return false
			}
		}
		return p.Stats().NumDeps == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	s0 := b.Seq(0)
	s0.Calc(100 * simtime.Microsecond)
	s0.Send(1, 3, 4096)
	s0.Recv(2, 1, 64)
	s1 := b.Seq(1)
	s1.Recv(0, 3, 4096)
	s1.Send(2, 1, 64)
	s2 := b.Seq(2)
	s2.Recv(AnySource, AnyTag, 64)
	s2.Send(0, 1, 64)
	p := b.MustBuild()

	text := WriteString(p)
	q, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\ntext:\n%s", err, text)
	}
	if q.NumRanks != p.NumRanks || len(q.Ops) != len(p.Ops) {
		t.Fatalf("round trip changed shape: %d/%d ops", len(q.Ops), len(p.Ops))
	}
	sp, sq := p.Stats(), q.Stats()
	if sp != sq {
		t.Errorf("round trip changed stats:\n%v\n%v", sp, sq)
	}
	// Canonical serialization is a fixed point.
	if text2 := WriteString(q); text2 != text {
		t.Errorf("serialization not canonical:\n%s\nvs\n%s", text, text2)
	}
}

func TestParseBasics(t *testing.T) {
	p, err := ParseString(`
# a comment
num_ranks 2
rank 0 {
  a: calc 100us   // trailing comment
  b: send 8b to 1 tag 0
  b requires a
}
rank 1 {
  c: recv 8b from 0 tag 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.NumOps != 3 || st.NumCalc != 1 || st.NumSend != 1 || st.NumRecv != 1 {
		t.Errorf("stats = %+v", st)
	}
	if p.Op(1).Kind != KindSend || len(p.Deps(1)) != 1 {
		t.Errorf("dep not parsed: %+v", p.Op(1))
	}
	if p.Op(0).Work != 100*simtime.Microsecond {
		t.Errorf("calc work = %v", p.Op(0).Work)
	}
}

func TestParseSizes(t *testing.T) {
	p, err := ParseString(`num_ranks 2
rank 0 {
  a: send 4k to 1 tag 0
  b: send 2m to 1 tag 0
  c: send 1g to 1 tag 0
  d: send 17 to 1 tag 0
}
rank 1 {
  e: recv 4k from 0 tag 0
  f: recv 2m from 0 tag 0
  g: recv 1g from 0 tag 0
  h: recv 17b from 0 tag 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4096, 2 * 1024 * 1024, 1 << 30, 17}
	for i, w := range want {
		if got := p.Op(OpID(i)).Bytes; got != w {
			t.Errorf("op %d bytes = %d, want %d", i, got, w)
		}
	}
}

func TestParseWildcards(t *testing.T) {
	p, err := ParseString(`num_ranks 2
rank 0 {
  a: send 8 to 1 tag 3
}
rank 1 {
  b: recv 8 from any tag any
}`)
	if err != nil {
		t.Fatal(err)
	}
	op := p.Op(1)
	if op.Peer != AnySource || op.Tag != AnyTag {
		t.Errorf("wildcards not parsed: %+v", op)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                      // empty
		`rank 0 {`,                              // before num_ranks
		`num_ranks 0`,                           // bad count
		`num_ranks 2` + "\nnum_ranks 2",         // duplicate header
		"num_ranks 2\nrank 5 {\n}",              // rank out of range
		"num_ranks 2\nrank 0 {\nrank 1 {\n}\n}", // nested
		"num_ranks 2\n}",                        // unmatched close
		"num_ranks 2\nrank 0 {\n",               // unterminated
		"num_ranks 2\nrank 0 {\na: jump 4\n}",   // unknown op
		"num_ranks 2\nrank 0 {\ncalc 100\n}",    // missing label
		"num_ranks 2\nrank 0 {\na: calc 100\na: calc 100\n}",  // dup label
		"num_ranks 2\nrank 0 {\na: calc 100\nb requires a\n}", // unknown label
		"num_ranks 2\nrank 0 {\na: calc 100\na requires c\n}", // unknown dep
		"num_ranks 2\nrank 0 {\na: send 8 to 0 tag 0\n}",      // self send
		"num_ranks 2\nrank 0 {\na: send x to 1 tag 0\n}",      // bad size
		"num_ranks 2\nrank 0 {\na: send 8 to 1 tag -1\n}",     // bad tag
		"num_ranks 2\nrank 0 {\na: calc -5us\n}",              // negative calc
		"num_ranks 2\nx: calc 100",                            // op outside block
		"num_ranks 2\nrank 0 {\na: recv 8 from q tag 0\n}",    // bad peer
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("parse succeeded for %q", c)
		}
	}
}

func TestParseLineNumbersInErrors(t *testing.T) {
	_, err := ParseString("num_ranks 2\nrank 0 {\n  a: bogus 1\n}\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
}

// Property: Write/Parse round-trips preserve stats for random sequencer
// programs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(4) + 2
		b := NewBuilder(n)
		// Build a ring of sends so programs are balanced.
		for rank := 0; rank < n; rank++ {
			s := b.Seq(rank)
			s.Calc(simtime.Duration(r.Intn(10000)))
			s.Send((rank+1)%n, 0, int64(r.Intn(8192)+1))
			s.Recv(int32((rank+n-1)%n), 0, 0)
			s.Calc(simtime.Duration(r.Intn(10000)))
		}
		p := b.MustBuild()
		q, err := ParseString(WriteString(p))
		if err != nil {
			return false
		}
		return p.Stats() == q.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestOpSize pins the op table's layout: 32-byte ops, two to a cache
// line, with no pointer for the garbage collector to scan.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 32 {
		t.Errorf("goal.Op is %d bytes, want 32", n)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			return false
		}
		return true
	}
	if !pointerFree(reflect.TypeOf(Op{})) {
		t.Error("goal.Op holds a pointer")
	}
}

// TestDepsArenaOrder checks that Deps keeps first occurrences in Requires
// order across interleaved calls, and that Outs list dependents in
// ascending ID order.
func TestDepsArenaOrder(t *testing.T) {
	b := NewBuilder(1)
	a, x, y := b.Calc(0, 1), b.Calc(0, 1), b.Calc(0, 1)
	c, d := b.Calc(0, 1), b.Calc(0, 1)
	b.Requires(d, a)
	b.Requires(c, y, a)
	b.Requires(d, x, a)
	b.Requires(c, a, x, y)
	p := b.MustBuild()
	same := func(got, want []OpID) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if got := p.Deps(c); !same(got, []OpID{y, a, x}) {
		t.Errorf("Deps(c) = %v, want [%d %d %d]", got, y, a, x)
	}
	if got := p.Deps(d); !same(got, []OpID{a, x}) {
		t.Errorf("Deps(d) = %v, want [%d %d]", got, a, x)
	}
	if got := p.Outs(a); !same(got, []OpID{c, d}) {
		t.Errorf("Outs(a) = %v, want [%d %d]", got, c, d)
	}
	if got := p.Outs(c); len(got) != 0 {
		t.Errorf("Outs(c) = %v, want none", got)
	}
	w, err := Widen(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Outs(x); !same(got, []OpID{c, d}) {
		t.Errorf("widened Outs(x) = %v, want [%d %d]", got, c, d)
	}
	if got := w.Deps(c); !same(got, []OpID{y, a, x}) {
		t.Errorf("widened Deps(c) = %v, want [%d %d %d]", got, y, a, x)
	}
}

// TestBuilderReuse checks that a builder starts over empty after Build, so
// ops added afterwards make a second program of their own.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(2)
	b.Calc(1, 1)
	b.MustBuild()
	id := b.Calc(0, 2)
	p := b.MustBuild()
	if byRank := p.rankOps(); len(p.Ops) != 1 || id != 0 || len(byRank[0]) != 1 || len(byRank[1]) != 0 {
		t.Errorf("second program: %d ops, ranks %v", len(p.Ops), byRank)
	}
}

// TestWidenCarriesValidation checks both ways into Widen. A program that
// Build validated widens without a second pass over its ops and stays
// marked validated. A hand-assembled program that was never validated is
// checked in full: a bad op fails, and a good one comes back validated.
func TestWidenCarriesValidation(t *testing.T) {
	b := NewBuilder(2)
	c := b.Calc(0, 1)
	b.Send(0, 1, 0, 8)
	b.Recv(1, 0, 0, 8)
	p := b.MustBuild()
	// Programs are immutable once built; breaking one op behind Build's
	// back makes a second pass over the ops observable as an error.
	p.Ops[c].Work = -1
	w, err := Widen(p, 4)
	if err != nil {
		t.Fatalf("Widen re-checked a validated program's ops: %v", err)
	}
	if !w.validated.Load() {
		t.Error("widening a validated program lost its validated mark")
	}

	bad := &Program{NumRanks: 1, Ops: []Op{{Kind: KindCalc, Work: -1}}}
	if _, err := Widen(bad, 2); err == nil || err.Error() != "goal: calc op 0 negative work" {
		t.Errorf("Widen of a never-validated bad program: err %v, want the negative work", err)
	}
	good := &Program{NumRanks: 1, Ops: []Op{{Kind: KindCalc, Work: 1}}}
	w, err = Widen(good, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w.validated.Load() || good.validated.Load() {
		t.Errorf("validated marks: widened %v, original %v; want true, false",
			w.validated.Load(), good.validated.Load())
	}
}
