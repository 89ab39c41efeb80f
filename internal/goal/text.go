package goal

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"checkpointsim/internal/simtime"
)

// MaxTextRanks caps the num_ranks header Parse accepts. Building a program
// allocates per-rank state, so an adversarial or corrupt header like
// "num_ranks 9999999999" must fail at parse time instead of attempting a
// multi-gigabyte allocation. A million ranks is an order of magnitude past
// every workload the simulator targets.
const MaxTextRanks = 1 << 20

// The textual GOAL dialect accepted and produced by this package:
//
//	# comment
//	num_ranks 4
//	rank 0 {
//	    l1: calc 100us
//	    l2: send 8b to 1 tag 3
//	    l3: recv 8b from 1 tag 3
//	    l4: recv 8b from any tag any
//	    l3 requires l2
//	    l4 requires l2 l3
//	}
//
// Labels are scoped to their rank block (dependencies are intra-rank, as in
// LogGOPSim's GOAL; cross-rank ordering arises from message matching). Sizes
// are integer bytes with an optional b/B suffix or KiB multipliers (k/m/g
// for KiB/MiB/GiB). Calc durations use simtime.ParseDuration syntax.

// Parse reads a program in the textual GOAL dialect.
func Parse(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		b         *Builder
		curRank   = -1
		labels    map[string]OpID // per rank block
		lineno    int
		sawHeader bool
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("goal: line %d: %s", lineno, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexAny(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks := strings.Fields(line)
		switch {
		case toks[0] == "num_ranks":
			if sawHeader {
				return nil, fail("duplicate num_ranks")
			}
			if len(toks) != 2 {
				return nil, fail("num_ranks wants one argument")
			}
			n, err := strconv.Atoi(toks[1])
			if err != nil || n <= 0 || n > MaxTextRanks {
				return nil, fail("bad rank count %q (want 1..%d)", toks[1], MaxTextRanks)
			}
			b = NewBuilder(n)
			sawHeader = true

		case toks[0] == "rank":
			if !sawHeader {
				return nil, fail("rank block before num_ranks")
			}
			if curRank >= 0 {
				return nil, fail("nested rank block")
			}
			if len(toks) != 3 || toks[2] != "{" {
				return nil, fail(`rank block header must be "rank N {"`)
			}
			n, err := strconv.Atoi(toks[1])
			if err != nil || n < 0 || n >= b.NumRanks() {
				return nil, fail("bad rank %q", toks[1])
			}
			curRank = n
			labels = make(map[string]OpID)

		case toks[0] == "}":
			if curRank < 0 {
				return nil, fail("unmatched }")
			}
			curRank = -1
			labels = nil

		case len(toks) >= 3 && toks[1] == "requires":
			if curRank < 0 {
				return nil, fail("requires outside rank block")
			}
			id, ok := labels[toks[0]]
			if !ok {
				return nil, fail("unknown label %q", toks[0])
			}
			for _, dep := range toks[2:] {
				did, ok := labels[dep]
				if !ok {
					return nil, fail("unknown label %q", dep)
				}
				b.Requires(id, did)
			}

		default:
			if curRank < 0 {
				return nil, fail("operation outside rank block")
			}
			label, rest, found := strings.Cut(line, ":")
			if !found {
				return nil, fail("operation needs a label (got %q)", line)
			}
			label = strings.TrimSpace(label)
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, fail("bad label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, fail("duplicate label %q", label)
			}
			id, err := parseOp(b, curRank, strings.Fields(rest))
			if err != nil {
				return nil, fail("%v", err)
			}
			labels[label] = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("goal: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("goal: missing num_ranks header")
	}
	if curRank >= 0 {
		return nil, fmt.Errorf("goal: unterminated rank block")
	}
	return b.Build()
}

// ParseString is Parse over a string.
func ParseString(s string) (*Program, error) {
	return Parse(strings.NewReader(s))
}

func parseOp(b *Builder, rank int, toks []string) (OpID, error) {
	if len(toks) == 0 {
		return NoOp, fmt.Errorf("empty operation")
	}
	switch toks[0] {
	case "calc":
		if len(toks) != 2 {
			return NoOp, fmt.Errorf("calc wants a duration")
		}
		d, err := simtime.ParseDuration(toks[1])
		if err != nil {
			return NoOp, err
		}
		if d < 0 {
			return NoOp, fmt.Errorf("negative calc duration")
		}
		return b.Calc(rank, d), nil

	case "send":
		// send SIZE to PEER tag TAG
		if len(toks) != 6 || toks[2] != "to" || toks[4] != "tag" {
			return NoOp, fmt.Errorf(`send syntax: "send SIZE to PEER tag TAG"`)
		}
		size, err := parseSize(toks[1])
		if err != nil {
			return NoOp, err
		}
		// Peers and tags are int32 in the op graph; bound them here so an
		// out-of-range literal fails loudly instead of wrapping into a
		// different (possibly valid) rank or tag.
		peer, err := strconv.Atoi(toks[3])
		if err != nil || peer < 0 || peer > math.MaxInt32 {
			return NoOp, fmt.Errorf("bad peer %q", toks[3])
		}
		tag, err := strconv.Atoi(toks[5])
		if err != nil || tag < 0 || tag > math.MaxInt32 {
			return NoOp, fmt.Errorf("bad tag %q", toks[5])
		}
		return b.Send(rank, peer, tag, size), nil

	case "recv":
		// recv SIZE from PEER|any tag TAG|any
		if len(toks) != 6 || toks[2] != "from" || toks[4] != "tag" {
			return NoOp, fmt.Errorf(`recv syntax: "recv SIZE from PEER tag TAG"`)
		}
		size, err := parseSize(toks[1])
		if err != nil {
			return NoOp, err
		}
		peer := AnySource
		if toks[3] != "any" {
			n, err := strconv.Atoi(toks[3])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return NoOp, fmt.Errorf("bad peer %q", toks[3])
			}
			peer = int32(n)
		}
		tag := AnyTag
		if toks[5] != "any" {
			n, err := strconv.Atoi(toks[5])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return NoOp, fmt.Errorf("bad tag %q", toks[5])
			}
			tag = int32(n)
		}
		return b.Recv(rank, peer, tag, size), nil
	}
	return NoOp, fmt.Errorf("unknown operation %q", toks[0])
}

// parseSize parses "8", "8b", "4k", "2m", "1g" (k/m/g are KiB/MiB/GiB).
func parseSize(s string) (int64, error) {
	orig := s
	s = strings.ToLower(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1024*1024, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1024*1024*1024, s[:len(s)-1]
	default:
		s = strings.TrimSuffix(s, "b")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", orig)
	}
	if n > math.MaxInt64/mult {
		// A wrapped product could come out zero or positive-but-wrong; an
		// overflowing size is always a mistake, so reject it outright.
		return 0, fmt.Errorf("size %q overflows", orig)
	}
	return n * mult, nil
}

// Write serializes the program in the textual dialect. Labels are
// regenerated as "oK" where K is the operation's position within its rank
// (original labels are not preserved). Rank-local numbering — rather than
// global op IDs — is what makes the output canonical: parsing renumbers
// operations in the order rank blocks appear, so only a rank-relative
// naming survives parse → serialize unchanged. Dependencies are intra-rank
// (Build enforces it), so every dep has a local label. The output parses
// back to a structurally identical program, and serializing that program
// reproduces the output byte-for-byte.
func Write(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "num_ranks %d\n", p.NumRanks)
	for rank, ids := range p.rankOps() {
		if len(ids) == 0 {
			continue
		}
		local := make(map[OpID]int, len(ids))
		for k, id := range ids {
			local[id] = k
		}
		fmt.Fprintf(bw, "rank %d {\n", rank)
		for k, id := range ids {
			op := p.Op(id)
			switch op.Kind {
			case KindCalc:
				fmt.Fprintf(bw, "  o%d: calc %dns\n", k, int64(op.Work))
			case KindSend:
				fmt.Fprintf(bw, "  o%d: send %db to %d tag %d\n", k, op.Bytes, op.Peer, op.Tag)
			case KindRecv:
				peer, tag := "any", "any"
				if op.Peer != AnySource {
					peer = strconv.Itoa(int(op.Peer))
				}
				if op.Tag != AnyTag {
					tag = strconv.Itoa(int(op.Tag))
				}
				fmt.Fprintf(bw, "  o%d: recv %db from %s tag %s\n", k, op.Bytes, peer, tag)
			}
		}
		for k, id := range ids {
			opDeps := p.Deps(id)
			if len(opDeps) == 0 {
				continue
			}
			deps := make([]int, 0, len(opDeps))
			for _, d := range opDeps {
				deps = append(deps, local[d])
			}
			sort.Ints(deps)
			fmt.Fprintf(bw, "  o%d requires", k)
			for _, d := range deps {
				fmt.Fprintf(bw, " o%d", d)
			}
			fmt.Fprintln(bw)
		}
		fmt.Fprintln(bw, "}")
	}
	return bw.Flush()
}

// WriteString serializes the program to a string.
func WriteString(p *Program) string {
	var sb strings.Builder
	if err := Write(&sb, p); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}
