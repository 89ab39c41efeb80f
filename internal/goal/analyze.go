package goal

import (
	"bufio"
	"fmt"
	"io"

	"checkpointsim/internal/network"
	"checkpointsim/internal/simtime"
)

// CriticalPath computes the longest weighted path through the program under
// the given network parameters, ignoring all resource contention (CPU
// serialization, NIC gaps, matching queues). The result is therefore a
// lower bound on any simulated makespan, and the returned op chain is the
// structurally binding dependency chain — useful for explaining *why* a
// workload amplifies checkpoint delays (long chains = amplification).
//
// Costs: calc = Work; send = SendCPU; recv = RecvCPU; a matched
// send→recv pair adds a Wire(bytes) edge. Sends and receives are matched
// statically per (src, dst, tag) channel in FIFO order, mirroring the
// simulator's non-overtaking semantics; wildcard receives get no message
// edge (omitting edges keeps the bound valid).
func CriticalPath(p *Program, net network.Params) (simtime.Duration, []OpID) {
	n := len(p.Ops)
	if n == 0 {
		return 0, nil
	}
	// Static message matching: k-th send on a channel pairs with the k-th
	// non-wildcard recv on it.
	type channel struct{ src, dst, tag int32 }
	sends := make(map[channel][]OpID)
	recvs := make(map[channel][]OpID)
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case KindSend:
			ch := channel{op.Rank, op.Peer, op.Tag}
			sends[ch] = append(sends[ch], OpID(i))
		case KindRecv:
			if op.Peer == AnySource || op.Tag == AnyTag {
				continue
			}
			ch := channel{op.Peer, op.Rank, op.Tag}
			recvs[ch] = append(recvs[ch], OpID(i))
		}
	}
	// msgEdge[recvOp] = matching send op (NoOp if none).
	msgEdge := make([]OpID, n)
	for i := range msgEdge {
		msgEdge[i] = NoOp
	}
	for ch, ss := range sends {
		rr := recvs[ch]
		for k := 0; k < len(ss) && k < len(rr); k++ {
			msgEdge[rr[k]] = ss[k]
		}
	}

	cost := func(op *Op) simtime.Duration {
		switch op.Kind {
		case KindCalc:
			return op.Work
		case KindSend:
			return net.SendCPU(op.Bytes)
		case KindRecv:
			return net.RecvCPU(op.Bytes)
		}
		return 0
	}

	// Longest-path DP over a topological order (deps + message edges).
	indeg := make([]int32, n)
	for i := range p.Ops {
		indeg[i] = int32(len(p.Deps(OpID(i))))
		if msgEdge[i] != NoOp {
			indeg[i]++
		}
	}
	// Reverse message adjacency: send -> recvs it feeds.
	msgOuts := make(map[OpID][]OpID)
	for r, s := range msgEdge {
		if s != NoOp {
			msgOuts[s] = append(msgOuts[s], OpID(r))
		}
	}
	dist := make([]simtime.Duration, n)
	from := make([]OpID, n)
	for i := range dist {
		dist[i] = -1
		from[i] = NoOp
	}
	queue := make([]OpID, 0, n)
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, OpID(i))
			dist[i] = cost(&p.Ops[i])
		}
	}
	relax := func(to OpID, via OpID, edge simtime.Duration) {
		cand := dist[via] + edge + cost(p.Op(to))
		if cand > dist[to] {
			dist[to] = cand
			from[to] = via
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, out := range p.Outs(id) {
			relax(out, id, 0)
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
		for _, r := range msgOuts[id] {
			relax(r, id, net.Wire(p.Op(r).Bytes))
			indeg[r]--
			if indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	if seen != n {
		// A cycle through message edges (e.g. a send depending on its own
		// recv across ranks) — the simulator would deadlock too. Report the
		// best bound found.
		return maxDist(dist, from)
	}
	return maxDist(dist, from)
}

func maxDist(dist []simtime.Duration, from []OpID) (simtime.Duration, []OpID) {
	best := OpID(0)
	for i := range dist {
		if dist[i] > dist[best] {
			best = OpID(i)
		}
	}
	var path []OpID
	for id := best; id != NoOp; id = from[id] {
		path = append(path, id)
		if from[id] == id {
			break // defensive: should not happen
		}
	}
	// Reverse into source-to-sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[best], path
}

// WriteDOT renders the program as a Graphviz digraph: one cluster per rank,
// solid edges for dependencies, dashed edges for statically matched
// messages. Intended for small programs (inspection and documentation);
// large graphs produce large files.
func WriteDOT(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph program {")
	fmt.Fprintln(bw, "  rankdir=TB; node [shape=box, fontsize=10];")
	for rank := 0; rank < p.NumRanks; rank++ {
		ids := p.RankOps(rank)
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(bw, "  subgraph cluster_%d {\n    label=\"rank %d\";\n", rank, rank)
		for _, id := range ids {
			op := p.Op(id)
			var label string
			switch op.Kind {
			case KindCalc:
				label = fmt.Sprintf("calc %v", op.Work)
			case KindSend:
				label = fmt.Sprintf("send %dB to %d", op.Bytes, op.Peer)
			case KindRecv:
				label = fmt.Sprintf("recv %dB from %d", op.Bytes, op.Peer)
			}
			fmt.Fprintf(bw, "    o%d [label=\"%s\"];\n", id, label)
		}
		fmt.Fprintln(bw, "  }")
	}
	for i := range p.Ops {
		for _, d := range p.Deps(OpID(i)) {
			fmt.Fprintf(bw, "  o%d -> o%d;\n", d, i)
		}
	}
	// Message edges via the same static matching as CriticalPath.
	type channel struct{ src, dst, tag int32 }
	sends := make(map[channel][]OpID)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind == KindSend {
			ch := channel{op.Rank, op.Peer, op.Tag}
			sends[ch] = append(sends[ch], OpID(i))
		}
	}
	taken := make(map[channel]int)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind != KindRecv || op.Peer == AnySource || op.Tag == AnyTag {
			continue
		}
		ch := channel{op.Peer, op.Rank, op.Tag}
		k := taken[ch]
		if k < len(sends[ch]) {
			fmt.Fprintf(bw, "  o%d -> o%d [style=dashed, color=blue];\n", sends[ch][k], i)
			taken[ch] = k + 1
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
