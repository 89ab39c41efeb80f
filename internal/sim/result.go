package sim

import (
	"fmt"
	"sort"
	"strings"

	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Result summarizes a completed simulation.
type Result struct {
	// Makespan is the completion time of the last application operation.
	Makespan simtime.Time
	// RankFinish holds each rank's last-op completion time.
	RankFinish []simtime.Time
	// RankBusy holds per-rank CPU time spent on application jobs.
	RankBusy []simtime.Duration
	// RankCtlBusy holds per-rank CPU time spent processing control traffic.
	RankCtlBusy []simtime.Duration
	// RankSeized holds per-rank CPU time spent seized (checkpoints, noise,
	// recovery).
	RankSeized []simtime.Duration
	// RankScaledExtra holds per-rank extra CPU time caused by ScaleCPU
	// slowdowns (background-interference modeling).
	RankScaledExtra []simtime.Duration
	// SeizedTime aggregates seized CPU time across ranks by reason.
	SeizedTime map[string]simtime.Duration
	// SeizedCount counts seizures across ranks by reason.
	SeizedCount map[string]int64
	// HeldTime aggregates application-gate (HoldApp) time by reason.
	HeldTime map[string]simtime.Duration
	// HeldCount counts HoldApp gates by reason.
	HeldCount map[string]int64
	// Metrics holds global message counters.
	Metrics Metrics
	// Events is the number of simulation events processed.
	Events int64
}

func (e *Engine) buildResult() *Result {
	r := &Result{
		RankFinish:      make([]simtime.Time, len(e.ranks)),
		RankBusy:        make([]simtime.Duration, len(e.ranks)),
		RankCtlBusy:     make([]simtime.Duration, len(e.ranks)),
		RankSeized:      make([]simtime.Duration, len(e.ranks)),
		RankScaledExtra: make([]simtime.Duration, len(e.ranks)),
		SeizedTime:      make(map[string]simtime.Duration),
		SeizedCount:     make(map[string]int64),
		HeldTime:        make(map[string]simtime.Duration),
		HeldCount:       make(map[string]int64),
		Metrics:         e.metrics,
		Events:          e.events,
	}
	// Re-expand the interned accounting to the string-keyed maps the Result
	// API has always exposed. A reason appears only if it was actually
	// charged (a queued-but-never-completed seizure leaves no key), matching
	// the behavior of the old map-per-event accounting.
	for id, reason := range e.reasons {
		if e.seizeCnt[id] > 0 {
			r.SeizedTime[reason] = e.seizeTime[id]
			r.SeizedCount[reason] = e.seizeCnt[id]
		}
		if e.heldCnt[id] > 0 {
			r.HeldTime[reason] = e.heldTime[id]
			r.HeldCount[reason] = e.heldCnt[id]
		}
	}
	for i := range e.ranks {
		st := &e.ranks[i]
		r.RankFinish[i] = st.finish
		r.RankBusy[i] = st.busy
		r.RankCtlBusy[i] = st.ctlBusy
		r.RankSeized[i] = st.seizedBusy
		r.RankScaledExtra[i] = st.scaledExtra
		if st.finish > r.Makespan {
			r.Makespan = st.finish
		}
	}
	return r
}

// CanonicalBytes renders the result as a deterministic byte string: equal
// results produce equal bytes and any field difference changes them
// (map keys are emitted sorted). The crash–resume differential harness
// compares these to prove a resumed run's remainder is byte-identical to
// the monolithic run's.
func (r *Result) CanonicalBytes() []byte {
	c := snapshot.Writer()
	snapshot.Int(c, &r.Makespan)
	snapshot.Slice(c, &r.RankFinish, -1)
	snapshot.Slice(c, &r.RankBusy, -1)
	snapshot.Slice(c, &r.RankCtlBusy, -1)
	snapshot.Slice(c, &r.RankSeized, -1)
	snapshot.Slice(c, &r.RankScaledExtra, -1)
	writeSorted(c, r.SeizedTime)
	writeSorted(c, r.SeizedCount)
	writeSorted(c, r.HeldTime)
	writeSorted(c, r.HeldCount)
	m := &r.Metrics
	snapshot.Int(c, &m.AppMessages)
	snapshot.Int(c, &m.AppBytes)
	snapshot.Int(c, &m.CtlMessages)
	snapshot.Int(c, &m.CtlBytes)
	snapshot.Int(c, &m.Rendezvous)
	snapshot.Int(c, &m.Matches)
	snapshot.Int(c, &m.UnexpectedMax)
	snapshot.Int(c, &m.PostedMax)
	snapshot.Int(c, &m.FabricBusy)
	snapshot.Int(c, &r.Events)
	return c.Bytes()
}

// writeSorted writes a string-keyed map's length, then each key and value
// in key order.
func writeSorted[V simtime.Duration | int64](c *snapshot.Codec, m map[string]V) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.Len(len(keys))
	for _, k := range keys {
		v := m[k]
		c.Str(&k)
		snapshot.Int(c, &v)
	}
}

// TotalSeized returns the CPU time seized across all ranks and reasons.
func (r *Result) TotalSeized() simtime.Duration {
	var t simtime.Duration
	for _, d := range r.SeizedTime {
		t += d
	}
	return t
}

// Slowdown returns the ratio of this result's makespan to a baseline
// makespan (1.0 = identical, 1.10 = 10% slower).
func (r *Result) Slowdown(baseline *Result) float64 {
	if baseline.Makespan == 0 {
		return 0
	}
	return float64(r.Makespan) / float64(baseline.Makespan)
}

// OverheadPercent returns the relative makespan increase over a baseline,
// in percent.
func (r *Result) OverheadPercent(baseline *Result) float64 {
	return (r.Slowdown(baseline) - 1) * 100
}

// String renders a multi-line human-readable summary.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan: %v\n", simtime.Duration(r.Makespan))
	fmt.Fprintf(&sb, "events:   %d\n", r.Events)
	fmt.Fprintf(&sb, "messages: %d app (%d B), %d ctl (%d B), %d rendezvous\n",
		r.Metrics.AppMessages, r.Metrics.AppBytes,
		r.Metrics.CtlMessages, r.Metrics.CtlBytes, r.Metrics.Rendezvous)
	if len(r.SeizedTime) > 0 {
		reasons := make([]string, 0, len(r.SeizedTime))
		for k := range r.SeizedTime {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		for _, k := range reasons {
			fmt.Fprintf(&sb, "seized[%s]: %v over %d seizures\n",
				k, r.SeizedTime[k], r.SeizedCount[k])
		}
	}
	return sb.String()
}
