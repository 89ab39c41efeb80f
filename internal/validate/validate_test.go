package validate_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/validate"
)

// ringProgram builds a P-rank ring: every iteration each rank computes,
// then exchanges one message with each neighbor via non-blocking
// send/recv pairs. Message sizes alternate between small (eager) and big
// (rendezvous) so both wire protocols appear in the trace.
func ringProgram(ranks, iters int, small, big int64, compute simtime.Duration) *goal.Program {
	b := goal.NewBuilder(ranks)
	seqs := make([]*goal.Sequencer, ranks)
	for i := range seqs {
		seqs[i] = b.Seq(i)
	}
	for it := 0; it < iters; it++ {
		bytes := small
		if it%2 == 1 {
			bytes = big
		}
		for r := 0; r < ranks; r++ {
			s := seqs[r]
			s.Calc(compute)
			next := int32((r + 1) % ranks)
			prev := int32((r - 1 + ranks) % ranks)
			s.Join(
				s.Fork(goal.KindSend, next, 7, bytes),
				s.Fork(goal.KindRecv, prev, 7, bytes),
			)
		}
	}
	return b.MustBuild()
}

// runTraced executes one simulation recording the full event stream.
func runTraced(t testing.TB, net network.Params, prog *goal.Program, agents ...sim.Agent) ([]sim.TraceEvent, *sim.Result) {
	t.Helper()
	var events []sim.TraceEvent
	e, err := sim.New(sim.Config{
		Net: net, Program: prog, Agents: agents, Seed: 1,
		Trace: func(ev sim.TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// replay feeds a recorded (possibly mutated) stream through a fresh
// checker and returns the end-of-run verdict.
func replay(net network.Params, events []sim.TraceEvent, res *sim.Result) error {
	return feedChecker(net, events...).Finish(res)
}

// feedChecker returns a fresh checker that has consumed events through
// Hook, the callback the engine delivers them to.
func feedChecker(net network.Params, events ...sim.TraceEvent) *validate.Checker {
	return feedWatched(net, nil, nil, events...)
}

// feedWatched is feedChecker for a checker handed the run's store and
// agents first, as run.Run hands them, so that it sums their sends while
// it consumes and Finish reconciles them.
func feedWatched(net network.Params, st *storage.Store, agents []sim.Agent, events ...sim.TraceEvent) *validate.Checker {
	c := validate.New(net)
	c.Watch(st, agents...)
	hook := c.Hook(nil)
	for _, ev := range events {
		hook(ev)
	}
	return c
}

const (
	smallMsg = 4 * 1024
	bigMsg   = 256 * 1024 // past DefaultParams' 64 KiB rendezvous threshold
)

func coordinatedScenario(t testing.TB) ([]sim.TraceEvent, *sim.Result) {
	t.Helper()
	cp, err := checkpoint.NewCoordinated(checkpoint.Params{
		Interval: 500 * simtime.Microsecond,
		Write:    100 * simtime.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(4, 20, smallMsg, bigMsg, 50*simtime.Microsecond)
	events, res := runTraced(t, network.DefaultParams(), prog, cp)
	return events, res
}

// An unmutated trace from a real coordinated run must pass every check.
func TestValidCoordinatedTracePasses(t *testing.T) {
	events, res := coordinatedScenario(t)
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	if err := replay(network.DefaultParams(), events, res); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// An uncoordinated run with message logging must pass both the stream
// checks and the logging reconciliation.
func TestValidUncoordinatedLoggingPasses(t *testing.T) {
	cp, err := checkpoint.Config{Kind: checkpoint.KindUncoordinated,
		Interval: 700 * simtime.Microsecond, Write: 100 * simtime.Microsecond, Offset: "staggered",
		Logging: checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.01},
	}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	net := network.DefaultParams()
	prog := ringProgram(4, 20, smallMsg, bigMsg, 50*simtime.Microsecond)
	events, res := runTraced(t, net, prog, cp)

	if err := feedWatched(net, nil, []sim.Agent{cp}, events...).Finish(res); err != nil {
		t.Fatalf("valid trace or consistent logging rejected: %v", err)
	}
	if got := cp.Stats().LoggedMessages; got == 0 {
		t.Fatal("scenario logged no messages — logging check was vacuous")
	}
}

// Each targeted corruption of a valid trace must be rejected, and the
// violation text must name the right invariant family.
func TestCorruptedTraceRejected(t *testing.T) {
	base, res := coordinatedScenario(t)
	find := func(pred func(sim.TraceEvent) bool) int {
		for i, ev := range base {
			if pred(ev) {
				return i
			}
		}
		t.Fatal("scenario lacks an event the mutation needs")
		return -1
	}

	cases := []struct {
		name string
		want string // substring of the violation message
		mut  func(events []sim.TraceEvent) []sim.TraceEvent
	}{
		{"stretch-cpu-occupancy", "RankBusy", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceCPU && ev.Kind == sim.KindCalc })
			evs[i].End += 1000
			return evs
		}},
		{"drop-grant", "grant", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceGrant && ev.Kind == sim.KindCalc })
			return append(evs[:i], evs[i+1:]...)
		}},
		{"drop-match", "matches", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceMatch })
			return append(evs[:i], evs[i+1:]...)
		}},
		{"drop-arrival", "arriv", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceArrive && ev.Kind == sim.KindEager })
			return append(evs[:i], evs[i+1:]...)
		}},
		{"duplicate-match", "twice", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceMatch })
			dup := evs[i]
			evs = append(evs, sim.TraceEvent{})
			copy(evs[i+1:], evs[i:])
			evs[i+1] = dup
			return evs
		}},
		{"beat-wire-bound", "lower bound", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceInject })
			evs[i].End = evs[i].Start
			return evs
		}},
		{"nic-window-width", "NIC window", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceNIC })
			evs[i].End++
			return evs
		}},
		{"inflate-message-bytes", "app msgs", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceInject && ev.Kind == sim.KindEager })
			evs[i].Bytes += 64
			return evs
		}},
		{"hold-depth-mismatch", "depth", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TracePhase && ev.Name == sim.MarkHold })
			evs[i].Detail++
			return evs
		}},
		{"round-commit-out-of-order", "out of order", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TracePhase && ev.Name == checkpoint.MarkRoundStart })
			evs[i].Name = checkpoint.MarkRoundCommit
			return evs
		}},
		{"negative-rank", "negative rank", func(evs []sim.TraceEvent) []sim.TraceEvent {
			evs[0].Rank = -1
			return evs
		}},
		{"renumber-injection", "out of sequence", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceInject && ev.MsgID > 1 })
			evs[i].MsgID += 1000
			return evs
		}},
		{"reuse-injection-id", "injected twice", func(evs []sim.TraceEvent) []sim.TraceEvent {
			i := find(func(ev sim.TraceEvent) bool { return ev.Type == sim.TraceInject && ev.MsgID > 1 })
			evs[i].MsgID = 1
			return evs
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			events := append([]sim.TraceEvent(nil), base...)
			events = tc.mut(events)
			err := replay(network.DefaultParams(), events, res)
			if err == nil {
				t.Fatal("corrupted trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("violation %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Finish scans messages and receives in ID order, so a stream with more
// violations than the checker retains reports the same ones, in the same
// order, on every replay. Dropping every clear-to-send arrival breaks only
// the end-of-run scan (a CTS is neither matched nor readies a receive), and
// the coordinated ring sends enough rendezvous messages to overflow the cap.
func TestViolationOrderStable(t *testing.T) {
	base, res := coordinatedScenario(t)
	var events []sim.TraceEvent
	for _, ev := range base {
		if ev.Type == sim.TraceArrive && ev.Kind == sim.KindCTS {
			continue
		}
		events = append(events, ev)
	}
	first := replay(network.DefaultParams(), events, res)
	if first == nil {
		t.Fatal("trace without CTS arrivals accepted")
	}
	if !strings.Contains(first.Error(), "more") {
		t.Fatalf("scenario does not overflow the violation cap: %v", first)
	}
	for i := 0; i < 5; i++ {
		if again := replay(network.DefaultParams(), events, res); again.Error() != first.Error() {
			t.Fatalf("violations differ between replays:\n%v\n---\n%v", first, again)
		}
	}
	last := int64(0)
	for _, m := range regexp.MustCompile(`msg (\d+) `).FindAllStringSubmatch(first.Error(), -1) {
		id, _ := strconv.ParseInt(m[1], 10, 64)
		if id <= last {
			t.Fatalf("msg %d reported after msg %d: scan is not in ID order:\n%v", id, last, first)
		}
		last = id
	}
}

// Records that name a message long after it settled — a second arrival, a
// second match, a match of a rendezvous payload or of a control message —
// and a match naming a receive that already completed each report the
// violation a checker keeping every message's full state reports, in
// stream order.
func TestLateRecordsForSettledMessages(t *testing.T) {
	net := network.DefaultParams()
	base, _ := coordinatedScenario(t)
	var end simtime.Time
	first := map[sim.TraceKind]int64{}
	arrived := map[int64]bool{}
	var eagerMatch sim.TraceEvent
	for _, ev := range base {
		end = max(end, ev.Start, ev.End)
		switch ev.Type {
		case sim.TraceInject:
			if first[ev.Kind] == 0 {
				first[ev.Kind] = ev.MsgID
			}
		case sim.TraceArrive:
			arrived[ev.MsgID] = true
		case sim.TraceMatch:
			if ev.Kind == sim.KindEager && eagerMatch.MsgID == 0 {
				eagerMatch = ev
			}
		}
	}
	eager, data, ctl := eagerMatch.MsgID, first[sim.KindData], first[sim.KindCtl]
	if eager == 0 || data == 0 || ctl == 0 || !arrived[eager] || !arrived[data] || !arrived[ctl] {
		t.Fatalf("scenario lacks an arrived eager (%d), data (%d) or control (%d) message", eager, data, ctl)
	}
	late := func(ev sim.TraceEvent, id int64) sim.TraceEvent {
		ev.Start, ev.End, ev.MsgID = end, end, id
		return ev
	}
	arrive := sim.TraceEvent{Type: sim.TraceArrive, Kind: sim.KindEager, Rank: eagerMatch.Rank, Op: goal.NoOp}
	// A fresh eager message whose match names the receive eager completed.
	next := int64(0)
	for _, ev := range base {
		if ev.Type == sim.TraceInject {
			next = max(next, ev.MsgID+1)
		}
	}
	fresh := sim.TraceEvent{Type: sim.TraceInject, Kind: sim.KindEager, Rank: 0, Op: goal.NoOp,
		MsgID: next, Src: 0, Dst: 1, Bytes: smallMsg, Wire: smallMsg,
		Start: end, End: end.Add(net.Wire(smallMsg))}
	freshArrive := sim.TraceEvent{Type: sim.TraceArrive, Kind: sim.KindEager, Rank: 1, Op: goal.NoOp,
		MsgID: next, Start: fresh.End, End: fresh.End}
	freshMatch := freshArrive
	freshMatch.Type, freshMatch.RecvOp = sim.TraceMatch, eagerMatch.RecvOp

	events := append(append([]sim.TraceEvent(nil), base...),
		late(arrive, eager),
		late(eagerMatch, eager),
		late(eagerMatch, data),
		late(eagerMatch, data),
		late(eagerMatch, ctl),
		fresh, freshArrive, freshMatch)
	err := feedChecker(net, events...).Err()
	want := fmt.Sprintf("validate: 6 violation(s):"+
		"\n  - msg %d arrived twice"+
		"\n  - msg %d matched twice"+
		"\n  - msg %d: match of non-matchable kind \"data\""+
		"\n  - msg %d matched twice"+
		"\n  - msg %d: match of non-matchable kind \"ctl\""+
		"\n  - recv op %d matched a second message (msg %d)",
		eager, eager, data, data, ctl, eagerMatch.RecvOp, next)
	if err == nil || err.Error() != want {
		t.Errorf("late records report\n%v\nwant\n%s", err, want)
	}
}

// Hook must tee events to the wrapped consumer, and the violation list
// must cap (keeping a count of the overflow) instead of growing without
// bound on a badly broken stream.
func TestHookTeeAndViolationCap(t *testing.T) {
	c := validate.New(network.DefaultParams())
	var forwarded int
	hook := c.Hook(func(sim.TraceEvent) { forwarded++ })
	const n = 35
	for i := 0; i < n; i++ {
		hook(sim.TraceEvent{Type: sim.TraceCPU, Rank: -1, Kind: sim.KindCalc})
	}
	if forwarded != n {
		t.Errorf("forwarded %d of %d events to the wrapped consumer", forwarded, n)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("broken stream produced no error")
	}
	if got := strings.Count(err.Error(), "\n  - "); got >= n {
		t.Errorf("violation list not capped: %d entries", got)
	}
	if !strings.Contains(err.Error(), "more") {
		t.Errorf("error does not count overflowed violations: %v", err)
	}

	if err := validate.New(network.DefaultParams()).Err(); err != nil {
		t.Errorf("fresh checker reports error: %v", err)
	}
	var nilTee *validate.Checker = validate.New(network.DefaultParams())
	nilTee.Hook(nil)(sim.TraceEvent{Type: sim.TraceCPU, Rank: 0, Kind: sim.KindCalc})
	if err := nilTee.Finish(nil); err == nil {
		t.Error("Finish(nil) accepted")
	}
}

// phaseAt builds a synthetic storage phase marker.
func phaseAt(rank int, name string, detail int64, at simtime.Time) sim.TraceEvent {
	return sim.TraceEvent{Type: sim.TracePhase, Rank: rank, Name: name,
		Start: at, End: at, Op: goal.NoOp, Detail: detail}
}

// The storage reconciliation holds the store's counters against traced
// begin/end pairs: a real limited-store run passes, a drain the trace lost
// and bytes the trace misstates are flagged, and so is a broken per-rank
// FIFO pairing of the markers themselves.
func TestCheckStorage(t *testing.T) {
	net := network.DefaultParams()
	cic, st, base, res := cicScenario(t)
	if st.Stats().Writes == 0 {
		t.Fatal("scenario drained no store write — storage check was vacuous")
	}
	finish := func(events []sim.TraceEvent) error {
		return feedWatched(net, st, []sim.Agent{cic}, events...).Finish(res)
	}
	if err := finish(base); err != nil {
		t.Fatalf("consistent storage rejected: %v", err)
	}

	t.Run("lost-drain", func(t *testing.T) {
		// Drop the last store-end marker: its write looks in flight at
		// exit, which the stream allows, but the store counts it drained.
		events := append([]sim.TraceEvent(nil), base...)
		i := -1
		for j, ev := range events {
			if ev.Type == sim.TracePhase && ev.Name == storage.MarkStoreEnd {
				i = j
			}
		}
		if i < 0 {
			t.Fatal("scenario has no store-end marker")
		}
		events = append(events[:i], events[i+1:]...)
		err := finish(events)
		if err == nil || !strings.Contains(err.Error(), "completed writes, trace saw") {
			t.Fatalf("lost drain reported %v", err)
		}
	})

	t.Run("misstated-bytes", func(t *testing.T) {
		// Inflate every write by one byte at both ends: the FIFO pairing
		// holds, but the drained bytes no longer match the store's.
		events := append([]sim.TraceEvent(nil), base...)
		for j, ev := range events {
			if ev.Type == sim.TracePhase && (ev.Name == storage.MarkStoreBegin || ev.Name == storage.MarkStoreEnd) {
				events[j].Detail++
			}
		}
		err := finish(events)
		if err == nil || !strings.Contains(err.Error(), "B drained, trace saw") {
			t.Fatalf("misstated drain bytes reported %v", err)
		}
	})

	c := feedChecker(net,
		phaseAt(0, storage.MarkStoreBegin, 100, 10),
		phaseAt(0, storage.MarkStoreEnd, 80, 50)) // FIFO pairing broken
	if err := c.Err(); err == nil {
		t.Fatal("mismatched drain size accepted")
	}

	c = feedChecker(net, phaseAt(0, storage.MarkStoreEnd, 80, 50))
	if err := c.Err(); err == nil {
		t.Fatal("store-end with no write in flight accepted")
	}
}

// fakeLogger is a real logging protocol reporting doctored stats.
type fakeLogger struct {
	*checkpoint.Uncoordinated
	stats checkpoint.Stats
}

func (f fakeLogger) Stats() checkpoint.Stats { return f.stats }

// A protocol whose accumulated logging counters drift from the traced
// send set must be rejected.
func TestCheckLoggingDetectsDrift(t *testing.T) {
	cp, err := checkpoint.Config{Kind: checkpoint.KindUncoordinated,
		Interval: 700 * simtime.Microsecond, Write: 100 * simtime.Microsecond, Offset: "aligned",
		Logging: checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond},
	}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	net := network.DefaultParams()
	prog := ringProgram(4, 10, smallMsg, bigMsg, 50*simtime.Microsecond)
	events, res := runTraced(t, net, prog, cp)

	for name, doctor := range map[string]func(*checkpoint.Stats){
		"messages": func(s *checkpoint.Stats) { s.LoggedMessages++ },
		"bytes":    func(s *checkpoint.Stats) { s.LoggedBytes += 64 },
		"penalty":  func(s *checkpoint.Stats) { s.LogPenalty += 1000 },
	} {
		doctor := doctor
		t.Run(name, func(t *testing.T) {
			st := cp.Stats()
			doctor(&st)
			fake := fakeLogger{Uncoordinated: cp.(*checkpoint.Uncoordinated), stats: st}
			err := feedWatched(net, nil, []sim.Agent{fake}, events...).Finish(res)
			if err == nil || !strings.Contains(err.Error(), "logging: protocol") {
				t.Fatalf("doctored logging stats reported %v", err)
			}
		})
	}
}

// fuzzBase caches one recorded run for the fuzz target.
var fuzzBase struct {
	once   sync.Once
	events []sim.TraceEvent
	res    *sim.Result
}

// FuzzValidateTrace perturbs a valid trace with mutations that each break
// an invariant by construction, and asserts the checker rejects every one.
// The mutation classes map to the violation families: conservation
// (stretched occupancies, inflated payloads, dropped grants/matches),
// causality (early arrivals, dropped arrivals), and identity (a
// renumbered injection or a match naming another receive).
func FuzzValidateTrace(f *testing.F) {
	net := network.DefaultParams()
	base := func(t *testing.T) ([]sim.TraceEvent, *sim.Result) {
		fuzzBase.once.Do(func() {
			fuzzBase.events, fuzzBase.res = coordinatedScenario(t)
		})
		if fuzzBase.res == nil {
			t.Skip("base scenario failed to build")
		}
		return fuzzBase.events, fuzzBase.res
	}
	for mode := uint8(0); mode < 7; mode++ {
		f.Add(mode, uint16(0), int64(1))
		f.Add(mode, uint16(37), int64(999))
	}
	f.Fuzz(func(t *testing.T, mode uint8, idx uint16, delta int64) {
		events0, res := base(t)
		d := delta % 1_000_000
		if d <= 0 {
			d = 1 - d
		}
		events := append([]sim.TraceEvent(nil), events0...)

		// Candidate events for the chosen mutation. Each class is restricted
		// to events where the corruption is guaranteed detectable (e.g.
		// dropped control-message arrivals are legal truncation at exit, so
		// arrival drops only target application-class kinds).
		mode %= 7
		var cands []int
		for i, ev := range events {
			ok := false
			switch mode {
			case 0: // stretch a CPU occupancy: breaks busy-time conservation
				ok = ev.Type == sim.TraceCPU
			case 1: // drop an app grant: completion has no matching grant
				ok = ev.Type == sim.TraceGrant &&
					(ev.Kind == sim.KindCalc || ev.Kind == sim.KindSend || ev.Kind == sim.KindRecv)
			case 2: // drop a match: match counter diverges from Metrics
				ok = ev.Type == sim.TraceMatch
			case 3: // drop a non-ctl arrival: message never arrives / matched unarrived
				ok = ev.Type == sim.TraceArrive && ev.Kind != sim.KindCtl
			case 4: // inflate an app payload: byte conservation breaks
				ok = ev.Type == sim.TraceInject && (ev.Kind == sim.KindEager || ev.Kind == sim.KindData)
			case 5: // shift an arrival off its scheduled time: causality breaks
				ok = ev.Type == sim.TraceArrive
			case 6: // renumber an injection, or repoint a match at another receive
				ok = ev.Type == sim.TraceInject || ev.Type == sim.TraceMatch
			}
			if ok {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			t.Skip("no candidate event for this mutation")
		}
		i := cands[int(idx)%len(cands)]
		switch mode {
		case 0:
			events[i].End += simtime.Time(d)
		case 1, 2, 3:
			events = append(events[:i], events[i+1:]...)
		case 4:
			events[i].Bytes += d
		case 5:
			events[i].Start += simtime.Time(d)
		case 6:
			if events[i].Type == sim.TraceInject {
				events[i].MsgID += d
			} else {
				events[i].RecvOp += goal.OpID(d)
			}
		}
		if err := replay(net, events, res); err == nil {
			t.Fatalf("corrupted trace accepted (mode %d, event %d, delta %d)", mode, i, d)
		}
	})
}

// replicationScenario records a replication run with injected failures:
// a 2-rank ring application embedded in a 4-rank machine (the upper two
// ranks are replicas), failing often enough that takeovers occur.
func replicationScenario(t testing.TB) (*checkpoint.Replication, []sim.TraceEvent, *sim.Result) {
	t.Helper()
	p, err := checkpoint.Config{Kind: checkpoint.KindReplication,
		HeartbeatPeriod: 200 * simtime.Microsecond}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	rp := p.(*checkpoint.Replication)
	inj, err := failure.NewInjector(failure.Config{
		MTBF: 2 * simtime.Millisecond, Restart: 50 * simtime.Microsecond,
	}, rp)
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(2, 20, smallMsg, bigMsg, 50*simtime.Microsecond)
	wide, err := goal.Widen(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	events, res := runTraced(t, network.DefaultParams(), wide, rp, inj)
	return rp, events, res
}

// cicScenario records a CIC run whose checkpoints drain through a
// bandwidth-limited store, on a ring busy enough that the lag-1 rule forces
// checkpoints.
func cicScenario(t testing.TB) (*checkpoint.CIC, *storage.Store, []sim.TraceEvent, *sim.Result) {
	t.Helper()
	st, err := storage.New(storage.Params{AggregateBytesPerSec: 1e9, PerWriterBytesPerSec: 4e8})
	if err != nil {
		t.Fatal(err)
	}
	// The 1ms interval spreads the staggered offsets wide enough that rank
	// indices diverge while messages are in flight — the lag-1 rule forces.
	p, err := checkpoint.Config{Kind: checkpoint.KindCIC, Interval: simtime.Millisecond,
		Write: 100 * simtime.Microsecond, CICLag: 1, Offset: "staggered"}.New(st)
	if err != nil {
		t.Fatal(err)
	}
	cic := p.(*checkpoint.CIC)
	prog := ringProgram(4, 20, smallMsg, bigMsg, 50*simtime.Microsecond)
	events, res := runTraced(t, network.DefaultParams(), prog, cic)
	return cic, st, events, res
}

// A real replication run must pass the stream checks and the mirror/takeover
// reconciliation, and the scenario must actually exercise both.
func TestValidReplicationTracePasses(t *testing.T) {
	rp, events, res := replicationScenario(t)
	net := network.DefaultParams()
	if err := feedWatched(net, nil, []sim.Agent{rp}, events...).Finish(res); err != nil {
		t.Fatalf("valid replication trace rejected: %v", err)
	}
	st := rp.Stats()
	if st.MirroredMessages == 0 {
		t.Fatal("scenario mirrored no messages — mirror check was vacuous")
	}
	if st.Takeovers == 0 {
		t.Fatal("scenario absorbed no takeovers — takeover check was vacuous")
	}
}

// A real CIC run must pass the stream checks and the store and counter
// reconciliations, and the scenario must actually force checkpoints.
func TestValidCICTracePasses(t *testing.T) {
	cic, st, events, res := cicScenario(t)
	net := network.DefaultParams()
	if err := feedWatched(net, st, []sim.Agent{cic}, events...).Finish(res); err != nil {
		t.Fatalf("valid CIC trace rejected: %v", err)
	}
	if cic.Stats().Forced == 0 {
		t.Fatal("scenario forced no checkpoints — Z-cycle check was vacuous")
	}
}

// fakeReplica is a real replication protocol reporting doctored stats.
type fakeReplica struct {
	*checkpoint.Replication
	stats checkpoint.Stats
}

func (f fakeReplica) Stats() checkpoint.Stats { return f.stats }

// Each targeted corruption of the replication-family invariants must be
// rejected with a violation naming the right family.
func TestCorruptedReplicationRejected(t *testing.T) {
	rp, base, res := replicationScenario(t)
	net := network.DefaultParams()
	feed := func(events []sim.TraceEvent) *validate.Checker {
		return feedWatched(net, nil, []sim.Agent{rp}, events...)
	}
	doctored := func(st checkpoint.Stats) error {
		fake := fakeReplica{Replication: rp, stats: st}
		return feedWatched(net, nil, []sim.Agent{fake}, base...).Finish(res)
	}

	t.Run("dropped-mirror", func(t *testing.T) {
		// The protocol claims one fewer mirrored message than the traced
		// primary→primary sends require.
		st := rp.Stats()
		st.MirroredMessages--
		st.MirroredBytes -= smallMsg
		err := doctored(st)
		if err == nil {
			t.Fatal("dropped replica mirror accepted")
		}
		if !strings.Contains(err.Error(), "mirrored") {
			t.Errorf("violation %q does not mention mirroring", err)
		}
	})

	t.Run("double-takeover", func(t *testing.T) {
		// Duplicate a rep-takeover marker: two takeovers absorb one failure.
		events := append([]sim.TraceEvent(nil), base...)
		i := -1
		for j, ev := range events {
			if ev.Type == sim.TracePhase && ev.Name == checkpoint.MarkRepTakeover {
				i = j
				break
			}
		}
		if i < 0 {
			t.Fatal("scenario has no takeover to duplicate")
		}
		events = append(events, sim.TraceEvent{})
		copy(events[i+1:], events[i:])
		events[i+1] = events[i]
		err := feed(events).Err()
		if err == nil {
			t.Fatal("double takeover accepted")
		}
		if !strings.Contains(err.Error(), "double takeover") {
			t.Errorf("violation %q does not mention double takeover", err)
		}
	})

	t.Run("takeover-drift", func(t *testing.T) {
		// The protocol claims more absorbed takeovers than the trace shows.
		st := rp.Stats()
		st.Takeovers++
		if err := doctored(st); err == nil || !strings.Contains(err.Error(), "takeovers, trace shows") {
			t.Fatalf("takeover-count drift reported %v", err)
		}
	})
}

// Each targeted corruption of the CIC-family invariants must be rejected
// with a violation naming the right family.
func TestCorruptedCICRejected(t *testing.T) {
	cic, st, base, res := cicScenario(t)
	net := network.DefaultParams()
	feed := func(events []sim.TraceEvent) *validate.Checker {
		return feedWatched(net, st, []sim.Agent{cic}, events...)
	}
	find := func(events []sim.TraceEvent, kind string) int {
		for i, ev := range events {
			if ev.Type == sim.TracePhase && ev.Name == kind {
				return i
			}
		}
		t.Fatalf("scenario lacks a %q marker", kind)
		return -1
	}

	t.Run("non-monotone-index", func(t *testing.T) {
		// Replay a checkpoint index the rank has already completed.
		events := append([]sim.TraceEvent(nil), base...)
		i := find(events, checkpoint.MarkCICBasic)
		dup := events[i]
		events = append(events, sim.TraceEvent{})
		copy(events[i+1:], events[i:])
		events[i+1] = dup
		err := feed(events).Err()
		if err == nil {
			t.Fatal("non-monotone checkpoint index accepted")
		}
		if !strings.Contains(err.Error(), "monotone") {
			t.Errorf("violation %q does not mention monotonicity", err)
		}
	})

	t.Run("unforced-z-cycle", func(t *testing.T) {
		// Delete a forced-checkpoint completion: the announced induction is
		// never honored, so the rank's next application grant closes a
		// Z-cycle.
		events := append([]sim.TraceEvent(nil), base...)
		i := find(events, checkpoint.MarkCICForced)
		events = append(events[:i], events[i+1:]...)
		err := feed(events).Err()
		if err == nil {
			t.Fatal("unforced Z-cycle accepted")
		}
		if !strings.Contains(err.Error(), "Z-cycle") {
			t.Errorf("violation %q does not mention the Z-cycle", err)
		}
	})

	t.Run("unjustified-forced", func(t *testing.T) {
		// A forced checkpoint with no pending induction.
		events := append([]sim.TraceEvent(nil), base...)
		i := find(events, checkpoint.MarkCICForceDue)
		events[i].Name = checkpoint.MarkCICBasic // the announcement disappears
		err := feed(events).Err()
		if err == nil {
			t.Fatal("unjustified forced checkpoint accepted")
		}
	})

	t.Run("write-count-drift", func(t *testing.T) {
		// Drop the first forced-checkpoint completion together with the
		// announcements it honored: the stream stays consistent, but the
		// protocol counts one more write, and one more forced write, than
		// the markers show.
		events := append([]sim.TraceEvent(nil), base...)
		i := find(events, checkpoint.MarkCICForced)
		rank, idx := events[i].Rank, events[i].Detail
		var kept []sim.TraceEvent
		for j, ev := range events {
			announced := j < i && ev.Type == sim.TracePhase && ev.Rank == rank &&
				ev.Name == checkpoint.MarkCICForceDue && ev.Detail <= idx
			if j != i && !announced {
				kept = append(kept, ev)
			}
		}
		err := feed(kept).Finish(res)
		if err == nil {
			t.Fatal("forced-count drift accepted")
		}
		for _, want := range []string{"cic: protocol wrote", "cic: protocol forced"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("violation %q does not mention %q", err, want)
			}
		}
	})
}
