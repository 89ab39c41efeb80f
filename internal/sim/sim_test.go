package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/simtime"
)

// testNet returns a simple parameter set with easily checkable arithmetic
// and rendezvous disabled.
func testNet() network.Params {
	return network.Params{
		Latency:         1000,
		Overhead:        100,
		Gap:             200,
		GapPerByte:      1,
		OverheadPerByte: 0,
	}
}

func run(t *testing.T, net network.Params, p *goal.Program, agents ...Agent) *Result {
	t.Helper()
	e, err := New(Config{Net: net, Program: p, Agents: agents, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCalcChain(t *testing.T) {
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(100)
	s.Calc(200)
	s.Calc(300)
	r := run(t, testNet(), b.MustBuild())
	if r.Makespan != 600 {
		t.Errorf("makespan = %v, want 600", r.Makespan)
	}
	if r.RankBusy[0] != 600 {
		t.Errorf("busy = %v", r.RankBusy[0])
	}
}

func TestIndependentCalcsSerialize(t *testing.T) {
	// Two independent calcs on one rank share the CPU.
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	b.Calc(0, 100)
	r := run(t, testNet(), b.MustBuild())
	if r.Makespan != 200 {
		t.Errorf("makespan = %v, want 200", r.Makespan)
	}
}

func TestParallelRanks(t *testing.T) {
	b := goal.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.Calc(i, simtime.Duration(100*(i+1)))
	}
	r := run(t, testNet(), b.MustBuild())
	if r.Makespan != 400 {
		t.Errorf("makespan = %v, want 400", r.Makespan)
	}
	for i, f := range r.RankFinish {
		want := simtime.Time(100 * (i + 1))
		if f != want {
			t.Errorf("rank %d finish = %v, want %v", i, f, want)
		}
	}
}

func TestEagerMessageClosedForm(t *testing.T) {
	// r0 sends s bytes to r1. Makespan = SendCPU + Wire + RecvCPU.
	net := testNet()
	const bytes = 11
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, bytes)
	b.Recv(1, 0, 0, bytes)
	r := run(t, net, b.MustBuild())
	want := simtime.Time(0).
		Add(net.SendCPU(bytes)).
		Add(net.Wire(bytes)).
		Add(net.RecvCPU(bytes))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
	if r.Metrics.AppMessages != 1 || r.Metrics.AppBytes != bytes {
		t.Errorf("metrics = %+v", r.Metrics)
	}
}

func TestPingPongClosedForm(t *testing.T) {
	net := testNet()
	const bytes = 8
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, bytes)
	s0.Recv(1, 0, bytes)
	s1 := b.Seq(1)
	s1.Recv(0, 0, bytes)
	s1.Send(0, 0, bytes)
	r := run(t, net, b.MustBuild())
	oneWay := net.SendCPU(bytes) + net.Wire(bytes) + net.RecvCPU(bytes)
	if r.Makespan != simtime.Time(2*oneWay) {
		t.Errorf("makespan = %v, want %v", r.Makespan, 2*oneWay)
	}
}

func TestUnexpectedMessageQueues(t *testing.T) {
	// Message arrives before recv is posted (recv delayed by calc).
	net := testNet()
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, 1)
	s1 := b.Seq(1)
	s1.Calc(100000)
	s1.Recv(0, 0, 1)
	r := run(t, net, b.MustBuild())
	// Recv completes RecvCPU after the calc (message waited in unexpected).
	want := simtime.Time(100000).Add(net.RecvCPU(1))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
	if r.Metrics.UnexpectedMax != 1 {
		t.Errorf("UnexpectedMax = %d, want 1", r.Metrics.UnexpectedMax)
	}
}

func TestLateMessagePostedQueue(t *testing.T) {
	// Recv posted before message exists: sender delayed by calc.
	net := testNet()
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Calc(50000)
	s0.Send(1, 0, 1)
	b.Recv(1, 0, 0, 1)
	r := run(t, net, b.MustBuild())
	want := simtime.Time(50000).Add(net.SendCPU(1)).Add(net.Wire(1)).Add(net.RecvCPU(1))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
	if r.Metrics.PostedMax != 1 {
		t.Errorf("PostedMax = %d", r.Metrics.PostedMax)
	}
}

func TestNICSerializesBackToBackSends(t *testing.T) {
	// Two sends from r0: second injection waits for NIC gap.
	net := testNet()
	const bytes = 10
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, bytes)
	s0.Send(1, 1, bytes)
	s1 := b.Seq(1)
	s1.Recv(0, 0, bytes)
	s1.Recv(0, 1, bytes)
	r := run(t, net, b.MustBuild())
	// First: CPU [0, sc); inject at sc; NIC busy until sc+nic.
	// Second: CPU [sc, 2sc); inject at max(2sc, sc+nic).
	sc := net.SendCPU(bytes)
	nic := net.NIC(bytes)
	inj2 := simtime.Time(0).Add(sc).Add(nic)
	if simtime.Time(2*sc) > inj2 {
		inj2 = simtime.Time(2 * sc)
	}
	want := inj2.Add(net.Wire(bytes)).Add(net.RecvCPU(bytes))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
}

func TestFIFOMatchingSameChannel(t *testing.T) {
	// Two same-tag messages must match posted recvs in order; sizes differ
	// so a mismatch would change the makespan.
	net := testNet()
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, 100)
	s0.Send(1, 0, 1)
	s1 := b.Seq(1)
	first := s1.Recv(0, 0, 100)
	s1.Recv(0, 0, 1)
	r := run(t, net, b.MustBuild())
	_ = first
	if r.Metrics.Matches != 2 {
		t.Errorf("matches = %d", r.Metrics.Matches)
	}
}

func TestWildcardMatching(t *testing.T) {
	net := testNet()
	b := goal.NewBuilder(3)
	b.Send(0, 2, 7, 8)
	b.Send(1, 2, 9, 8)
	s2 := b.Seq(2)
	s2.Recv(goal.AnySource, goal.AnyTag, 8)
	s2.Recv(goal.AnySource, goal.AnyTag, 8)
	r := run(t, net, b.MustBuild())
	if r.Metrics.Matches != 2 {
		t.Errorf("matches = %d", r.Metrics.Matches)
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	// Recv for tag 1 posted first must NOT take the tag-0 message.
	net := testNet()
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, 10)
	s0.Send(1, 1, 20)
	s1 := b.Seq(1)
	s1.Recv(0, 1, 20) // waits for the second message
	s1.Recv(0, 0, 10)
	r := run(t, net, b.MustBuild())
	if r.Metrics.Matches != 2 {
		t.Errorf("matches = %d", r.Metrics.Matches)
	}
}

func TestRendezvousClosedForm(t *testing.T) {
	net := testNet()
	net.RendezvousThreshold = 64
	const bytes = 128
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, bytes)
	b.Recv(1, 0, 0, bytes)
	r := run(t, net, b.MustBuild())
	// RTS: o on sender, L on wire. Recv already posted: CTS costs o, L back.
	// Data: SendCPU(s) on sender, Wire(s), RecvCPU(s).
	want := simtime.Time(0).
		Add(net.Overhead).Add(net.Wire(0)).
		Add(net.Overhead).Add(net.Wire(0)).
		Add(net.SendCPU(bytes)).Add(net.Wire(bytes)).Add(net.RecvCPU(bytes))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
	if r.Metrics.Rendezvous != 1 {
		t.Errorf("rendezvous = %d", r.Metrics.Rendezvous)
	}
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	// The receiver posts late; the sender's data transfer (and completion)
	// must wait — the coupling that propagates delay under rendezvous.
	net := testNet()
	net.RendezvousThreshold = 64
	const bytes = 128
	const recvDelay = 1000000
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, bytes)
	sendTail := s0.Calc(1) // depends on send completing
	_ = sendTail
	s1 := b.Seq(1)
	s1.Calc(recvDelay)
	s1.Recv(0, 0, bytes)
	r := run(t, net, b.MustBuild())
	// CTS cannot be sent before recvDelay.
	min := simtime.Time(recvDelay)
	if r.RankFinish[0] <= min {
		t.Errorf("rendezvous sender finished at %v, before receiver posted (%v)",
			r.RankFinish[0], min)
	}
}

func TestEagerDoesNotWaitForReceiver(t *testing.T) {
	net := testNet() // rendezvous disabled
	const bytes = 128
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Send(1, 0, bytes)
	s0.Calc(1)
	s1 := b.Seq(1)
	s1.Calc(1000000)
	s1.Recv(0, 0, bytes)
	r := run(t, net, b.MustBuild())
	if r.RankFinish[0] >= 1000000 {
		t.Errorf("eager sender blocked on receiver: finish %v", r.RankFinish[0])
	}
}

func TestDeadlockDetected(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Recv(1, 0, 0, 8) // no matching send
	e, err := New(Config{Net: testNet(), Program: b.MustBuild()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 1)
	e, _ := New(Config{Net: testNet(), Program: b.MustBuild()})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Net: testNet()}); err == nil {
		t.Error("nil program accepted")
	}
	b := goal.NewBuilder(1)
	b.Calc(0, 1)
	p := b.MustBuild()
	if _, err := New(Config{Net: network.Params{Latency: -1}, Program: p}); err == nil {
		t.Error("bad net accepted")
	}
}

func TestEventCap(t *testing.T) {
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s1 := b.Seq(1)
	for i := 0; i < 100; i++ {
		s0.Send(1, 0, 8)
		s1.Recv(0, 0, 8)
	}
	e, _ := New(Config{Net: testNet(), Program: b.MustBuild(), MaxEvents: 10})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "event cap") {
		t.Errorf("want event cap error, got %v", err)
	}
	if !errors.Is(err, ErrCapExceeded) {
		t.Errorf("event cap error should wrap ErrCapExceeded, got %v", err)
	}
}

func TestMaxTimeCap(t *testing.T) {
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(1000)
	s.Calc(1000)
	e, _ := New(Config{Net: testNet(), Program: b.MustBuild(), MaxTime: 500})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "time cap") {
		t.Errorf("want time cap error, got %v", err)
	}
	if !errors.Is(err, ErrCapExceeded) {
		t.Errorf("time cap error should wrap ErrCapExceeded, got %v", err)
	}
}

// --- agent machinery ---

type fnAgent struct {
	init func(ctx *Context)
}

func (a *fnAgent) Init(ctx *Context) { a.init(ctx) }

// closures is a test-only TimerOwner running registered funcs, so tests can
// drive the engine's data-only API (timers, Calls) with inline closures.
type closures struct{ fns []func() }

func (c *closures) OnTimer(_ uint8, arg int64) { c.fns[arg]() }

// call registers fn with the engine's closure owner and returns it as a
// Call.
func call(ctx *Context, fn func()) Call {
	var c *closures
	for i, k := range ctx.eng.ownerKeys {
		if k == "test:closures" {
			c = ctx.eng.owners[i].(*closures)
		}
	}
	if c == nil {
		c = &closures{}
		ctx.OwnTimers("test:closures", c)
	}
	c.fns = append(c.fns, fn)
	return Call{Owner: c, Arg: int64(len(c.fns) - 1)}
}

// at runs fn at absolute time t.
func at(ctx *Context, t simtime.Time, fn func()) {
	c := call(ctx, fn)
	ctx.AtOwned(t, c.Owner, c.Kind, c.Arg)
}

// after runs fn d from now.
func after(ctx *Context, d simtime.Duration, fn func()) {
	c := call(ctx, fn)
	ctx.AfterOwned(d, c.Owner, c.Kind, c.Arg)
}

type penaltyAgent struct {
	per simtime.Duration
}

func (a *penaltyAgent) Init(*Context) {}
func (a *penaltyAgent) SendPenalty(src, dst int, bytes int64) simtime.Duration {
	return a.per
}

func TestSeizeCPUDelaysWork(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	var end simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SeizeCPU(0, 1000, "test", call(ctx, func() { end = ctx.Now() }))
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.Makespan != 1100 {
		t.Errorf("makespan = %v, want 1100", r.Makespan)
	}
	if end != 1000 {
		t.Errorf("seize end = %v, want 1000", end)
	}
	if r.SeizedTime["test"] != 1000 || r.SeizedCount["test"] != 1 {
		t.Errorf("seize accounting = %v %v", r.SeizedTime, r.SeizedCount)
	}
	if r.TotalSeized() != 1000 {
		t.Errorf("TotalSeized = %v", r.TotalSeized())
	}
}

func TestSeizeIsNonPreemptiveButPriority(t *testing.T) {
	// A long calc is running; a seizure requested mid-run starts right after
	// it, ahead of the second queued calc.
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(1000)
	s.Calc(1000)
	var end simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		after(ctx, 500, func() {
			ctx.SeizeCPU(0, 300, "ck", call(ctx, func() { end = ctx.Now() }))
		})
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if end != 1300 {
		t.Errorf("seizure ended at %v, want 1300 (after current op)", end)
	}
	if r.Makespan != 2300 {
		t.Errorf("makespan = %v, want 2300", r.Makespan)
	}
}

func TestSeizeWhileIdle(t *testing.T) {
	// Rank 1 idles waiting for a message; a seizure during the idle period
	// delays the recv processing only if still active when it arrives.
	net := testNet()
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Calc(10000)
	s0.Send(1, 0, 1)
	b.Recv(1, 0, 0, 1)
	a := &fnAgent{init: func(ctx *Context) {
		at(ctx, 0, func() { ctx.SeizeCPU(1, 50000, "ck", Call{}) })
	}}
	r := run(t, net, b.MustBuild(), a)
	// Message arrives ~ 10000+SendCPU+Wire < 50000; recv CPU must wait for
	// the seizure to finish.
	want := simtime.Time(50000).Add(net.RecvCPU(1))
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
}

func TestSendPenaltyHook(t *testing.T) {
	net := testNet()
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, 8)
	b.Recv(1, 0, 0, 8)
	base := run(t, net, b.MustBuild())

	b2 := goal.NewBuilder(2)
	b2.Send(0, 1, 0, 8)
	b2.Recv(1, 0, 0, 8)
	taxed := run(t, net, b2.MustBuild(), &penaltyAgent{per: 777})
	if got := taxed.Makespan.Sub(base.Makespan); got != 777 {
		t.Errorf("penalty delta = %v, want 777", got)
	}
}

func TestSendControlRoundTrip(t *testing.T) {
	net := testNet()
	b := goal.NewBuilder(2)
	b.Calc(0, 1000000) // keep the app alive until control delivery
	b.Calc(1, 1)
	var delivered simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SendControl(0, 1, 4, call(ctx, func() { delivered = ctx.Now() }))
	}}
	run(t, net, b.MustBuild(), a)
	// The receiver's 1ns calc finishes long before the control message
	// arrives, so the receive processing starts at arrival.
	want := simtime.Time(0).Add(net.SendCPU(4)).Add(net.Wire(4)).Add(net.RecvCPU(4))
	if delivered != want {
		t.Errorf("delivered at %v, want %v", delivered, want)
	}
}

func TestTimers(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 10000)
	var fired []simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		at(ctx, 500, func() { fired = append(fired, ctx.Now()) })
		after(ctx, 200, func() { fired = append(fired, ctx.Now()) })
	}}
	run(t, testNet(), b.MustBuild(), a)
	if len(fired) != 2 || fired[0] != 200 || fired[1] != 500 {
		t.Errorf("timers fired at %v", fired)
	}
}

func TestContextPanics(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Calc(0, 10)
	b.Calc(1, 10)
	cases := []func(ctx *Context){
		func(ctx *Context) { after(ctx, 1, func() { at(ctx, 0, func() {}) }) },
		func(ctx *Context) { after(ctx, -1, func() {}) },
		func(ctx *Context) { ctx.AtOwned(1, nil, 0, 0) },
		func(ctx *Context) { ctx.AtOwned(1, &closures{}, 0, 0) }, // unregistered owner
		func(ctx *Context) { ctx.SeizeCPU(0, 1, "x", Call{Owner: &closures{}}) },
		func(ctx *Context) { ctx.SeizeCPU(5, 1, "x", Call{}) },
		func(ctx *Context) { ctx.SeizeCPU(0, -1, "x", Call{}) },
		func(ctx *Context) { ctx.SendControl(0, 0, 1, Call{}) },
		func(ctx *Context) { ctx.SendControl(0, 9, 1, Call{}) },
		func(ctx *Context) { ctx.SendControl(0, 1, -1, Call{}) },
	}
	for i, f := range cases {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			a := &fnAgent{init: f}
			e, err := New(Config{Net: testNet(), Program: b.MustBuild(), Agents: []Agent{a}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Run()
			_ = err
		}()
	}
}

func TestContextIntrospection(t *testing.T) {
	b := goal.NewBuilder(3)
	b.Calc(0, 100)
	b.Calc(1, 200)
	b.Calc(2, 300)
	var ops int
	var nr int
	a := &fnAgent{init: func(ctx *Context) {
		nr = ctx.NumRanks()
		at(ctx, 250, func() {
			ops = ctx.OpsRemaining()
			if got := ctx.eng.ranks[0].finish; got != 100 {
				t.Errorf("rank 0 finish = %v", got)
			}
			if ctx.Rand() == nil {
				t.Error("nil Rand")
			}
		})
	}}
	run(t, testNet(), b.MustBuild(), a)
	if nr != 3 {
		t.Errorf("NumRanks = %d", nr)
	}
	if ops != 1 {
		t.Errorf("OpsRemaining at t=250 = %d, want 1", ops)
	}
}

func TestResultString(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, 8)
	b.Recv(1, 0, 0, 8)
	a := &fnAgent{init: func(ctx *Context) { ctx.SeizeCPU(0, 10, "ck", Call{}) }}
	r := run(t, testNet(), b.MustBuild(), a)
	s := r.String()
	for _, want := range []string{"makespan", "messages", "seized[ck]"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String missing %q:\n%s", want, s)
		}
	}
}

func TestSlowdownHelpers(t *testing.T) {
	base := &Result{Makespan: 1000}
	r := &Result{Makespan: 1100}
	if got := r.Slowdown(base); got != 1.1 {
		t.Errorf("Slowdown = %v", got)
	}
	if got := r.OverheadPercent(base); got < 9.99 || got > 10.01 {
		t.Errorf("OverheadPercent = %v", got)
	}
	if (&Result{Makespan: 5}).Slowdown(&Result{}) != 0 {
		t.Error("zero baseline should give 0")
	}
}

// ring builds a P-rank ring exchange program with niter iterations.
func ring(p, niter int, bytes int64, work simtime.Duration) *goal.Program {
	b := goal.NewBuilder(p)
	seqs := make([]*goal.Sequencer, p)
	for i := range seqs {
		seqs[i] = b.Seq(i)
	}
	for it := 0; it < niter; it++ {
		for i := 0; i < p; i++ {
			s := seqs[i]
			s.Calc(work)
			sd := s.Fork(goal.KindSend, int32((i+1)%p), int32(it), bytes)
			rv := s.Fork(goal.KindRecv, int32((i+p-1)%p), int32(it), bytes)
			s.Join(sd, rv)
		}
	}
	return b.MustBuild()
}

func TestDeterminism(t *testing.T) {
	p := ring(8, 5, 256, 10000)
	runOnce := func() *Result {
		e, err := New(Config{Net: network.DefaultParams(), Program: p, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := runOnce(), runOnce()
	if a.Makespan != b.Makespan || a.Events != b.Events || a.Metrics != b.Metrics {
		t.Errorf("runs differ: %v/%v events %d/%d", a.Makespan, b.Makespan, a.Events, b.Events)
	}
	for i := range a.RankFinish {
		if a.RankFinish[i] != b.RankFinish[i] {
			t.Fatalf("rank %d finish differs", i)
		}
	}
}

// Property: makespan of a ring is at least the per-rank serial work and all
// messages match exactly once.
func TestQuickRingInvariant(t *testing.T) {
	f := func(seed uint16) bool {
		p := int(seed)%6 + 2
		iters := int(seed)%4 + 1
		prog := ring(p, iters, 64, 1000)
		e, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		r, err := e.Run()
		if err != nil {
			return false
		}
		if r.Makespan < simtime.Time(1000*iters) {
			return false
		}
		return r.Metrics.Matches == int64(p*iters) &&
			r.Metrics.AppMessages == int64(p*iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRing64(b *testing.B) {
	prog := ring(64, 10, 1024, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScaleCPUSlowsJobs(t *testing.T) {
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(1000)
	s.Calc(1000)
	a := &fnAgent{init: func(ctx *Context) {
		h := ctx.ScaleCPU(0, 2.0)
		// Restore after the first op has been granted (at t=0) and before
		// the second is granted: the first costs 2000, the second 1000.
		at(ctx, 2000, func() { ctx.Release(h) })
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.Makespan != 3000 {
		t.Errorf("makespan = %v, want 3000 (2000 scaled + 1000 nominal)", r.Makespan)
	}
	if r.RankScaledExtra[0] != 1000 {
		t.Errorf("scaled extra = %v, want 1000", r.RankScaledExtra[0])
	}
}

func TestScaleCPUNests(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 1000)
	a := &fnAgent{init: func(ctx *Context) {
		ctx.ScaleCPU(0, 2.0)
		ctx.ScaleCPU(0, 1.5)
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.Makespan != 3000 {
		t.Errorf("makespan = %v, want 3000 (factor 3.0)", r.Makespan)
	}
}

func TestScaleCPUDoesNotAffectSeizures(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	a := &fnAgent{init: func(ctx *Context) {
		ctx.ScaleCPU(0, 10)
		ctx.SeizeCPU(0, 500, "ck", Call{})
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	// Seizure runs first (priority): 500 absolute, then calc at 10x: 1000.
	if r.Makespan != 1500 {
		t.Errorf("makespan = %v, want 1500", r.Makespan)
	}
}

func TestScaleCPURestoreIdempotent(t *testing.T) {
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(1000)
	a := &fnAgent{init: func(ctx *Context) {
		h := ctx.ScaleCPU(0, 2)
		ctx.Release(h)
		ctx.Release(h) // double restore must not underflow or panic
		ctx.Release(0) // the zero Handle names nothing
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.Makespan != 1000 {
		t.Errorf("makespan = %v, want 1000 (scale fully restored)", r.Makespan)
	}
}

func TestScaleCPUPanics(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 10)
	for i, f := range []func(ctx *Context){
		func(ctx *Context) { ctx.ScaleCPU(5, 2) },
		func(ctx *Context) { ctx.ScaleCPU(0, 0.5) },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			a := &fnAgent{init: f}
			e, err := New(Config{Net: testNet(), Program: b.MustBuild(), Agents: []Agent{a}})
			if err != nil {
				t.Fatal(err)
			}
			_, _ = e.Run()
		}()
	}
}

func TestHoldAppGatesOnlyAppWork(t *testing.T) {
	// While held, a control message still processes; app calc waits.
	net := testNet()
	b := goal.NewBuilder(2)
	b.Calc(0, 1000)
	b.Calc(1, 1000000)
	var delivered simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		h := ctx.HoldApp(0, "gate")
		ctx.SendControl(1, 0, 4, call(ctx, func() { delivered = ctx.Now() }))
		at(ctx, 500000, func() { ctx.Release(h) })
	}}
	r := run(t, net, b.MustBuild(), a)
	want := simtime.Time(0).Add(net.SendCPU(4)).Add(net.Wire(4)).Add(net.RecvCPU(4))
	if delivered != want {
		t.Errorf("control delivered at %v during hold, want %v", delivered, want)
	}
	// Rank 0's calc could only start at release.
	if r.RankFinish[0] != 501000 {
		t.Errorf("held calc finished at %v, want 501000", r.RankFinish[0])
	}
	if r.HeldTime["gate"] != 500000 {
		t.Errorf("held time = %v", r.HeldTime["gate"])
	}
	if r.HeldCount["gate"] != 1 {
		t.Errorf("held count = %v", r.HeldCount["gate"])
	}
}

func TestHoldAppNests(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	a := &fnAgent{init: func(ctx *Context) {
		h1 := ctx.HoldApp(0, "a")
		h2 := ctx.HoldApp(0, "b")
		at(ctx, 1000, func() { ctx.Release(h1) })
		at(ctx, 2000, func() { ctx.Release(h2); ctx.Release(h1) })
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.Makespan != 2100 {
		t.Errorf("makespan = %v, want 2100 (released at the outermost)", r.Makespan)
	}
}

func TestFabricSerializesBigTransfers(t *testing.T) {
	// Two senders push 1MB each to distinct receivers. Unconstrained, they
	// proceed in parallel; with a finite bisection they serialize.
	build := func() *goal.Program {
		b := goal.NewBuilder(4)
		b.Send(0, 2, 0, 1<<20)
		b.Recv(2, 0, 0, 1<<20)
		b.Send(1, 3, 0, 1<<20)
		b.Recv(3, 1, 0, 1<<20)
		return b.MustBuild()
	}
	net := testNet()
	free := run(t, net, build())
	if free.Metrics.FabricBusy != 0 {
		t.Errorf("unconstrained run accumulated fabric busy %v", free.Metrics.FabricBusy)
	}

	net.BisectionBytesPerSec = 1 << 30 // ~1ms per 1MB message
	constrained := run(t, net, build())
	if constrained.Metrics.FabricBusy == 0 {
		t.Error("no fabric occupancy recorded")
	}
	if constrained.Makespan <= free.Makespan {
		t.Errorf("bisection constraint did not slow the run: %v vs %v",
			constrained.Makespan, free.Makespan)
	}
	// Serialization of 2x1MB through 1GB/s adds about one extra occupancy.
	occ := net.FabricOccupancy(1 << 20)
	if got := constrained.Makespan.Sub(free.Makespan); got < simtime.Duration(occ)/2 {
		t.Errorf("fabric delay %v suspiciously small (occupancy %v)", got, occ)
	}
}

func TestFabricUnconstrainedForSmallMessages(t *testing.T) {
	net := testNet()
	net.BisectionBytesPerSec = 1e12
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, 8)
	b.Recv(1, 0, 0, 8)
	r := run(t, net, b.MustBuild())
	// 8B through 1TB/s is sub-nanosecond: rounds to zero occupancy.
	if r.Metrics.FabricBusy != 0 {
		t.Errorf("tiny message accumulated fabric busy %v", r.Metrics.FabricBusy)
	}
}

// clampProgram has rank 2 fill the fabric with 1MB while rank 0 sends a
// 100KB message and then a 16B one to rank 1 on one tag. Queued behind the
// 1MB transfer, the 100KB message enters the fabric long after its NIC
// slot, while the 16B one, injected once the NIC frees, needs almost no
// wire time: only the per-channel clamp keeps it behind the first.
func clampProgram() *goal.Program {
	b := goal.NewBuilder(4)
	b.Send(2, 3, 0, 1<<20)
	b.Recv(3, 2, 0, 1<<20)
	s0 := b.Seq(0)
	s0.Calc(50)
	s0.Send(1, 0, 100<<10)
	s0.Send(1, 0, 16)
	s1 := b.Seq(1)
	s1.Recv(0, 0, 100<<10)
	s1.Recv(0, 0, 16)
	return b.MustBuild()
}

// TestFabricClampKeepsChannelOrder: under a fabric model the arrival clamp
// binds, so the 16B message arrives with, not before, the 100KB one ahead
// of it on the channel.
func TestFabricClampKeepsChannelOrder(t *testing.T) {
	net := testNet()
	net.BisectionBytesPerSec = 1e10 // 0.1 ns/B, ten times the link's G
	var injects []TraceEvent
	var arrivals []int64
	e, err := New(Config{Net: net, Program: clampProgram(), Seed: 1, Trace: func(ev TraceEvent) {
		if ev.Src == 0 && ev.Dst == 1 {
			switch ev.Type {
			case TraceInject:
				injects = append(injects, ev)
			case TraceArrive:
				arrivals = append(arrivals, ev.MsgID)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(injects) != 2 || len(arrivals) != 2 {
		t.Fatalf("%d injections and %d arrivals on channel 0→1, want 2 each", len(injects), len(arrivals))
	}
	big, small := injects[0], injects[1]
	if unclamped := small.Start.Add(net.Wire(small.Wire)); unclamped >= big.End {
		t.Fatalf("16B message would arrive at %v, after the 100KB one at %v: the clamp cannot bind here",
			unclamped, big.End)
	}
	if small.End != big.End {
		t.Errorf("16B message arrives at %v, want %v (clamped to the 100KB arrival)", small.End, big.End)
	}
	if arrivals[0] != big.MsgID || arrivals[1] != small.MsgID {
		t.Errorf("channel 0→1 delivered messages %v, want %d then %d", arrivals, big.MsgID, small.MsgID)
	}
	if e.side == nil || e.side[0].lastArrival == nil {
		t.Error("rank 0 injected under a fabric model but keeps no arrival table")
	}
}

// TestFabricFreeKeepsNoArrivalTables: without a fabric model no arrival can
// overtake another on its channel, so no rank keeps an arrival table.
func TestFabricFreeKeepsNoArrivalTables(t *testing.T) {
	for _, cfg := range []Config{
		{Net: testNet(), Program: clampProgram(), Seed: 1},
		snapConfig(1, nil),
		snapConfig(42, nil),
	} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.AppBytes == 0 {
			t.Fatal("the run sent no messages")
		}
		for i := range e.side {
			if e.side[i].lastArrival != nil {
				t.Errorf("%d-rank run: rank %d keeps an arrival table without a fabric model", len(e.ranks), i)
			}
		}
	}
}
