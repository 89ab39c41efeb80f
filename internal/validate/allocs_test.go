package validate_test

import (
	"runtime"
	"testing"

	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/validate"
)

// Validation must not allocate per message: message pages are reused once
// their messages settle, receive and channel state live in tables sized by
// what is in flight, and the settled bytes and matched-receive bits grow
// by doubling. A 4x-longer run of the same ring may therefore allocate
// more only by a constant (those doublings and the engine's own) — never
// by its message count, nor by the pages its extra messages reach.
func TestCheckerAllocsIndependentOfMessages(t *testing.T) {
	const (
		p     = 8
		short = 10
		long  = 40
	)
	net := network.DefaultParams()
	measure := func(iters int) float64 {
		prog := ringProgram(p, iters, smallMsg, bigMsg, 50*simtime.Microsecond)
		return testing.AllocsPerRun(5, func() {
			c := validate.New(net)
			e, err := sim.New(sim.Config{Net: net, Program: prog, Seed: 1, Trace: c.Hook(nil)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(res); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortAllocs := measure(short)
	longAllocs := measure(long)
	extra := longAllocs - shortAllocs
	extraMsgs := p * (long - short) // application sends the longer run adds
	if bound := 8.0; extra > bound {
		t.Errorf("long run allocates %.0f more than short (for %d extra sends); bound %.0f: "+
			"the checker is allocating per message again", extra, extraMsgs, bound)
	}
}

// retained returns the heap bytes a checker that consumed events keeps
// live, and the number of messages those events inject.
func retained(t *testing.T, net network.Params, events []sim.TraceEvent, res *sim.Result) (bytes int64, msgs int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := feedChecker(net, events...)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(events)
	if err := c.Finish(res); err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), int(mt.AppMessages + mt.Rendezvous + mt.CtlMessages)
}

// The checker's memory follows the messages and receives in flight, not
// the stream's length: a ring run 4x longer, with the same in-flight
// depth, may retain more only by a constant plus the one byte each settled
// message ID keeps and the one bit each receive op keeps (both doubled for
// append's spare capacity). Paged state that grew with every message ever
// sent would retain 32 B per message and 24 B per op.
func TestCheckerMemoryFollowsInFlight(t *testing.T) {
	const (
		p     = 8
		short = 100
		long  = 400
	)
	net := network.DefaultParams()
	measure := func(iters int) (bytes int64, msgs, ops int) {
		prog := ringProgram(p, iters, smallMsg, bigMsg, 50*simtime.Microsecond)
		events, res := runTraced(t, net, prog)
		bytes, msgs = retained(t, net, events, res)
		return bytes, msgs, len(prog.Ops)
	}
	shortBytes, shortMsgs, shortOps := measure(short)
	longBytes, longMsgs, longOps := measure(long)
	extraMsgs, extraOps := longMsgs-shortMsgs, longOps-shortOps
	bound := int64(16<<10 + 2*extraMsgs + extraOps/4)
	if extra := longBytes - shortBytes; extra > bound {
		t.Errorf("a 4x longer stream (%d more messages, %d more ops) retains %d B more (%d → %d); bound %d B: "+
			"checker state is growing with the stream again", extraMsgs, extraOps, extra, shortBytes, longBytes, bound)
	}
}
