package validate_test

import (
	"testing"

	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/validate"
)

// Validation must not allocate per message: message and receive state
// live in paged tables indexed by MsgID and OpID, and channel state in a
// per-sender slice indexed by destination. A 4x-longer run of the same
// ring may therefore allocate more only by a constant (page directory
// and engine heap doublings) plus the pages its extra messages and ops
// reach — never by its message count.
func TestCheckerAllocsIndependentOfMessages(t *testing.T) {
	const (
		p     = 8
		short = 10
		long  = 40
	)
	net := network.DefaultParams()
	measure := func(iters int) (allocs float64, ops, msgs int) {
		prog := ringProgram(p, iters, smallMsg, bigMsg, 50*simtime.Microsecond)
		allocs = testing.AllocsPerRun(5, func() {
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
			mt := res.Metrics
			msgs = int(mt.AppMessages + mt.Rendezvous + mt.CtlMessages)
		})
		return allocs, len(prog.Ops), msgs
	}
	shortAllocs, _, _ := measure(short)
	longAllocs, longOps, longMsgs := measure(long)
	pages := (longOps+1023)/1024 + (longMsgs+1023)/1024 // the long run's table pages
	extra := longAllocs - shortAllocs
	extraMsgs := p * (long - short) // application sends the longer run adds
	if bound := float64(32 + pages); extra > bound {
		t.Errorf("long run allocates %.0f more than short (for %d extra sends); bound %.0f: "+
			"the checker is allocating per message again", extra, extraMsgs, bound)
	}
}
