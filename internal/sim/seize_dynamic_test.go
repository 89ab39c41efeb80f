package sim

import (
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
)

func TestSeizeCPUDynamicBasic(t *testing.T) {
	// An open-ended seizure held for 1500ns with a 1000ns nominal: 1000
	// accounted under "write", 500 under "wait", makespan pushed by the full
	// 1500.
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	var end simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SeizeCPUDynamic(0, 1000, "write", "wait",
			call(ctx, func() {
				if ctx.Now() != 0 {
					t.Errorf("granted at %v, want 0", ctx.Now())
				}
				after(ctx, 1500, func() { ctx.ReleaseSeizure(0) })
			}),
			call(ctx, func() { end = ctx.Now() }))
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if end != 1500 {
		t.Errorf("seizure ended at %v, want 1500", end)
	}
	if r.Makespan != 1600 {
		t.Errorf("makespan = %v, want 1600", r.Makespan)
	}
	if r.SeizedTime["write"] != 1000 || r.SeizedCount["write"] != 1 {
		t.Errorf("write accounting = %v %v", r.SeizedTime, r.SeizedCount)
	}
	if r.SeizedTime["wait"] != 500 || r.SeizedCount["wait"] != 1 {
		t.Errorf("wait accounting = %v %v", r.SeizedTime, r.SeizedCount)
	}
	if r.TotalSeized() != 1500 {
		t.Errorf("TotalSeized = %v", r.TotalSeized())
	}
}

func TestSeizeCPUDynamicNoWait(t *testing.T) {
	// Held exactly the nominal: no wait component appears at all.
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SeizeCPUDynamic(0, 1000, "write", "wait",
			call(ctx, func() {
				after(ctx, 1000, func() { ctx.ReleaseSeizure(0) })
			}), Call{})
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if r.SeizedTime["write"] != 1000 {
		t.Errorf("write accounting = %v", r.SeizedTime)
	}
	if _, ok := r.SeizedTime["wait"]; ok {
		t.Errorf("wait accounted with zero excess: %v", r.SeizedTime)
	}
}

func TestSeizeCPUDynamicReleaseIdempotent(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	var ends int
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SeizeCPUDynamic(0, 0, "write", "wait",
			call(ctx, func() {
				after(ctx, 200, func() { ctx.ReleaseSeizure(0); ctx.ReleaseSeizure(0) })
				after(ctx, 700, func() { ctx.ReleaseSeizure(0) })
			}),
			call(ctx, func() { ends++ }))
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if ends != 1 {
		t.Errorf("done ran %d times, want 1", ends)
	}
	if r.Makespan != 300 {
		t.Errorf("makespan = %v, want 300 (released at 200)", r.Makespan)
	}
}

func TestSeizeCPUDynamicQueuesBehindRunningJob(t *testing.T) {
	// Non-preemptive: requested mid-calc, granted when the calc ends, and the
	// second calc waits for the release.
	b := goal.NewBuilder(1)
	s := b.Seq(0)
	s.Calc(1000)
	s.Calc(1000)
	var grantedAt simtime.Time
	a := &fnAgent{init: func(ctx *Context) {
		after(ctx, 500, func() {
			ctx.SeizeCPUDynamic(0, 100, "write", "wait",
				call(ctx, func() {
					grantedAt = ctx.Now()
					after(ctx, 300, func() { ctx.ReleaseSeizure(0) })
				}), Call{})
		})
	}}
	r := run(t, testNet(), b.MustBuild(), a)
	if grantedAt != 1000 {
		t.Errorf("granted at %v, want 1000", grantedAt)
	}
	if r.Makespan != 2300 {
		t.Errorf("makespan = %v, want 2300", r.Makespan)
	}
}

func TestSeizeCPUDynamicTraceSplit(t *testing.T) {
	// The trace stream shows two back-to-back events: nominal under the
	// seizure reason, excess under the wait reason.
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	var events []TraceEvent
	a := &fnAgent{init: func(ctx *Context) {
		ctx.SeizeCPUDynamic(0, 1000, "write", "wait",
			call(ctx, func() {
				after(ctx, 1500, func() { ctx.ReleaseSeizure(0) })
			}), Call{})
	}}
	e, err := New(Config{Net: testNet(), Program: b.MustBuild(),
		Agents: []Agent{a}, Seed: 1,
		Trace: func(ev TraceEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var seize []TraceEvent
	for _, ev := range events {
		if ev.Type == TraceCPU && (ev.Kind == "seize:write" || ev.Kind == "seize:wait") {
			seize = append(seize, ev)
		}
	}
	if len(seize) != 2 {
		t.Fatalf("seize trace events = %+v, want 2", seize)
	}
	if seize[0].Kind != "seize:write" || seize[0].Start != 0 || seize[0].End != 1000 {
		t.Errorf("nominal event = %+v", seize[0])
	}
	if seize[1].Kind != "seize:wait" || seize[1].Start != 1000 || seize[1].End != 1500 {
		t.Errorf("wait event = %+v", seize[1])
	}
}

func TestSeizeCPUDynamicValidation(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Calc(0, 100)
	noop := func(ctx *Context) Call { return call(ctx, func() {}) }
	for name, bad := range map[string]func(ctx *Context){
		"rank":    func(ctx *Context) { ctx.SeizeCPUDynamic(9, 0, "w", "x", noop(ctx), Call{}) },
		"nominal": func(ctx *Context) { ctx.SeizeCPUDynamic(0, -1, "w", "x", noop(ctx), Call{}) },
		"granted": func(ctx *Context) { ctx.SeizeCPUDynamic(0, 0, "w", "x", Call{}, Call{}) },
		"release": func(ctx *Context) { ctx.ReleaseSeizure(9) },
	} {
		bad := bad
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("bad call did not panic")
				}
			}()
			a := &fnAgent{init: func(ctx *Context) { bad(ctx) }}
			run(t, testNet(), b.MustBuild(), a)
		})
	}
}
