package goal

import "fmt"

// Widen returns a program with the same operations laid out on a larger
// machine: NumRanks is raised to numRanks and the extra ranks carry no
// application work. Resilience schemes that dedicate whole ranks to
// protocol duty — replica shadows mirroring a primary's state — use this to
// embed a P-rank application in a machine of P·(degree+1) simulated nodes,
// so the spare ranks' CPUs and NICs are real contended resources rather
// than bookkeeping. The returned program shares op storage with p (both are
// immutable); widening to the same size returns p itself.
//
// Raising NumRanks turns no valid op invalid, so a program widened from a
// validated p is validated too; only a never-validated p is checked here.
func Widen(p *Program, numRanks int) (*Program, error) {
	if numRanks < p.NumRanks {
		return nil, fmt.Errorf("goal: cannot widen %d-rank program to %d ranks", p.NumRanks, numRanks)
	}
	if numRanks == p.NumRanks {
		return p, nil
	}
	w := &Program{NumRanks: numRanks, Ops: p.Ops, deps: p.deps, depOff: p.depOff,
		outs: p.outs, outOff: p.outOff}
	if p.validated.Load() {
		w.validated.Store(true)
	} else if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
