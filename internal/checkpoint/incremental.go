package checkpoint

import (
	"fmt"
	"math"

	"checkpointsim/internal/simtime"
)

// IncrementalParams configure incremental checkpointing: only pages dirtied
// since the previous checkpoint are written, with a periodic full write to
// bound the recovery chain.
type IncrementalParams struct {
	// FullEvery makes every k-th write a full checkpoint (k >= 1);
	// the writes in between are incremental.
	FullEvery int
	// Fraction is the incremental write cost as a fraction of the full
	// write cost (the dirty-page ratio), in (0, 1].
	Fraction float64
}

// Validate checks the parameters.
func (ip IncrementalParams) Validate() error {
	if ip.FullEvery < 1 {
		return fmt.Errorf("checkpoint: FullEvery %d < 1", ip.FullEvery)
	}
	if !(ip.Fraction > 0 && ip.Fraction <= 1) {
		return fmt.Errorf("checkpoint: incremental fraction %v outside (0,1]", ip.Fraction)
	}
	return nil
}

// writeDuration returns the duration of rank's n-th write (1-based). With
// incremental writes only every FullEvery-th write pays the full
// Params.Write; the others pay Write·Fraction. Recovery from an incremental
// chain must restore the last full checkpoint plus all increments since;
// that folds into the unchanged restart cost (the chain is bounded by
// FullEvery), so the performance side — the dramatic reduction in write
// duty cycle — is what this variant isolates.
func (u *Uncoordinated) writeDuration(n int64) simtime.Duration {
	if u.inc.FullEvery <= 1 || u.inc.Fraction == 0 {
		return u.p.Write
	}
	if n%int64(u.inc.FullEvery) == 0 {
		return u.p.Write
	}
	return u.p.Write.Scale(u.inc.Fraction)
}

// writeBytes returns the image size of rank's n-th write (1-based), scaled
// by the incremental fraction exactly as writeDuration scales the duration.
// Zero lets storeWrite derive bytes from the duration.
func (u *Uncoordinated) writeBytes(n int64) int64 {
	if u.p.Bytes <= 0 || u.inc.FullEvery <= 1 || u.inc.Fraction == 0 {
		return u.p.Bytes
	}
	if n%int64(u.inc.FullEvery) == 0 {
		return u.p.Bytes
	}
	return int64(math.Round(float64(u.p.Bytes) * u.inc.Fraction))
}
