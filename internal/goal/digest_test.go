package goal_test

import (
	"fmt"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// TestProgramDigestPinned pins Program.Digest where its encoding is spread
// over many hash writes: a stencil whose encoded words span several of the
// digest's 64 KiB blocks, and a parsed program with a forward dependency.
// The digest keys the result cache and every snapshot header, so how the
// words reach the hash may change but the hashed bytes may not.
func TestProgramDigestPinned(t *testing.T) {
	stencil, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base: workload.Base{Ranks: 256, Iterations: 20, Compute: simtime.Millisecond,
			Jitter: 0.1, Seed: 1},
		Bytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	forward, err := goal.ParseString(forwardAcyclic)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *goal.Program
		want string
	}{
		{"stencil2d P=256", stencil, "ef928da8b8421802e9dbee80fada43d0020fedbc81ff78723ba008993ff4ec16"},
		{"forward dep", forward, "8cc263391ec0908892a41da5ccf9de67da9edf34874af396d773f3f8edc9e082"},
	} {
		if got := fmt.Sprintf("%x", c.p.Digest()); got != c.want {
			t.Errorf("%s (%d ops): digest %s, want %s", c.name, len(c.p.Ops), got, c.want)
		}
	}
}
