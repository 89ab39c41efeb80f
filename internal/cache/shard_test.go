package cache

import (
	"fmt"
	"testing"
)

var clusterNodes = []string{
	"http://w0:8080", "http://w1:8080", "http://w2:8080", "http://w3:8080",
}

// Rendezvous picks every node for some keys (no starvation) and spreads a
// key population roughly evenly — the property that makes it a shard
// function rather than a hash ring curiosity.
func TestPickNodeDistribution(t *testing.T) {
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[PickNode(fmt.Sprintf("key-%d", i), clusterNodes)]++
	}
	for _, n := range clusterNodes {
		got := counts[n]
		// Fair share is 1000; loose band catches gross skew, not variance.
		if got < keys/len(clusterNodes)/2 || got > keys/len(clusterNodes)*2 {
			t.Errorf("node %s owns %d of %d keys, outside [500, 2000]", n, got, keys)
		}
	}
}

// Removing one node remaps only that node's keys: everyone else keeps
// their shard, which is what keeps worker caches warm across a death.
func TestPickNodeMinimalRemap(t *testing.T) {
	survivors := clusterNodes[:3]
	dead := clusterNodes[3]
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := PickNode(key, clusterNodes)
		after := PickNode(key, survivors)
		if before != dead && after != before {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, before, after)
		}
		if before == dead && after == dead {
			t.Fatalf("key %s still assigned to the removed node", key)
		}
	}
}

// Membership order never matters: the winner is a function of the set.
func TestPickNodeOrderIndependent(t *testing.T) {
	reversed := []string{clusterNodes[3], clusterNodes[2], clusterNodes[1], clusterNodes[0]}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if PickNode(key, clusterNodes) != PickNode(key, reversed) {
			t.Fatalf("key %s: winner depends on membership order", key)
		}
	}
}

func TestPickNodeEmpty(t *testing.T) {
	if got := PickNode("k", nil); got != "" {
		t.Errorf("PickNode over empty set = %q, want \"\"", got)
	}
}

// Failing over by dropping the dead primary and picking again walks the
// nodes in one order per key: each promoted node beats every node still
// behind it, so the next-ranked shard wins whichever of the others are
// also gone. The coordinator's dead-shard failover relies on this.
func TestPickNodeFailoverOrder(t *testing.T) {
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		alive := append([]string(nil), clusterNodes...)
		for len(alive) > 0 {
			winner := PickNode(key, alive)
			var rest []string
			for _, n := range alive {
				if n != winner {
					rest = append(rest, n)
				}
			}
			if len(rest) != len(alive)-1 {
				t.Fatalf("key %s: winner %s is not one of %v", key, winner, alive)
			}
			for _, n := range rest {
				if got := PickNode(key, []string{n, winner}); got != winner {
					t.Fatalf("key %s: %s won over %v but loses to %s alone", key, winner, alive, n)
				}
			}
			alive = rest
		}
	}
}
