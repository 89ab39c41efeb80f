package cache

import "hash/fnv"

// PickNode rendezvous-hashes a cache key across a node set: every
// (key, node) pair gets an independent pseudo-random score and the highest
// score wins. The winner is a pure function of the key and the surviving
// membership — no ring state, no coordination — and removing one node
// remaps only the keys that node owned (each falls to its second-highest
// scorer), which is exactly the re-sharding behavior the coordinator wants
// when a worker dies: the rest of the cluster keeps its warm caches.
//
// Returns "" for an empty node set.
func PickNode(key string, nodes []string) string {
	best, bestScore := "", uint64(0)
	for _, n := range nodes {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write([]byte(n))
		if score := h.Sum64(); best == "" || score > bestScore || (score == bestScore && n < best) {
			best, bestScore = n, score
		}
	}
	return best
}
