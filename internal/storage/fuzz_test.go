package storage

import (
	"testing"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// fuzzScenario decodes the raw fuzz bytes into a deterministic write
// schedule and runs it against a store, returning per-write completion
// times and the time the last byte drained.
type fuzzWrite struct {
	at    simtime.Time
	rank  int
	tier  Tier
	bytes int64
}

func decodeScenario(data []byte) (Params, []fuzzWrite) {
	if len(data) < 4 {
		return Params{}, nil
	}
	// Bandwidths from the first bytes: modest ranges keep drain times well
	// inside the int64 nanosecond space.
	p := Params{
		AggregateBytesPerSec: float64(1+int(data[0])%16) * 1e9,
		PerWriterBytesPerSec: float64(int(data[1])%8) * 1e9, // 0 = uncapped
		NodeBytesPerSec:      float64(int(data[2])%4) * 1e9, // 0 = unlimited
		RanksPerNode:         1 + int(data[3])%4,
	}
	data = data[4:]
	var ws []fuzzWrite
	for len(data) >= 4 && len(ws) < 24 {
		ws = append(ws, fuzzWrite{
			at:    simtime.Time(int(data[0])%50) * simtime.Time(100*simtime.Microsecond),
			rank:  int(data[1]) % 16,
			tier:  Tier(int(data[2]) % 2),
			bytes: int64(1+int(data[3])) * 64 * 1024,
		})
		data = data[4:]
	}
	return p, ws
}

// runScenario executes the writes on a fresh store and returns each write's
// completion time (in schedule order).
func runScenario(p Params, ws []fuzzWrite) []simtime.Time {
	s, err := New(p)
	if err != nil {
		return nil
	}
	sched := &fakeSched{}
	s.Bind(sched)
	ends := make([]simtime.Time, len(ws))
	for i, w := range ws {
		i, w := i, w
		sched.At(w.at, func() {
			s.Begin(w.rank, w.tier, w.bytes, sim.Call{Owner: recorder{sched, &ends[i]}})
		})
	}
	sched.run()
	return ends
}

// FuzzStoreArbitration checks the processor-sharing invariants on random
// write schedules:
//
//   - conservation: bytes drained through the global tier never exceed
//     aggregate bandwidth x elapsed time (and per-write, a write is never
//     faster than its lone-writer floor);
//   - monotonicity: adding one more writer never makes any existing write
//     finish earlier;
//   - determinism: permuting same-timestamp Begin calls leaves every
//     completion time unchanged.
func FuzzStoreArbitration(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 0, 0, 0, 7, 0, 1, 0, 7, 5, 2, 0, 3})
	f.Add([]byte{1, 0, 2, 2, 0, 0, 1, 9, 0, 1, 1, 9, 0, 2, 1, 9})
	f.Add([]byte{15, 7, 3, 4, 10, 3, 0, 255, 10, 4, 0, 255, 20, 5, 1, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ws := decodeScenario(data)
		if len(ws) == 0 {
			return
		}
		s, _ := New(p)
		ends := runScenario(p, ws)

		// Per-write floor + global conservation. Piecewise segments drain
		// with float64 arithmetic and completionEps absorbs sub-byte
		// residue, so both checks get a couple of nanoseconds of slack.
		var globalBytes float64
		var firstStart, lastEnd simtime.Time = simtime.Infinity, 0
		for i, w := range ws {
			if ends[i] == 0 && w.at != 0 {
				t.Fatalf("write %d never completed", i)
			}
			if d := ends[i].Sub(w.at); d < s.LoneDuration(w.tier, w.bytes)-2 {
				t.Fatalf("write %d drained in %v, below lone-writer floor %v",
					i, d, s.LoneDuration(w.tier, w.bytes))
			}
			if w.tier == TierGlobal {
				globalBytes += float64(w.bytes)
				if w.at < firstStart {
					firstStart = w.at
				}
				if ends[i] > lastEnd {
					lastEnd = ends[i]
				}
			}
		}
		if globalBytes > 0 && p.AggregateBytesPerSec > 0 {
			elapsed := lastEnd.Sub(firstStart).Seconds() + float64(len(ws))*1e-9
			if cap := p.AggregateBytesPerSec * elapsed; globalBytes > cap {
				t.Fatalf("conservation violated: %.0f global bytes in %v (cap %.0f)",
					globalBytes, lastEnd.Sub(firstStart), cap)
			}
		}

		// Monotonicity: replay with one extra writer injected at the first
		// write's start time; no original write may finish earlier. Allow
		// 2ns for the ceil-rounding of piecewise segments landing
		// differently.
		extra := append([]fuzzWrite(nil), ws...)
		extra = append(extra, fuzzWrite{at: ws[0].at, rank: 15, tier: TierGlobal, bytes: 1 << 20})
		endsMore := runScenario(p, extra)
		for i := range ws {
			if endsMore[i] < ends[i]-2 {
				t.Fatalf("write %d sped up with an extra writer: %v -> %v",
					i, ends[i], endsMore[i])
			}
		}

		// Determinism: reverse same-timestamp groups (schedule order within
		// one instant) and compare completion times exactly.
		perm := append([]fuzzWrite(nil), ws...)
		permIdx := make([]int, len(ws))
		for i := range permIdx {
			permIdx[i] = i
		}
		for lo := 0; lo < len(perm); {
			hi := lo
			for hi < len(perm) && perm[hi].at == perm[lo].at {
				hi++
			}
			for a, b := lo, hi-1; a < b; a, b = a+1, b-1 {
				perm[a], perm[b] = perm[b], perm[a]
				permIdx[a], permIdx[b] = permIdx[b], permIdx[a]
			}
			lo = hi
		}
		endsPerm := runScenario(p, perm)
		for i := range perm {
			if endsPerm[i] != ends[permIdx[i]] {
				t.Fatalf("write %d: completion depends on same-time ordering: %v vs %v",
					permIdx[i], ends[permIdx[i]], endsPerm[i])
			}
		}
	})
}
