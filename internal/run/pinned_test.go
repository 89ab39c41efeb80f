package run

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// pinnedProtocolSHA is, per protocol kind, the SHA-256 of every blob of
// pinnedProtocolRun, each prefixed by its length. A protocol's agent
// section is a fixed sequence of fields with no names, so reordering two
// fields of the same length (Partner's fired, last, busyAt and progress
// slices, say) still decodes, into the wrong fields. These hashes move on
// any such change. A change of layout also bumps snapshot.FormatVersion;
// a change of what is written within one layout only re-pins.
var pinnedProtocolSHA = map[checkpoint.Kind]string{
	checkpoint.KindNone:          "a5f9120bfbec235f222164a564185503c0b4d9871df6ea654dd81be672b6cfd0",
	checkpoint.KindCoordinated:   "1ab940351953729d5464a805a86e1b61f03fde0e336a958505c3ee431cea72c4",
	checkpoint.KindUncoordinated: "6392bfcea336d724a8771ab2d2dbe02b833d50268f958f4f403230817ccefc75",
	checkpoint.KindHierarchical:  "a04fec7876fc0314b798bc679261aa4a2d62905bfc3378b9642e544dbfe3fde0",
	checkpoint.KindNonBlocking:   "fae4052272a3ef9b7218d7487565b444c6a180d60b8035c5508412f7b9349378",
	checkpoint.KindPartner:       "cf0a6b4f4cf34b56f6403eb7d547c9595d4e20c0ac0c50ee06382aaefa13276d",
	checkpoint.KindTwoLevel:      "3fb0ef79f47f4e1e878688df017212e25542cd1c5de747e95576ae73fd35af56",
	checkpoint.KindReplication:   "77cf94131100b33f0eb3f51fe1886a3d85ba4d9607ee639703457e4f07141648",
	checkpoint.KindCIC:           "f9dade9afc44cd74249857d75e1fe29f13d962c869b39df1584d7583fc6720d6",
}

// pinnedProtocolRun is a small stencil run of kind with a snapshot every
// 10 events. Every protocol that writes does so through a store limited
// on both tiers, so the store's arbitration state rides in its section.
func pinnedProtocolRun(kind checkpoint.Kind) Config {
	const tau, delta = 2 * simtime.Millisecond, 200 * simtime.Microsecond
	p := checkpoint.Config{Kind: kind, Interval: tau, Write: delta}
	switch kind {
	case checkpoint.KindUncoordinated:
		p.Offset = "random"
		p.Logging = checkpoint.LogParams{Alpha: simtime.Microsecond, BetaNsPerByte: 0.1}
	case checkpoint.KindHierarchical:
		p.ClusterSize = 3
		p.Logging = checkpoint.LogParams{Alpha: simtime.Microsecond}
	case checkpoint.KindNonBlocking:
		p.Window, p.Slowdown = 4*delta, 1.1
	case checkpoint.KindPartner:
		p.CkptBytes = 64 * 1024
	case checkpoint.KindTwoLevel:
		p.TwoLevel = checkpoint.TwoLevelParams{LocalInterval: tau / 2, LocalWrite: delta / 4,
			GlobalInterval: 2 * tau, GlobalWrite: delta}
	case checkpoint.KindReplication:
		p = checkpoint.Config{Kind: kind, HeartbeatPeriod: tau / 4}
	case checkpoint.KindCIC:
		p.CICLag = 1
	}
	cfg := base()
	cfg.Protocol = p
	if kind != checkpoint.KindNone && kind != checkpoint.KindReplication {
		cfg.Storage = storage.Params{AggregateBytesPerSec: 1e9, PerWriterBytesPerSec: 4e8,
			NodeBytesPerSec: 2e9, RanksPerNode: 2}
	}
	cfg.SnapshotEvery = 10
	return cfg
}

// TestProtocolSnapshotBytesPinned pins the snapshot bytes of one run of
// every protocol kind, agent sections included.
func TestProtocolSnapshotBytesPinned(t *testing.T) {
	kinds := []checkpoint.Kind{checkpoint.KindNone, checkpoint.KindCoordinated,
		checkpoint.KindUncoordinated, checkpoint.KindHierarchical, checkpoint.KindNonBlocking,
		checkpoint.KindPartner, checkpoint.KindTwoLevel, checkpoint.KindReplication,
		checkpoint.KindCIC}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := pinnedProtocolRun(kind)
			h := sha256.New()
			var n [8]byte
			blobs := 0
			cfg.OnSnapshot = func(s sim.Snapshot) {
				binary.LittleEndian.PutUint64(n[:], uint64(len(s.Blob)))
				h.Write(n[:])
				h.Write(s.Blob)
				blobs++
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if blobs < 20 {
				t.Fatalf("only %d snapshots", blobs)
			}
			st := r.Protocol.Stats()
			if kind != checkpoint.KindNone && kind != checkpoint.KindReplication && st.Writes == 0 {
				t.Fatal("the protocol wrote no checkpoint")
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := pinnedProtocolSHA[kind]; got != want {
				t.Errorf("%d blobs hash to %s, pinned %s: the snapshot bytes changed", blobs, got, want)
			}
		})
	}
}
