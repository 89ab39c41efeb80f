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
// fields of the same length (Partner's fired, progress, last and busyAt
// slices, say) still decodes, into the wrong fields. These hashes move on
// any such change. A change of layout also bumps snapshot.FormatVersion;
// a change of what is written within one layout only re-pins.
var pinnedProtocolSHA = map[checkpoint.Kind]string{
	checkpoint.KindNone:          "312c4b3dbc878bb20f9e378c0f8ef1f2db5cd3199c273ef5644059ff9648c255",
	checkpoint.KindCoordinated:   "1d55ab9b0187bde5cc2a9bfb0b3c3273d5caf3de693a992bae58c3d92e7c7c88",
	checkpoint.KindUncoordinated: "d3b410b07e86031a1fab272286c7acd898f147a0e7b00de141b02176c5514769",
	checkpoint.KindHierarchical:  "ca7f8f237f23a5685b9b7dcf9a2f953021c6142e0de2fd71061bdba015df3d23",
	checkpoint.KindNonBlocking:   "bce88a02b2333dd6cdac0ff503d6b5e8b02b593562d7208974bf881d65126089",
	checkpoint.KindPartner:       "e4b93946822ac11187e344c8acb6dd3e4462925dc7c4a9f6537ebcd891fb3c54",
	checkpoint.KindTwoLevel:      "41608155a244e76efa7efa8b4330ede2de629d83ae0db146f1372ee842c1ec27",
	checkpoint.KindReplication:   "4e81acc20d222fe29e1d11c07d44a58c8e85c0eed0a1c217326aaa8f5f490e56",
	checkpoint.KindCIC:           "c8bd47af03b787d93e448ea2b98fdb3c1b8e4cddcac4555ac8adf728b5e9e763",
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
