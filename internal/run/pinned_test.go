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
	checkpoint.KindNone:          "b8ee93c65d2746e83567863009c2b51256c431b4ec45550ba3f56b66eeebd580",
	checkpoint.KindCoordinated:   "8f88314fd37a169727a59b0e940611e1a1c1278590ed14a51e87e958da83266b",
	checkpoint.KindUncoordinated: "02614b86e303fc3b8e1d214743b4e7ec9f0b074299a93bbd286955fe06038949",
	checkpoint.KindHierarchical:  "cff4225d2ad83c18df0adae0031bd46a8a66815fa4b16be9ba8721f0b0afe2c7",
	checkpoint.KindNonBlocking:   "8ea6a238e77e89e9eaa9e03cbfda380b3e36965fd027428cbc7f9df3ae74dddc",
	checkpoint.KindPartner:       "561b7522f1ef54b687e3d86fbc605a0ce226cbc1391cc6bf01fcb7b2a989a574",
	checkpoint.KindTwoLevel:      "2cf867c4c55fbb732c8e594f7aa60008f6287fafe7c887d7477b9a3091cc3eb5",
	checkpoint.KindReplication:   "7219dc2c28ddcf70e277b1ef2ed92dbf7114f1dc2e66280c3ef041026137693b",
	checkpoint.KindCIC:           "f15138e1c483af01893b69808b73f40ee6218aef9b31caeb5118d1078b7b7d5f",
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
