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
	checkpoint.KindNone:          "7b076ed4946dc39efbe52d17467d214b5e13dc8c37448d322132b1543a39e54d",
	checkpoint.KindCoordinated:   "ed672aa3e9d3265833abfbea0f8420b2d4a435d40118e42ce4f99cf6977e06aa",
	checkpoint.KindUncoordinated: "91b2156ffa4d49f78a7047108fb675d09db64fedd4998fe5fc2d67b8bed35a01",
	checkpoint.KindHierarchical:  "086fdd122adb6ee63cec7736e069d0b4533364b8ccc1680981f13898333c24ff",
	checkpoint.KindNonBlocking:   "9d9b0f06fbe89c0227dd58d23b9bfe3477a7c43733e146cf0fb1726ff14f5855",
	checkpoint.KindPartner:       "20d075593f38d9581ab685b17f2e3ff6bb0ce1887c300db18e08ecb54a719ee2",
	checkpoint.KindTwoLevel:      "521534ece455ccff64411d521354ba93d77ddbe42b9c7fce9b20bfe1200c2512",
	checkpoint.KindReplication:   "fc93c0e0e7e5ed1616b46a84e447d8266529ceb41e200db594123214acba12c4",
	checkpoint.KindCIC:           "4b2f4de5212bd050c7140618a6a255c81deaedb880a2ac144fef23bd3e3a300c",
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
