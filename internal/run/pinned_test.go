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
	checkpoint.KindNone:          "82862dbef7a53f77aa63a57dbd1b674dbeb53018784a9be90d30ce17276aed66",
	checkpoint.KindCoordinated:   "668b3873b63b9108db4858b7f50fb51e62587f171d62f158b92dd8557cadc75b",
	checkpoint.KindUncoordinated: "d8d7553e77146b2e06410a2b287b183af636fa5edd96e099eac09534a6dc2167",
	checkpoint.KindHierarchical:  "7f56c725eba9297bcb9c787b721f7dfed4958eeebd8d482809efe9b13e2a77a7",
	checkpoint.KindNonBlocking:   "37868be5e7f827d057934699df7c36be2581c11db34bfc666e4359205e28fdef",
	checkpoint.KindPartner:       "3b858782ae11f8a83c0a1fae4e6b54fdc565b5f9c77becb8dd519af79acebc06",
	checkpoint.KindTwoLevel:      "38d1d791b6cdfe35e890c94e1c9ccf3d0b8c100e3c42f49432c68d02b40bb70d",
	checkpoint.KindReplication:   "7ec89ba3e7c72ecda932e82d8d796e6968e5f086550c25a19688cdc30e89f9b2",
	checkpoint.KindCIC:           "0798df0a5261ec2f84a6a19674e74ac8ce2263e5a3e990f020955df9f95575ec",
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
