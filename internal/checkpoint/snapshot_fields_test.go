package checkpoint

// Exhaustive-field audit of the protocol agents' snapshot state (the
// counterpart of internal/sim/snapshot_fields_test.go for the engine).
// Every field of every Resumable protocol — plus the coordinator and the
// shared storage arbiter their state embeds — must have an entry saying
// how SnapshotState handles it. A field added without snapshot
// handling fails here until it is wired up (or its exclusion documented).

import (
	"reflect"
	"testing"

	"checkpointsim/internal/storage"
)

func requireFields(t *testing.T, typ reflect.Type, handled map[string]string) {
	t.Helper()
	inStruct := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		inStruct[name] = true
		if _, ok := handled[name]; !ok {
			t.Errorf("%s.%s has no snapshot-handling entry: wire it into "+
				"SnapshotState (or document the exclusion) and record it here", typ, name)
		}
	}
	for name := range handled {
		if !inStruct[name] {
			t.Errorf("%s.%s is in the handling table but not in the struct — drop the stale entry", typ, name)
		}
	}
}

func TestSnapshotCoversCoordinatedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Coordinated{}), map[string]string{
		"p":     "immutable parameters (its Store's mutable state rides in the agent section)",
		"stats": "serialized (codeStats)",
		"coord": "rebuilt by setup; its state serialized via coordinator.snapshotState",
	})
}

func TestSnapshotCoversUncoordinatedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Uncoordinated{}), map[string]string{
		"rankTimer": "serialized after stats (rankTimer.snapshotState)",
		"p":         "immutable parameters (Store state rides in the agent section)",
		"log":       "immutable parameters",
		"inc":       "immutable parameters",
		"stats":     "serialized",
		"nwrites":   "serialized",
		"ctx":       "rebound when restoring",
	})
}

// TestSnapshotCoversRankTimerFields: the per-rank timer every protocol on
// independent timers embeds. rankTimer.snapshotState walks the three
// per-rank slices, at the place each embedding protocol calls it.
func TestSnapshotCoversRankTimerFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(rankTimer{}), map[string]string{
		"interval": "immutable configuration",
		"offset":   "immutable configuration",
		"owner":    "re-wired by construction (the embedding protocol)",
		"due":      "immutable (the embedding protocol's work kind)",
		"fired":    "serialized (the fire time of each rank's checkpoint in flight)",
		"last":     "serialized",
		"busyAt":   "serialized",
	})
}

func TestSnapshotCoversHierarchicalFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Hierarchical{}), map[string]string{
		"p":           "immutable parameters (Store state rides in the agent section)",
		"clusterSize": "immutable configuration",
		"log":         "immutable parameters",
		"stats":       "serialized",
		"coords":      "rebuilt by setup; each cluster's coordinator.snapshotState in order",
	})
}

func TestSnapshotCoversNonBlockingFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(NonBlockingCoordinated{}), map[string]string{
		"p":        "immutable parameters (Store state rides in the agent section)",
		"window":   "immutable configuration",
		"slowdown": "immutable configuration",
		"stats":    "serialized",
		"ctx":      "rebound when restoring (setup)",
		"coord":    "rebuilt by setup; its state, any round in flight included, serialized via coordinator.snapshotState",
		"arrivals": "serialized (outstanding window/drain completions per rank)",
	})
}

func TestSnapshotCoversCICFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(CIC{}), map[string]string{
		"rankTimer": "serialized after idx (rankTimer.snapshotState)",
		"p":         "immutable parameters (Store state rides in the agent section)",
		"lag":       "immutable configuration",
		"stats":     "serialized",
		"ctx":       "rebound when restoring",
		"idx":       "serialized",
		"queues":    "serialized in sorted channel order (map iteration must not leak into bytes)",
	})
}

func TestSnapshotCoversPartnerFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Partner{}), map[string]string{
		"p":         "immutable parameters (Store state rides in the agent section)",
		"stats":     "serialized",
		"ctx":       "rebound when restoring",
		"rankTimer": "serialized after stats (rankTimer.snapshotState), before progress",
		"progress":  "serialized (each in-flight checkpoint's saved progress)",
		"transfers": "serialized (the shipped bytes are transfers × p.Bytes)",
	})
}

func TestSnapshotCoversReplicationFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Replication{}), map[string]string{
		"degree":   "immutable configuration",
		"period":   "immutable configuration",
		"takeover": "immutable configuration",
		"stats":    "serialized",
		"ctx":      "rebound when restoring",
		"app":      "recomputed when restoring (pure function of the configuration)",
		"nextBeat": "serialized",
	})
}

func TestSnapshotCoversTwoLevelFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(TwoLevel{}), map[string]string{
		"p":           "immutable parameters",
		"st":          "the store; its state rides in the agent section",
		"stats":       "serialized",
		"ctx":         "rebound when restoring (setup)",
		"coord":       "rebuilt by setup; its state serialized via coordinator.snapshotState",
		"local":       "serialized after stats (rankTimer.snapshotState)",
		"localWrites": "serialized",
	})
}

// TestSnapshotCoversCoordinatorFields: the shared round engine. A round may
// be in flight at any snapshot, so its per-round state serializes too.
func TestSnapshotCoversCoordinatorFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(coordinator{}), map[string]string{
		"ctx":           "rebound when the owning protocol's setup rebuilds the coordinator",
		"p":             "immutable parameters",
		"owner":         "re-wired by setup (the protocol routing the coordinator's work)",
		"group":         "re-wired by setup",
		"lo":            "re-wired by the owning protocol's setup",
		"tree":          "rebuilt by setup from the member count; laid out on first use",
		"stats":         "points into the owning protocol's serialized Stats",
		"async":         "re-wired by setup (the non-blocking protocol's background write)",
		"active":        "serialized",
		"tickTime":      "serialized",
		"pendingDelay":  "serialized",
		"acksLeft":      "serialized",
		"donesLeft":     "serialized",
		"pendingBusy":   "serialized",
		"committedBusy": "serialized (the committed recovery line)",
		"lineAt":        "serialized (when the committed line was taken)",
	})
}

func TestSnapshotCoversStatsFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Stats{}), map[string]string{
		"Rounds":           "serialized (codeStats)",
		"Writes":           "serialized (codeStats)",
		"CoordDelay":       "serialized (codeStats)",
		"RoundSpan":        "serialized (codeStats)",
		"LoggedMessages":   "serialized (codeStats)",
		"LoggedBytes":      "serialized (codeStats)",
		"LogPenalty":       "serialized (codeStats)",
		"Forced":           "serialized (codeStats)",
		"MirroredMessages": "serialized (codeStats)",
		"MirroredBytes":    "serialized (codeStats)",
		"Heartbeats":       "serialized (codeStats)",
		"Takeovers":        "serialized (codeStats)",
	})
}

// TestSnapshotCoversStorageFields: the shared arbiter rides inside its
// owning protocol's agent section, in-flight drains included.
func TestSnapshotCoversStorageFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(storage.Store{}), map[string]string{
		"p":           "immutable parameters",
		"sched":       "rebound when restoring",
		"writes":      "serialized write-by-write",
		"done":        "scratch buffer, empty between timer callbacks",
		"waiting":     "serialized (rank, tier, bytes) in request order",
		"nodeCount":   "membership cache, rebuilt from the restored writes",
		"globalCount": "membership cache, rebuilt from the restored writes",
		"lastAt":      "serialized (drains advance from it)",
		"gen":         "serialized (invalidates superseded completion timers)",
		"stats":       "serialized field-by-field",
	})
	wr, ok := reflect.TypeOf(storage.Store{}).FieldByName("writes")
	if !ok {
		t.Fatal("storage.Store lost its writes field")
	}
	requireFields(t, wr.Type.Elem(), map[string]string{
		"rank":      "serialized; bounds-checked on restore",
		"node":      "derived from rank on restore",
		"tier":      "serialized; bounds-checked on restore",
		"remaining": "serialized bit-exact (float64 bits); range-checked on restore",
		"bytes":     "serialized",
		"start":     "serialized",
		"drained":   "serialized as a Call (sim.Context.SnapshotCall)",
	})
}
