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
		"p":         "immutable parameters (its Store's mutable state rides in the agent section)",
		"stats":     "serialized (encodeStats)",
		"coord":     "rebuilt by setup; cross-round state serialized via coordinator.encodeState",
		"lastLine":  "serialized",
		"lineStart": "serialized",
		"rounds":    "serialized (encodeRounds)",
	})
}

func TestSnapshotCoversUncoordinatedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Uncoordinated{}), map[string]string{
		"p":       "immutable parameters (Store state rides in the agent section)",
		"policy":  "immutable configuration",
		"log":     "immutable parameters",
		"inc":     "immutable parameters",
		"stats":   "serialized",
		"fired":   "serialized (the fire time of each rank's write in flight)",
		"last":    "serialized",
		"busyAt":  "serialized",
		"nwrites": "serialized",
		"ctx":     "rebound when restoring",
	})
}

func TestSnapshotCoversHierarchicalFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Hierarchical{}), map[string]string{
		"p":           "immutable parameters (Store state rides in the agent section)",
		"clusterSize": "immutable configuration",
		"log":         "immutable parameters",
		"stats":       "serialized",
		"numRanks":    "recomputed by setup from the restoring engine",
		"coords":      "rebuilt by setup; per-cluster cross-round state serialized in order",
		"lastLine":    "serialized",
		"lineStart":   "serialized",
	})
}

func TestSnapshotCoversNonBlockingFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(NonBlockingCoordinated{}), map[string]string{
		"p":             "immutable parameters (Store state rides in the agent section)",
		"stats":         "serialized",
		"ctx":           "rebound when restoring (setup)",
		"active":        "serialized (a round may be in flight)",
		"tickTime":      "serialized",
		"tree":          "rebuilt by setup (shape is a pure function of rank count)",
		"donesLeft":     "serialized",
		"arrivals":      "serialized (outstanding window/drain completions per rank)",
		"scales":        "serialized (CPU-scale handles of the writes in flight)",
		"pendingBusy":   "serialized",
		"committedBusy": "serialized",
		"lastLine":      "serialized",
	})
}

func TestSnapshotCoversCICFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(CIC{}), map[string]string{
		"p":      "immutable parameters (Store state rides in the agent section)",
		"lag":    "immutable configuration",
		"policy": "immutable configuration",
		"stats":  "serialized",
		"ctx":    "rebound when restoring",
		"idx":    "serialized",
		"fired":  "serialized (the fire time of each rank's basic write in flight)",
		"last":   "serialized",
		"busyAt": "serialized",
		"queues": "serialized in sorted channel order (map iteration must not leak into bytes)",
	})
}

func TestSnapshotCoversPartnerFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Partner{}), map[string]string{
		"p":         "immutable parameters (Store state rides in the agent section)",
		"stats":     "serialized",
		"ctx":       "rebound when restoring",
		"fired":     "serialized (the fire time of each rank's checkpoint in flight)",
		"progress":  "serialized (each in-flight checkpoint's saved progress)",
		"last":      "serialized",
		"busyAt":    "serialized",
		"shipped":   "serialized",
		"transfers": "serialized",
	})
}

func TestSnapshotCoversReplicationFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Replication{}), map[string]string{
		"p":        "immutable parameters",
		"stats":    "serialized",
		"ctx":      "rebound when restoring",
		"app":      "recomputed when restoring (pure function of the configuration)",
		"nextBeat": "serialized",
	})
}

func TestSnapshotCoversTwoLevelFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(TwoLevel{}), map[string]string{
		"p":            "immutable parameters (Store state rides in the agent section)",
		"stats":        "serialized",
		"ctx":          "rebound when restoring (setup)",
		"coord":        "rebuilt by setup; its state serialized via coordinator.encodeState",
		"localFired":   "serialized (the fire time of each rank's local write in flight)",
		"localLast":    "serialized",
		"localBusyAt":  "serialized",
		"globalLast":   "serialized",
		"globalBusyAt": "serialized",
		"localWrites":  "serialized",
		"globalWrites": "serialized",
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
		"members":       "rebuilt by the owning protocol's setup",
		"stats":         "points into the owning protocol's serialized Stats",
		"onRound":       "re-wired by setup",
		"kids":          "derived tree layout, rebuilt on first use from the member count",
		"kidsAt":        "derived tree layout, rebuilt on first use from the member count",
		"active":        "serialized",
		"tickTime":      "serialized",
		"pendingDelay":  "serialized",
		"acksLeft":      "serialized",
		"donesLeft":     "serialized",
		"holds":         "serialized (hold-gate handles of the round in flight)",
		"pendingBusy":   "serialized",
		"committedBusy": "serialized (the committed recovery line)",
	})
}

func TestSnapshotCoversStatsFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Stats{}), map[string]string{
		"Rounds":           "serialized (encodeStats)",
		"Writes":           "serialized (encodeStats)",
		"CoordDelay":       "serialized (encodeStats)",
		"RoundSpan":        "serialized (encodeStats)",
		"LoggedMessages":   "serialized (encodeStats)",
		"LoggedBytes":      "serialized (encodeStats)",
		"LogPenalty":       "serialized (encodeStats)",
		"Forced":           "serialized (encodeStats)",
		"MirroredMessages": "serialized (encodeStats)",
		"MirroredBytes":    "serialized (encodeStats)",
		"Heartbeats":       "serialized (encodeStats)",
		"Takeovers":        "serialized (encodeStats)",
	})
}

// TestSnapshotCoversStorageFields: the shared arbiter rides inside its
// owning protocol's agent section, in-flight drains included.
func TestSnapshotCoversStorageFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(storage.Store{}), map[string]string{
		"p":           "immutable parameters",
		"sched":       "rebound when restoring",
		"writes":      "serialized write-by-write",
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
	requireFields(t, wr.Type.Elem().Elem(), map[string]string{
		"rank":      "serialized; bounds-checked on restore",
		"node":      "derived from rank on restore",
		"tier":      "serialized; bounds-checked on restore",
		"remaining": "serialized bit-exact (float64 bits); range-checked on restore",
		"bytes":     "serialized",
		"start":     "serialized",
		"drained":   "serialized as a Call (sim.Context.SnapshotCall)",
	})
}
