package sim

// Exhaustive-field audit of the snapshot format: every field of every
// struct that holds (or could hold) mid-run simulator state must have an
// explicit entry saying how snapshot/restore handles it. Adding a field to
// any of these structs fails this test until the entry — and, for mutable
// state, the encodeSnapshot/Restore handling — is added. This is the
// mechanism that keeps the serialization complete as the engine grows; the
// byte-identity suites prove the handled fields round-trip, this test
// proves no field goes unhandled.

import (
	"reflect"
	"testing"

	"checkpointsim/internal/network"
)

// requireFields fails for any struct field missing from handled (new state
// the snapshot doesn't know about) and any handled entry missing from the
// struct (stale documentation).
func requireFields(t *testing.T, typ reflect.Type, handled map[string]string) {
	t.Helper()
	inStruct := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		inStruct[name] = true
		if _, ok := handled[name]; !ok {
			t.Errorf("%s.%s has no snapshot-handling entry: wire it into "+
				"encodeSnapshot/Restore (or document the exclusion) and record it here", typ, name)
		}
	}
	for name := range handled {
		if !inStruct[name] {
			t.Errorf("%s.%s is in the handling table but not in the struct — drop the stale entry", typ, name)
		}
	}
}

func TestSnapshotCoversEngineFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Engine{}), map[string]string{
		"cfg":   "immutable configuration; fingerprinted into the blob's config digest",
		"prog":  "immutable program; content-hashed into the config digest",
		"net":   "immutable parameters; hashed field-by-field into the config digest",
		"queue": "serialized: seq counter plus every event with its exact (t,seq) key, in (t,seq) order; restore sorts and refuses a duplicated key",
		"now":   "serialized scalar",
		"ranks": "serialized per rank (codeRank)",
		"side": "serialized per rank with its rank state (codeRank); restore allocates it " +
			"only when some rank has holds, scales or an arrival table",
		"depsLeft":   "serialized; open-count cross-checked against opsLeft on restore",
		"opsLeft":    "serialized scalar",
		"hooks":      "rebuilt at New from the agent stack (agent types are digest-covered)",
		"matchHooks": "rebuilt at New from the agent stack (agent types are digest-covered)",
		"rand":       "serialized: full 4-word xoshiro256** state",
		"events":     "serialized scalar (restored counters keep resumed totals identical)",
		"metrics":    "serialized field-by-field (see TestSnapshotCoversMetricsFields)",
		"fabricFree": "serialized scalar",
		"nextMsgID":  "serialized scalar",
		"reasonIDs":  "rebuilt on restore from the interned reason table",
		"reasons":    "serialized in ID order so restored reasonIDs keep meaning",
		"seizeTime":  "serialized with the reason table",
		"seizeCnt":   "serialized with the reason table",
		"heldTime":   "serialized with the reason table",
		"heldCnt":    "serialized with the reason table",
		"msgs": "not serialized as a slab: each live message is written inline where a " +
			"job, event or unexpected queue names it; restore fills fresh slots in " +
			"decode order, and slot numbers never reach results or traces (see walk)",
		"msgFree": "deliberately NOT serialized: free slots awaiting reuse; a restored " +
			"engine starts the list empty with no observable effect on the simulation",
		"seizes": "not serialized as a slab: each live seizure record is written inline " +
			"with the job naming it; restore fills fresh slots in decode order",
		"seizeFree": "deliberately NOT serialized: free slots awaiting reuse; a restored " +
			"engine starts the list empty with no observable effect on the simulation",
		"jobs": "not serialized; rebuilt in decode order: each rank's queues are written " +
			"job by job, head first, and restore pushes them back into a fresh slab",
		"posts": "not serialized; rebuilt in decode order: each rank's posted receives " +
			"are written as op IDs in post order, and restore pushes them back",
		"unexps": "not serialized; rebuilt in decode order: each rank's unexpected messages " +
			"are written inline in arrival order, and restore pushes fresh slots back",
		"ran": "runtime guard, not simulation state; doubles as the restore-failure poison",
		"owners": "not serialized; rebuilt in registration order: the agents at New, " +
			"the store while its protocol's section decodes, before the ranks and the queue",
		"traceCount": "serialized scalar (anchors the resume trace suffix)",
		"restored":   "runtime guard: tells Run to skip Init/activation",
		"ctx":        "points back at the engine itself",
		"digest":     "cache of the config digest, a function of the immutable cfg, prog and net",
	})
}

func TestSnapshotCoversRankStateFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(rankState{}), map[string]string{
		"running":     "serialized",
		"runningJob":  "serialized when running",
		"jobStart":    "serialized when running",
		"seizeQ":      "serialized job-by-job, head first; the list is rebuilt in decode order",
		"ctlQ":        "serialized job-by-job, head first; the list is rebuilt in decode order",
		"appQ":        "serialized job-by-job, head first; the list is rebuilt in decode order",
		"held":        "serialized; the gate's start and reason follow when set",
		"scaled":      "serialized; the factor follows when set",
		"releasing":   "serialized when running; only valid on an open-ended seizure",
		"scaledExtra": "serialized",
		"nicFreeAt":   "serialized",
		"posted": "serialized as op IDs in post order; each must be a receive op of the " +
			"rank; the list is rebuilt in decode order",
		"unexpected": "serialized message-by-message in arrival order; each must be an eager " +
			"or RTS message to the rank; the list is rebuilt in decode order",
		"postedN":     "derived on restore from the posted receives",
		"unexpectedN": "derived on restore from the unexpected messages",
		"finish":      "serialized",
		"busy":        "serialized",
		"ctlBusy":     "serialized",
		"seizedBusy":  "serialized",
	})
}

func TestSnapshotCoversRankSideFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(rankSide{}), map[string]string{
		"hold":  "serialized (start, reason) while the rank is held; reason bounds-checked",
		"scale": "serialized bit-exact while the rank is scaled; bounds-checked",
		"lastArrival": "serialized (presence flag + flat slice); kept only under a fabric " +
			"model, the one model in which the clamp can bind (NIC serialization orders a " +
			"channel's arrivals otherwise), so a fabric-free engine refuses a table",
	})
}

func TestSnapshotCoversJobFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(job{}), map[string]string{
		"kind": "serialized; bounds-checked on decode",
		"cost": "serialized",
		"arg": "serialized by what it names: the op ID (bounds-checked), the message " +
			"inline (present exactly for message kinds), or the seizure record's " +
			"fields; decode allocates the slab slot",
	})
}

func TestSnapshotCoversSeizeRecFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(seizeRec{}), map[string]string{
		"reason":     "serialized with its job; bounds-checked against the restored reason table",
		"waitReason": "serialized with its job; bounds-checked against the restored reason table",
		"done":       "serialized owned work; owner bounds-checked against the registered owners",
		"granted":    "serialized owned work; owner bounds-checked against the registered owners",
	})
}

func TestSnapshotCoversMessageFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(message{}), map[string]string{
		"kind":    "serialized; bounds-checked on decode",
		"id":      "serialized",
		"src":     "serialized; bounds-checked on decode",
		"dst":     "serialized; bounds-checked on decode",
		"tag":     "serialized",
		"bytes":   "serialized",
		"wire":    "serialized",
		"op":      "serialized; bounds-checked on decode",
		"recvOp":  "serialized; bounds-checked on decode",
		"deliver": "serialized owned work; only control messages may carry one",
	})
}

func TestSnapshotCoversEventFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(event{}), map[string]string{
		"kind": "serialized; unknown kinds rejected on decode",
		"id": "serialized for evJobDone as the rank (bounds-checked on decode); for " +
			"evArrive the message in that slot is serialized inline and decode " +
			"allocates a fresh slot",
		"work": "serialized for evTimer; owner must be set and registered",
	})
}

func TestSnapshotCoversMetricsFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Metrics{}), map[string]string{
		"AppMessages":   "serialized",
		"AppBytes":      "serialized",
		"CtlMessages":   "serialized",
		"CtlBytes":      "serialized",
		"Rendezvous":    "serialized",
		"Matches":       "serialized",
		"UnexpectedMax": "serialized",
		"PostedMax":     "serialized",
		"FabricBusy":    "serialized",
	})
}

func TestSnapshotCoversOwnedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(owned{}), map[string]string{
		"owner": "serialized as the owner's registration position (0 = none); bounds-checked on decode",
		"kind":  "serialized",
		"arg":   "serialized",
	})
}

func TestSnapshotCoversHoldFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(hold{}), map[string]string{
		"start":  "serialized",
		"reason": "serialized; bounds-checked against the restored reason table",
	})
}

func TestSnapshotCoversPostedRecvFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(postedRecv{}), map[string]string{
		"op":   "serialized",
		"peer": "derived from the op on restore",
		"tag":  "derived from the op on restore",
	})
}

// TestSnapshotCoversConfigFields pins the config-digest policy: every
// Config field either shapes the simulation's future evolution (and must be
// digest-covered so a snapshot refuses to resume under a different value)
// or is a pure observer (and must stay out, so observers can vary freely
// between the snapshotting and resuming process).
func TestSnapshotCoversConfigFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Config{}), map[string]string{
		"Net":           "digest-covered (every parameter, see TestSnapshotCoversNetworkParams)",
		"Program":       "digest-covered via content hash",
		"Agents":        "digest-covered positionally by type; their parameters through Identity",
		"Seed":          "digest-covered",
		"MaxEvents":     "digest-covered (caps change which runs error)",
		"MaxTime":       "digest-covered (caps change which runs error)",
		"SnapshotEvery": "pure observer, outside the digest: cadence never alters simulation state",
		"OnSnapshot":    "pure observer, outside the digest",
		"Trace":         "pure observer, outside the digest; traceCount keeps resume suffixes aligned",
		"Identity":      "digest-covered: the assembling run configuration's canonical encoding",
	})
}

func TestSnapshotCoversNetworkParams(t *testing.T) {
	requireFields(t, reflect.TypeOf(network.Params{}), map[string]string{
		"Latency":              "digest-covered",
		"Overhead":             "digest-covered",
		"Gap":                  "digest-covered",
		"GapPerByte":           "digest-covered",
		"OverheadPerByte":      "digest-covered",
		"RendezvousThreshold":  "digest-covered",
		"BisectionBytesPerSec": "digest-covered",
	})
}
