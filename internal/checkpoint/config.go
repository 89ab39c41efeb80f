package checkpoint

import (
	"fmt"

	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// Kind selects a checkpointing protocol in a Config.
type Kind string

// Protocol kinds.
const (
	KindNone          Kind = "none"
	KindCoordinated   Kind = "coordinated"
	KindUncoordinated Kind = "uncoordinated"
	KindHierarchical  Kind = "hierarchical"
	KindNonBlocking   Kind = "nonblocking"
	KindPartner       Kind = "partner"
	KindTwoLevel      Kind = "twolevel"
	// KindReplication runs replication-based resilience: the program's
	// ranks are the application, embedded in a machine of
	// ranks·(ReplicaDegree+1) simulated nodes whose extra ranks mirror the
	// primaries (the run assembler widens the program automatically). Its
	// failures recover by replica takeover.
	KindReplication Kind = "replication"
	// KindCIC runs index-based communication-induced checkpointing.
	KindCIC Kind = "cic"
)

// Config describes a checkpointing strategy declaratively, and New is the
// one place a Kind becomes a Protocol: the facade, the run assembler, the
// campaign scenarios and the trace suite all describe their protocols as
// Configs. Each kind reads only the fields its comment names.
type Config struct {
	// Kind selects the protocol (default KindNone).
	Kind Kind
	// Interval is the checkpoint interval τ.
	Interval simtime.Duration
	// Write is the per-rank checkpoint write time δ.
	Write simtime.Duration
	// Offset selects the uncoordinated, partner and CIC timer policy:
	// "aligned", "staggered" (default), or "random" (see rankTimer).
	Offset string
	// Logging is the sender-based message-logging tax (uncoordinated and
	// hierarchical protocols).
	Logging LogParams
	// ClusterSize is the hierarchical protocol's cluster size.
	ClusterSize int
	// Incremental, when FullEvery > 1, switches the uncoordinated protocol
	// to incremental writes.
	Incremental IncrementalParams
	// Window and Slowdown configure the non-blocking protocol's background
	// write (KindNonBlocking).
	Window   simtime.Duration
	Slowdown float64
	// CkptBytes is the image size shipped by the partner protocol
	// (KindPartner); Write is reused as its serialize time.
	CkptBytes int64
	// Bytes is the checkpoint image size drained through the shared store;
	// zero derives it from Write at the store's lone-writer rate, so
	// uncontended writes keep the legacy duration.
	Bytes int64
	// TwoLevel configures KindTwoLevel (Interval/Write above are ignored
	// for that kind).
	TwoLevel TwoLevelParams
	// ReplicaDegree is the replication protocol's replicas per application
	// rank (KindReplication; default 1, see Replicas).
	ReplicaDegree int
	// HeartbeatPeriod is the replication protocol's heartbeat period,
	// which bounds failure-detection latency (KindReplication; default 1ms).
	HeartbeatPeriod simtime.Duration
	// TakeoverCost is the replica-promotion cost after detection
	// (KindReplication; default 500µs).
	TakeoverCost simtime.Duration
	// CICLag is the CIC index-lag threshold that forces a checkpoint
	// (KindCIC; default 1 = the Z-path-free rule).
	CICLag int
}

// New validates the configured protocol and constructs it, routing writes
// through st when it is non-nil. Globally-writing protocols drain the
// global tier; the partner serialize step and the two-level local level
// use the node tier. Protocols are single-simulation: build a fresh one
// (and a fresh store) per run.
func (c Config) New(st *storage.Store) (Protocol, error) {
	switch c.Kind {
	case "", KindNone:
		return None{}, nil
	case KindCoordinated:
		return NewCoordinated(c.params(st))
	case KindUncoordinated:
		return newUncoordinated(c, st)
	case KindHierarchical:
		return newHierarchical(c, st)
	case KindNonBlocking:
		return newNonBlocking(c, st)
	case KindTwoLevel:
		return newTwoLevel(c, st)
	case KindPartner:
		return newPartner(c, st)
	case KindReplication:
		return newReplication(c)
	case KindCIC:
		return newCIC(c, st)
	}
	return nil, fmt.Errorf("checkpoint: unknown protocol kind %q", c.Kind)
}

// params is the interval, write and image size of c with writes through st.
func (c Config) params(st *storage.Store) Params {
	return Params{Interval: c.Interval, Write: c.Write, Bytes: c.Bytes, Store: st}
}

// offset resolves Offset for the kinds on independent per-rank timers.
func (c Config) offset() (string, error) {
	switch c.Offset {
	case "":
		return "staggered", nil
	case "aligned", "staggered", "random":
		return c.Offset, nil
	}
	return "", fmt.Errorf("checkpoint: unknown offset policy %q", c.Offset)
}

// Replicas is the replication protocol's replicas per application rank:
// ReplicaDegree, with zero meaning one. The run assembler widens the
// program by it, and the protocol lays out its primaries by it.
func (c Config) Replicas() (int, error) {
	if c.ReplicaDegree < 0 {
		return 0, fmt.Errorf("checkpoint: negative replica degree %d", c.ReplicaDegree)
	}
	return max(c.ReplicaDegree, 1), nil
}
