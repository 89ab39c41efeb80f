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
	// primaries (the run assembler widens the program automatically). Pair
	// with failure.TakeoverReplica failures.
	KindReplication Kind = "replication"
	// KindCIC runs index-based communication-induced checkpointing.
	KindCIC Kind = "cic"
)

// Config describes a checkpointing strategy declaratively. New is the one
// place a Kind becomes a Protocol: the facade, the campaign scenarios and
// the trace suite all describe their protocols as Configs.
type Config struct {
	// Kind selects the protocol (default KindNone).
	Kind Kind
	// Interval is the checkpoint interval τ.
	Interval simtime.Duration
	// Write is the per-rank checkpoint write time δ.
	Write simtime.Duration
	// Offset selects the uncoordinated, partner and CIC timer policy:
	// "aligned", "staggered" (default), or "random".
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
	// rank (KindReplication; default 1).
	ReplicaDegree int
	// HeartbeatPeriod and HeartbeatBytes configure replication failure
	// detection (KindReplication; defaults 1ms / 64 B).
	HeartbeatPeriod simtime.Duration
	HeartbeatBytes  int64
	// TakeoverCost is the replica-promotion cost after detection
	// (KindReplication; default 500µs).
	TakeoverCost simtime.Duration
	// CICLag is the CIC index-lag threshold that forces a checkpoint
	// (KindCIC; default 1 = the Z-path-free rule).
	CICLag int
}

// New constructs the configured protocol, routing writes through st when it
// is non-nil. Globally-writing protocols drain the global tier; the partner
// serialize step and the two-level local level use the node tier. Protocols
// are single-simulation: build a fresh one (and a fresh store) per run.
func (c Config) New(st *storage.Store) (Protocol, error) {
	off := Staggered
	if c.Offset != "" && (c.Kind == KindUncoordinated || c.Kind == KindPartner || c.Kind == KindCIC) {
		var err error
		if off, err = ParseOffsetPolicy(c.Offset); err != nil {
			return nil, err
		}
	}
	params := Params{Interval: c.Interval, Write: c.Write, Bytes: c.Bytes, Store: st}
	switch c.Kind {
	case "", KindNone:
		return None{}, nil
	case KindCoordinated:
		return NewCoordinated(params)
	case KindUncoordinated:
		if c.Incremental.FullEvery > 1 {
			return NewUncoordinatedIncremental(params, off, c.Logging, c.Incremental)
		}
		return NewUncoordinated(params, off, c.Logging)
	case KindHierarchical:
		return NewHierarchical(params, c.ClusterSize, c.Logging)
	case KindNonBlocking:
		return NewNonBlockingCoordinated(NonBlockingParams{
			Params: params, Window: c.Window, Slowdown: c.Slowdown})
	case KindTwoLevel:
		tl := c.TwoLevel
		if tl.Store == nil {
			tl.Store = st
		}
		return NewTwoLevel(tl)
	case KindPartner:
		return NewPartner(PartnerParams{Interval: c.Interval, SerializeTime: c.Write,
			CkptBytes: c.CkptBytes, Offsets: off, Store: st})
	case KindReplication:
		return NewReplication(ReplicationParams{Degree: c.ReplicaDegree,
			HeartbeatPeriod: c.HeartbeatPeriod, HeartbeatBytes: c.HeartbeatBytes,
			TakeoverCost: c.TakeoverCost})
	case KindCIC:
		return NewCIC(params, c.CICLag, off)
	}
	return nil, fmt.Errorf("checkpoint: unknown protocol kind %q", c.Kind)
}
