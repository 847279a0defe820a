package wire

import (
	"fmt"
	"sync"
)

// MsgType identifies a control-plane message on the wire.
type MsgType uint8

// Control-plane message types. The numbering is part of the wire protocol;
// append only.
const (
	// TRegister is sent by a stage or aggregator to its parent controller
	// when it joins the control plane.
	TRegister MsgType = iota + 1
	// TRegisterAck confirms a registration.
	TRegisterAck
	// TCollect asks a child for its current metrics (phase 1 of a cycle).
	TCollect
	// TCollectReply carries per-stage metric reports back up.
	TCollectReply
	// TCollectAggReply carries pre-aggregated per-job reports from an
	// aggregator controller back to the global controller.
	TCollectAggReply
	// TEnforce pushes enforcement rules down (phase 3 of a cycle).
	TEnforce
	// TEnforceAck confirms rule application.
	TEnforceAck
	// THeartbeat is a liveness probe.
	THeartbeat
	// THeartbeatAck answers a liveness probe.
	THeartbeatAck
	// TError reports a remote failure for a request.
	TError
	// TStageList asks a controller for the stages it manages (used when a
	// global controller attaches to a remotely deployed aggregator).
	TStageList
	// TStageListReply carries the managed stages.
	TStageListReply
	// TPeerExchange shares a coordinated-flat peer controller's per-job
	// aggregates with another peer (paper §VI future work: flat designs
	// with multiple coordinating controllers).
	TPeerExchange
	// TPeerExchangeAck confirms a peer exchange.
	TPeerExchangeAck
	// TDelegate pushes per-job capacity budgets to an aggregator that
	// computes per-stage rules itself (paper §VI future work: offloading
	// processing logic to aggregator nodes).
	TDelegate
	// TStateSync replicates the primary controller's state (membership,
	// last rules, job weights) to its warm standby and doubles as the
	// leadership lease renewal.
	TStateSync
	// TStateSyncAck confirms a state sync; its epoch tells the primary
	// whether the standby has promoted itself in the meantime.
	TStateSyncAck
	// TReportDelta is an unsolicited child→parent push carrying one stage's
	// current metric report. Children emit it when demand/usage moves past a
	// configured threshold (and at a heartbeat floor, so a silent child is
	// distinguishable from an unchanged one); parents fold it into their
	// report cache and mark the child dirty. It only ever travels in a push
	// frame.
	TReportDelta
	// TVoteRequest is sent by a standby whose leadership lease expired to
	// every other controller it knows, proposing itself as primary at a
	// new (higher) epoch. A controller grants at most one vote per epoch,
	// persisted durably before the grant leaves the process.
	TVoteRequest
	// TLeaseGrant answers a vote request: Granted with the voter's vote,
	// or a denial carrying the voter's current epoch so the candidate can
	// catch up (a live primary denies with its own epoch, vetoing the
	// election).
	TLeaseGrant
	// TShardQuery asks any shard leader of a sharded deployment for the
	// routing metadata a caller needs to direct per-child traffic: the
	// shard table with each leader's address, standby list, and current
	// leadership epoch. ChildID optionally names one child, and the reply
	// then reports which shard owns it.
	TShardQuery
	// TShardMap answers a shard query with the deployment's shard table.
	// Each entry carries the shard leader's leadership epoch — the fencing
	// floor for that shard's children — so a router can detect a failover
	// (epoch moved) without collecting from the whole fleet.
	TShardMap
)

// String returns the mnemonic name of the message type.
func (t MsgType) String() string {
	switch t {
	case TRegister:
		return "Register"
	case TRegisterAck:
		return "RegisterAck"
	case TCollect:
		return "Collect"
	case TCollectReply:
		return "CollectReply"
	case TCollectAggReply:
		return "CollectAggReply"
	case TEnforce:
		return "Enforce"
	case TEnforceAck:
		return "EnforceAck"
	case THeartbeat:
		return "Heartbeat"
	case THeartbeatAck:
		return "HeartbeatAck"
	case TError:
		return "Error"
	case TStageList:
		return "StageList"
	case TStageListReply:
		return "StageListReply"
	case TPeerExchange:
		return "PeerExchange"
	case TPeerExchangeAck:
		return "PeerExchangeAck"
	case TDelegate:
		return "Delegate"
	case TStateSync:
		return "StateSync"
	case TStateSyncAck:
		return "StateSyncAck"
	case TReportDelta:
		return "ReportDelta"
	case TVoteRequest:
		return "VoteRequest"
	case TLeaseGrant:
		return "LeaseGrant"
	case TShardQuery:
		return "ShardQuery"
	case TShardMap:
		return "ShardMap"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// OpClass distinguishes the I/O operation classes the control plane manages
// independently, mirroring the paper's "IOPS for data and metadata
// operations".
type OpClass uint8

// The operation classes tracked per stage.
const (
	// ClassData covers data-path operations (read/write IOPS).
	ClassData OpClass = iota
	// ClassMeta covers metadata operations (open, close, stat, ...) whose
	// PFS cost profile differs from the data path.
	ClassMeta
	// NumClasses is the number of operation classes.
	NumClasses
)

// String returns the mnemonic name of the operation class.
func (c OpClass) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassMeta:
		return "meta"
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// Rates holds one value per operation class, in operations per second.
type Rates [NumClasses]float64

// Add returns the element-wise sum r + o.
func (r Rates) Add(o Rates) Rates {
	for i := range r {
		r[i] += o[i]
	}
	return r
}

// Sub returns the element-wise difference r - o.
func (r Rates) Sub(o Rates) Rates {
	for i := range r {
		r[i] -= o[i]
	}
	return r
}

// Scale returns r with every class multiplied by f.
func (r Rates) Scale(f float64) Rates {
	for i := range r {
		r[i] *= f
	}
	return r
}

// Total returns the sum across classes.
func (r Rates) Total() float64 {
	var t float64
	for _, v := range r {
		t += v
	}
	return t
}

// IsZero reports whether every class is exactly zero.
func (r Rates) IsZero() bool {
	for _, v := range r {
		if v != 0 {
			return false
		}
	}
	return true
}

func (e *Encoder) rates(r Rates) {
	for _, v := range r {
		e.Float64(v)
	}
}

func (d *Decoder) rates() Rates {
	var r Rates
	for i := range r {
		r[i] = d.Float64()
	}
	return r
}

// sliceFor returns s resized to n, reusing the backing array when capacity
// allows. Fresh messages (nil s) decode exactly as before — a zero-length
// prefix leaves the slice nil — while messages recycled through the RPC
// layer's reuse caches keep their arrays, which is what makes steady-state
// decode cycles allocation-free. Callers pass the result through d.Length(),
// which returns 0 after any decode error, so an errored decode always leaves
// the slice truncated rather than holding stale entries.
func sliceFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Message is implemented by every control-plane message.
type Message interface {
	// Type returns the wire identifier of the message.
	Type() MsgType
	// Marshal appends the message body (without type tag) to e.
	Marshal(e *Encoder)
	// Unmarshal decodes the message body from d.
	Unmarshal(d *Decoder)
}

// Role identifies a control-plane participant kind.
type Role uint8

// Control-plane roles.
const (
	// RoleStage is a data-plane stage (virtual or enforcing).
	RoleStage Role = iota + 1
	// RoleAggregator is a mid-tier controller.
	RoleAggregator
	// RoleGlobal is the top-level controller.
	RoleGlobal
)

// String returns the mnemonic role name.
func (r Role) String() string {
	switch r {
	case RoleStage:
		return "stage"
	case RoleAggregator:
		return "aggregator"
	case RoleGlobal:
		return "global"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Register announces a child joining the control plane.
type Register struct {
	// Role of the registering component.
	Role Role
	// ID is the cluster-unique identifier of the component.
	ID uint64
	// JobID is the job the stage serves (stages only; 0 otherwise).
	JobID uint64
	// Weight is the QoS weight of the job (stages only).
	Weight float64
	// Addr is the component's listen address, if it accepts connections.
	Addr string
}

// Type implements Message.
func (*Register) Type() MsgType { return TRegister }

// Marshal implements Message.
func (m *Register) Marshal(e *Encoder) {
	e.Byte(byte(m.Role))
	e.Uint64(m.ID)
	e.Uint64(m.JobID)
	e.Float64(m.Weight)
	e.String(m.Addr)
}

// Unmarshal implements Message.
func (m *Register) Unmarshal(d *Decoder) {
	m.Role = Role(d.Byte())
	m.ID = d.Uint64()
	m.JobID = d.Uint64()
	m.Weight = d.Float64()
	m.Addr = d.String()
}

// RegisterAck confirms a registration.
type RegisterAck struct {
	// ID echoes the registered component's identifier.
	ID uint64
	// Epoch is the controller's current leadership epoch. A child adopts
	// it as its fencing floor, so calls from a controller deposed before
	// the registration are rejected with CodeStaleEpoch.
	Epoch uint64
}

// Type implements Message.
func (*RegisterAck) Type() MsgType { return TRegisterAck }

// Marshal implements Message.
func (m *RegisterAck) Marshal(e *Encoder) {
	e.Uint64(m.ID)
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *RegisterAck) Unmarshal(d *Decoder) {
	m.ID = d.Uint64()
	m.Epoch = d.Uint64()
}

// Collect asks a child for current metrics.
type Collect struct {
	// Cycle is the control cycle sequence number.
	Cycle uint64
	// WindowMicros is the measurement window the parent wants rates
	// normalized over, in microseconds.
	WindowMicros uint64
	// Epoch is the sender's leadership epoch. Children reject collects
	// whose epoch is below the highest they have seen (CodeStaleEpoch),
	// fencing deposed controllers out of the control loop.
	Epoch uint64
}

// Type implements Message.
func (*Collect) Type() MsgType { return TCollect }

// Marshal implements Message.
func (m *Collect) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(m.WindowMicros)
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *Collect) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.WindowMicros = d.Uint64()
	m.Epoch = d.Uint64()
}

// StageReport is one stage's metric sample for a control cycle.
type StageReport struct {
	// StageID identifies the reporting stage.
	StageID uint64
	// JobID identifies the job the stage serves.
	JobID uint64
	// Demand is the rate the job is trying to issue, per class.
	Demand Rates
	// Usage is the rate actually admitted to the PFS, per class.
	Usage Rates
}

// CollectReply carries raw per-stage reports (flat design, or the
// stage→aggregator leg of the hierarchical design).
type CollectReply struct {
	// Cycle echoes the collect request's cycle number.
	Cycle uint64
	// Reports holds one entry per stage.
	Reports []StageReport
}

// Type implements Message.
func (*CollectReply) Type() MsgType { return TCollectReply }

// Marshal implements Message.
func (m *CollectReply) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(uint64(len(m.Reports)))
	for i := range m.Reports {
		r := &m.Reports[i]
		e.Uint64(r.StageID)
		e.Uint64(r.JobID)
		e.rates(r.Demand)
		e.rates(r.Usage)
	}
}

// Unmarshal implements Message.
func (m *CollectReply) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.Reports = sliceFor(m.Reports, d.Length())
	for i := range m.Reports {
		r := &m.Reports[i]
		r.StageID = d.Uint64()
		r.JobID = d.Uint64()
		r.Demand = d.rates()
		r.Usage = d.rates()
	}
}

// JobReport is a per-job aggregate over all stages an aggregator manages.
type JobReport struct {
	// JobID identifies the job.
	JobID uint64
	// Stages is the number of the job's stages behind this aggregator.
	Stages uint32
	// Demand is the summed demand of those stages, per class.
	Demand Rates
	// Usage is the summed admitted rate of those stages, per class.
	Usage Rates
}

// CollectAggReply carries pre-aggregated per-job reports from an aggregator
// to the global controller. This is the message that makes the global
// controller's received bandwidth drop in the hierarchical design (paper
// Table III): its size is O(jobs), not O(stages).
type CollectAggReply struct {
	// Cycle echoes the collect request's cycle number.
	Cycle uint64
	// AggregatorID identifies the reporting aggregator.
	AggregatorID uint64
	// Jobs holds one aggregate entry per job.
	Jobs []JobReport
}

// Type implements Message.
func (*CollectAggReply) Type() MsgType { return TCollectAggReply }

// Marshal implements Message.
func (m *CollectAggReply) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(m.AggregatorID)
	e.Uint64(uint64(len(m.Jobs)))
	for i := range m.Jobs {
		j := &m.Jobs[i]
		e.Uint64(j.JobID)
		e.Uint32(j.Stages)
		e.rates(j.Demand)
		e.rates(j.Usage)
	}
}

// Unmarshal implements Message.
func (m *CollectAggReply) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.AggregatorID = d.Uint64()
	m.Jobs = sliceFor(m.Jobs, d.Length())
	for i := range m.Jobs {
		j := &m.Jobs[i]
		j.JobID = d.Uint64()
		j.Stages = d.Uint32()
		j.Demand = d.rates()
		j.Usage = d.rates()
	}
}

// RuleAction tells a stage how to apply a rule.
type RuleAction uint8

// Rule actions.
const (
	// ActionSetLimit replaces the stage's rate limits with Limit.
	ActionSetLimit RuleAction = iota + 1
	// ActionNoLimit removes rate limiting at the stage.
	ActionNoLimit
	// ActionPause blocks all I/O at the stage (administrative hold).
	ActionPause
)

// String returns the mnemonic action name.
func (a RuleAction) String() string {
	switch a {
	case ActionSetLimit:
		return "set-limit"
	case ActionNoLimit:
		return "no-limit"
	case ActionPause:
		return "pause"
	}
	return fmt.Sprintf("RuleAction(%d)", uint8(a))
}

// WildcardStage, used as a Rule.StageID, addresses every stage of the
// rule's job: the receiving stage applies the rule when the JobID matches
// its own. Stage IDs are 1-based, so 0 is free for this. Wildcards let a
// controller broadcast one marshal-once rule to a whole job when every
// stage's share is identical (delegated local control on a converged
// workload). The match is on the decoded rule, so it holds whichever
// encoding carried the frame.
const WildcardStage uint64 = 0

// Rule is one stage's enforcement directive for a control cycle.
type Rule struct {
	// StageID identifies the stage the rule targets, or WildcardStage to
	// target every stage of the rule's job.
	StageID uint64
	// JobID identifies the job the rule's limits belong to.
	JobID uint64
	// Action selects how the stage applies the rule.
	Action RuleAction
	// Limit is the admitted rate ceiling per class (ActionSetLimit only).
	Limit Rates
}

// Enforce pushes a batch of rules to a child. In the flat design the batch
// holds exactly the target stage's rule; in the hierarchical design the
// global controller sends an aggregator every rule for the stages it manages
// and the aggregator fans them out.
type Enforce struct {
	// Cycle is the control cycle that produced the rules.
	Cycle uint64
	// Rules is the rule batch.
	Rules []Rule
	// Epoch is the sender's leadership epoch. Children reject rule batches
	// whose epoch is below the highest they have seen (CodeStaleEpoch), so
	// a deposed primary can never overwrite the new leader's rules.
	Epoch uint64
}

// Type implements Message.
func (*Enforce) Type() MsgType { return TEnforce }

// Marshal implements Message.
func (m *Enforce) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(uint64(len(m.Rules)))
	for i := range m.Rules {
		r := &m.Rules[i]
		e.Uint64(r.StageID)
		e.Uint64(r.JobID)
		e.Byte(byte(r.Action))
		e.rates(r.Limit)
	}
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *Enforce) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.Rules = sliceFor(m.Rules, d.Length())
	for i := range m.Rules {
		r := &m.Rules[i]
		r.StageID = d.Uint64()
		r.JobID = d.Uint64()
		r.Action = RuleAction(d.Byte())
		r.Limit = d.rates()
	}
	m.Epoch = d.Uint64()
}

// EnforceAck confirms rule application.
type EnforceAck struct {
	// Cycle echoes the enforce request's cycle number.
	Cycle uint64
	// Applied is the number of rules applied downstream of the sender.
	Applied uint32
}

// Type implements Message.
func (*EnforceAck) Type() MsgType { return TEnforceAck }

// Marshal implements Message.
func (m *EnforceAck) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint32(m.Applied)
}

// Unmarshal implements Message.
func (m *EnforceAck) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.Applied = d.Uint32()
}

// Heartbeat is a liveness probe.
type Heartbeat struct {
	// SentUnixMicros is the sender's clock, for RTT estimation.
	SentUnixMicros int64
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return THeartbeat }

// Marshal implements Message.
func (m *Heartbeat) Marshal(e *Encoder) { e.Int64(m.SentUnixMicros) }

// Unmarshal implements Message.
func (m *Heartbeat) Unmarshal(d *Decoder) { m.SentUnixMicros = d.Int64() }

// HeartbeatAck answers a liveness probe.
type HeartbeatAck struct {
	// EchoUnixMicros echoes the probe's timestamp.
	EchoUnixMicros int64
}

// Type implements Message.
func (*HeartbeatAck) Type() MsgType { return THeartbeatAck }

// Marshal implements Message.
func (m *HeartbeatAck) Marshal(e *Encoder) { e.Int64(m.EchoUnixMicros) }

// Unmarshal implements Message.
func (m *HeartbeatAck) Unmarshal(d *Decoder) { m.EchoUnixMicros = d.Int64() }

// ErrorReply reports a remote failure for a request.
type ErrorReply struct {
	// Code is a machine-readable error class.
	Code uint32
	// Text is a human-readable description.
	Text string
	// Epoch carries the receiver's current leadership epoch when Code is
	// CodeStaleEpoch or CodeNotLeader, naming the term the fenced caller
	// lost against. Zero otherwise.
	Epoch uint64
}

// Remote error codes.
const (
	// CodeInternal is an unclassified remote failure.
	CodeInternal uint32 = iota + 1
	// CodeBadMessage means the peer could not decode the request.
	CodeBadMessage
	// CodeNotRegistered means the sender is unknown to the receiver.
	CodeNotRegistered
	// CodeOverload means the receiver shed the request under load.
	CodeOverload
	// CodeStaleEpoch means the caller's leadership epoch is below the
	// receiver's: the caller has been deposed and must step down.
	CodeStaleEpoch
	// CodeNotLeader means the receiver is a standby that has not been
	// promoted; the caller should retry against the current leader.
	CodeNotLeader
)

// Type implements Message.
func (*ErrorReply) Type() MsgType { return TError }

// Marshal implements Message.
func (m *ErrorReply) Marshal(e *Encoder) {
	e.Uint32(m.Code)
	e.String(m.Text)
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *ErrorReply) Unmarshal(d *Decoder) {
	m.Code = d.Uint32()
	m.Text = d.String()
	m.Epoch = d.Uint64()
}

// Error implements the error interface so an ErrorReply can be returned
// directly from RPC helpers.
func (m *ErrorReply) Error() string {
	return fmt.Sprintf("remote error %d: %s", m.Code, m.Text)
}

// StageEntry is one stage's identity inside a StageListReply.
type StageEntry struct {
	// ID is the stage's cluster-unique identifier.
	ID uint64
	// JobID is the job the stage serves.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
	// Addr is the stage's listen address.
	Addr string
}

// StageList asks a controller for the stages it manages.
type StageList struct{}

// Type implements Message.
func (*StageList) Type() MsgType { return TStageList }

// Marshal implements Message.
func (*StageList) Marshal(*Encoder) {}

// Unmarshal implements Message.
func (*StageList) Unmarshal(*Decoder) {}

// StageListReply carries a controller's managed stages.
type StageListReply struct {
	// Stages holds one entry per managed stage.
	Stages []StageEntry
}

// Type implements Message.
func (*StageListReply) Type() MsgType { return TStageListReply }

// Marshal implements Message.
func (m *StageListReply) Marshal(e *Encoder) {
	e.Uint64(uint64(len(m.Stages)))
	for i := range m.Stages {
		s := &m.Stages[i]
		e.Uint64(s.ID)
		e.Uint64(s.JobID)
		e.Float64(s.Weight)
		e.String(s.Addr)
	}
}

// Unmarshal implements Message.
func (m *StageListReply) Unmarshal(d *Decoder) {
	m.Stages = sliceFor(m.Stages, d.Length())
	for i := range m.Stages {
		s := &m.Stages[i]
		s.ID = d.Uint64()
		s.JobID = d.Uint64()
		s.Weight = d.Float64()
		s.Addr = d.String()
	}
}

// PeerExchange shares one coordinated-flat peer's per-job aggregates.
type PeerExchange struct {
	// Cycle is the sending peer's control-cycle number.
	Cycle uint64
	// PeerID identifies the sending peer.
	PeerID uint64
	// Addr is the sending peer's listen address, letting receivers mesh
	// back automatically when the sender was configured one-sidedly.
	Addr string
	// Jobs holds the peer's per-job aggregates for its own partition.
	Jobs []JobReport
}

// Type implements Message.
func (*PeerExchange) Type() MsgType { return TPeerExchange }

// Marshal implements Message.
func (m *PeerExchange) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(m.PeerID)
	e.String(m.Addr)
	e.Uint64(uint64(len(m.Jobs)))
	for i := range m.Jobs {
		j := &m.Jobs[i]
		e.Uint64(j.JobID)
		e.Uint32(j.Stages)
		e.rates(j.Demand)
		e.rates(j.Usage)
	}
}

// Unmarshal implements Message.
func (m *PeerExchange) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.PeerID = d.Uint64()
	m.Addr = d.String()
	m.Jobs = sliceFor(m.Jobs, d.Length())
	for i := range m.Jobs {
		j := &m.Jobs[i]
		j.JobID = d.Uint64()
		j.Stages = d.Uint32()
		j.Demand = d.rates()
		j.Usage = d.rates()
	}
}

// PeerExchangeAck confirms a peer exchange.
type PeerExchangeAck struct {
	// Cycle echoes the exchanged cycle number.
	Cycle uint64
	// PeerID identifies the acknowledging peer.
	PeerID uint64
}

// Type implements Message.
func (*PeerExchangeAck) Type() MsgType { return TPeerExchangeAck }

// Marshal implements Message.
func (m *PeerExchangeAck) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(m.PeerID)
}

// Unmarshal implements Message.
func (m *PeerExchangeAck) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.PeerID = d.Uint64()
}

// JobBudget is one job's capacity slice for one aggregator's partition.
type JobBudget struct {
	// JobID identifies the job.
	JobID uint64
	// Limit is the aggregate rate ceiling for the job's stages behind the
	// receiving aggregator, per class.
	Limit Rates
}

// Delegate pushes per-job budgets to an aggregator with local control: the
// aggregator splits each budget over the job's stages itself, using its own
// fresher per-stage demand view. Payload size is O(jobs), not O(stages) —
// the enforcement-side analogue of collect-side pre-aggregation.
type Delegate struct {
	// Cycle is the control cycle that produced the budgets.
	Cycle uint64
	// Budgets holds one entry per job with stages behind the receiver.
	Budgets []JobBudget
}

// Type implements Message.
func (*Delegate) Type() MsgType { return TDelegate }

// Marshal implements Message.
func (m *Delegate) Marshal(e *Encoder) {
	e.Uint64(m.Cycle)
	e.Uint64(uint64(len(m.Budgets)))
	for i := range m.Budgets {
		b := &m.Budgets[i]
		e.Uint64(b.JobID)
		e.rates(b.Limit)
	}
}

// Unmarshal implements Message.
func (m *Delegate) Unmarshal(d *Decoder) {
	m.Cycle = d.Uint64()
	m.Budgets = sliceFor(m.Budgets, d.Length())
	for i := range m.Budgets {
		b := &m.Budgets[i]
		b.JobID = d.Uint64()
		b.Limit = d.rates()
	}
}

// MemberState is one child's replicated state inside a StateSync: enough
// for a promoting standby to re-adopt the child (identity and address) and
// to keep delta enforcement continuous (the last rules the primary sent).
type MemberState struct {
	// Role of the child (stage or aggregator).
	Role Role
	// ID is the child's cluster-unique identifier.
	ID uint64
	// JobID is the job a stage serves (stages only; 0 otherwise).
	JobID uint64
	// Weight is the job's QoS weight (stages only).
	Weight float64
	// Addr is the child's listen address.
	Addr string
	// Stages lists the stages behind an aggregator child (aggregators
	// only; empty for stages).
	Stages []StageEntry
	// Rules is the last rule batch the primary sent the child, so the
	// standby's first delta-enforcement cycle diffs against reality.
	Rules []Rule
}

// JobWeight is one job's QoS weight inside a StateSync.
type JobWeight struct {
	// JobID identifies the job.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
}

// StateSync replicates the primary controller's control-plane state to its
// warm standby. It is sent periodically and doubles as the leadership lease
// renewal: a standby that misses syncs for longer than its lease timeout
// promotes itself with a bumped epoch.
type StateSync struct {
	// PrimaryID identifies the sending primary.
	PrimaryID uint64
	// Epoch is the primary's current leadership epoch.
	Epoch uint64
	// Cycle is the primary's last completed control-cycle number.
	Cycle uint64
	// LeaseMicros is how long the standby should consider the lease held
	// after receiving this sync, in microseconds.
	LeaseMicros uint64
	// Members snapshots the primary's membership and per-child last rules.
	Members []MemberState
	// Weights snapshots the primary's per-job QoS weights.
	Weights []JobWeight
}

// Type implements Message.
func (*StateSync) Type() MsgType { return TStateSync }

// Marshal implements Message.
func (m *StateSync) Marshal(e *Encoder) {
	e.Uint64(m.PrimaryID)
	e.Uint64(m.Epoch)
	e.Uint64(m.Cycle)
	e.Uint64(m.LeaseMicros)
	e.Uint64(uint64(len(m.Members)))
	for i := range m.Members {
		c := &m.Members[i]
		e.Byte(byte(c.Role))
		e.Uint64(c.ID)
		e.Uint64(c.JobID)
		e.Float64(c.Weight)
		e.String(c.Addr)
		e.Uint64(uint64(len(c.Stages)))
		for j := range c.Stages {
			s := &c.Stages[j]
			e.Uint64(s.ID)
			e.Uint64(s.JobID)
			e.Float64(s.Weight)
			e.String(s.Addr)
		}
		e.Uint64(uint64(len(c.Rules)))
		for j := range c.Rules {
			r := &c.Rules[j]
			e.Uint64(r.StageID)
			e.Uint64(r.JobID)
			e.Byte(byte(r.Action))
			e.rates(r.Limit)
		}
	}
	e.Uint64(uint64(len(m.Weights)))
	for i := range m.Weights {
		w := &m.Weights[i]
		e.Uint64(w.JobID)
		e.Float64(w.Weight)
	}
}

// Unmarshal implements Message.
func (m *StateSync) Unmarshal(d *Decoder) {
	m.PrimaryID = d.Uint64()
	m.Epoch = d.Uint64()
	m.Cycle = d.Uint64()
	m.LeaseMicros = d.Uint64()
	n := d.Length()
	if d.Err() != nil {
		return
	}
	if n > 0 {
		m.Members = make([]MemberState, n)
	}
	for i := range m.Members {
		c := &m.Members[i]
		c.Role = Role(d.Byte())
		c.ID = d.Uint64()
		c.JobID = d.Uint64()
		c.Weight = d.Float64()
		c.Addr = d.String()
		ns := d.Length()
		if d.Err() != nil {
			return
		}
		if ns > 0 {
			c.Stages = make([]StageEntry, ns)
			for j := range c.Stages {
				s := &c.Stages[j]
				s.ID = d.Uint64()
				s.JobID = d.Uint64()
				s.Weight = d.Float64()
				s.Addr = d.String()
			}
		}
		nr := d.Length()
		if d.Err() != nil {
			return
		}
		if nr > 0 {
			c.Rules = make([]Rule, nr)
			for j := range c.Rules {
				r := &c.Rules[j]
				r.StageID = d.Uint64()
				r.JobID = d.Uint64()
				r.Action = RuleAction(d.Byte())
				r.Limit = d.rates()
			}
		}
	}
	nw := d.Length()
	if d.Err() != nil || nw == 0 {
		return
	}
	m.Weights = make([]JobWeight, nw)
	for i := range m.Weights {
		w := &m.Weights[i]
		w.JobID = d.Uint64()
		w.Weight = d.Float64()
	}
}

// StateSyncAck confirms a state sync.
type StateSyncAck struct {
	// ID identifies the acknowledging standby.
	ID uint64
	// Epoch is the standby's current leadership epoch. While the lease
	// holds it echoes the primary's; a higher value tells the primary the
	// standby promoted itself and the primary must step down.
	Epoch uint64
}

// Type implements Message.
func (*StateSyncAck) Type() MsgType { return TStateSyncAck }

// Marshal implements Message.
func (m *StateSyncAck) Marshal(e *Encoder) {
	e.Uint64(m.ID)
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *StateSyncAck) Unmarshal(d *Decoder) {
	m.ID = d.Uint64()
	m.Epoch = d.Uint64()
}

// ReportDelta is the event-driven counterpart of CollectReply: a child
// pushes its own report upstream instead of waiting to be polled, so a
// converged fleet costs the controller nothing per cycle. Seq orders pushes
// from one child (the parent ignores reordered stale pushes after a
// reconnect); Full marks baseline resends — the first push on a connection,
// an epoch change, and heartbeat-floor refreshes — which a parent may use to
// distinguish "changed" from "still alive".
type ReportDelta struct {
	// Seq is the child's monotonically increasing push sequence number.
	Seq uint64
	// Full marks a baseline resend rather than a threshold crossing.
	Full bool
	// Epoch is the child's current leadership epoch, so a parent can spot
	// pushes that predate a fencing event.
	Epoch uint64
	// Report is the stage's current metric report.
	Report StageReport
}

// Type implements Message.
func (*ReportDelta) Type() MsgType { return TReportDelta }

// Marshal implements Message.
func (m *ReportDelta) Marshal(e *Encoder) {
	e.Uint64(m.Seq)
	var full byte
	if m.Full {
		full = 1
	}
	e.Byte(full)
	e.Uint64(m.Epoch)
	e.Uint64(m.Report.StageID)
	e.Uint64(m.Report.JobID)
	e.rates(m.Report.Demand)
	e.rates(m.Report.Usage)
}

// Unmarshal implements Message.
func (m *ReportDelta) Unmarshal(d *Decoder) {
	m.Seq = d.Uint64()
	m.Full = d.Byte() != 0
	m.Epoch = d.Uint64()
	m.Report.StageID = d.Uint64()
	m.Report.JobID = d.Uint64()
	m.Report.Demand = d.rates()
	m.Report.Usage = d.rates()
}

// VoteRequest proposes the sender as the next primary controller at Epoch.
// A standby broadcasts it to every controller it knows when its leadership
// lease expires; it becomes primary only after a majority of the quorum
// (itself included — it votes for itself first) grants the proposal. Cycle
// is the candidate's last mirrored control-cycle number: voters refuse
// candidates that lag their own mirror, so the winner always holds the
// freshest replicated state any voter has seen.
type VoteRequest struct {
	// CandidateID identifies the proposing standby.
	CandidateID uint64
	// Epoch is the proposed leadership epoch, strictly above every epoch
	// the candidate has seen or voted for.
	Epoch uint64
	// Cycle is the candidate's last mirrored control-cycle number.
	Cycle uint64
}

// Type implements Message.
func (*VoteRequest) Type() MsgType { return TVoteRequest }

// Marshal implements Message.
func (m *VoteRequest) Marshal(e *Encoder) {
	e.Uint64(m.CandidateID)
	e.Uint64(m.Epoch)
	e.Uint64(m.Cycle)
}

// Unmarshal implements Message.
func (m *VoteRequest) Unmarshal(d *Decoder) {
	m.CandidateID = d.Uint64()
	m.Epoch = d.Uint64()
	m.Cycle = d.Uint64()
}

// LeaseGrant answers a VoteRequest. Granted means the voter durably
// recorded its vote for the request's epoch and will grant no other vote at
// or below it; Epoch then echoes the granted epoch. On denial Epoch carries
// the voter's current leadership epoch (or the higher epoch it already
// voted for), so a losing candidate learns how far it lags before retrying.
type LeaseGrant struct {
	// VoterID identifies the answering controller.
	VoterID uint64
	// Granted reports whether the vote was granted.
	Granted bool
	// Epoch is the granted epoch, or on denial the voter's view of the
	// highest epoch in play.
	Epoch uint64
}

// Type implements Message.
func (*LeaseGrant) Type() MsgType { return TLeaseGrant }

// Marshal implements Message.
func (m *LeaseGrant) Marshal(e *Encoder) {
	e.Uint64(m.VoterID)
	var g byte
	if m.Granted {
		g = 1
	}
	e.Byte(g)
	e.Uint64(m.Epoch)
}

// Unmarshal implements Message.
func (m *LeaseGrant) Unmarshal(d *Decoder) {
	m.VoterID = d.Uint64()
	m.Granted = d.Byte() != 0
	m.Epoch = d.Uint64()
}

// ShardQuery asks a shard leader for its deployment's shard table. Any
// leader can answer: the router hands every shard the same table, and each
// leader overlays its own live epoch. ChildID zero requests the whole table;
// a nonzero ChildID additionally asks which shard currently owns that child
// (placement is deterministic, so any leader computes the same owner).
type ShardQuery struct {
	// ChildID optionally names a child whose owning shard the caller wants.
	ChildID uint64
}

// Type implements Message.
func (*ShardQuery) Type() MsgType { return TShardQuery }

// Marshal implements Message.
func (m *ShardQuery) Marshal(e *Encoder) {
	e.Uint64(m.ChildID)
}

// Unmarshal implements Message.
func (m *ShardQuery) Unmarshal(d *Decoder) {
	m.ChildID = d.Uint64()
}

// ShardEntry is one shard's routing metadata inside a ShardMap.
type ShardEntry struct {
	// Index is the shard's position in the deployment's shard table.
	Index uint64
	// Epoch is the shard leader's leadership epoch — the fencing floor its
	// children enforce. A bumped epoch in a refreshed map tells the caller
	// the shard failed over (or adopted moved children) since the last map.
	Epoch uint64
	// Children is the number of children the shard currently controls.
	Children uint64
	// Addr is the shard leader's registration address.
	Addr string
	// Standbys lists the shard's quorum standby registration addresses, in
	// the order children should walk them when re-homing.
	Standbys []string
}

// ShardMap answers a ShardQuery with the deployment's shard table.
type ShardMap struct {
	// Epoch is the answering leader's own leadership epoch.
	Epoch uint64
	// Owner is the index of the shard owning the queried ChildID; zero and
	// meaningless when the query did not name a child (OwnerValid false).
	Owner uint64
	// OwnerValid reports whether Owner answers a ChildID query.
	OwnerValid bool
	// Entries is the shard table, indexed by shard.
	Entries []ShardEntry
}

// Type implements Message.
func (*ShardMap) Type() MsgType { return TShardMap }

// Marshal implements Message.
func (m *ShardMap) Marshal(e *Encoder) {
	e.Uint64(m.Epoch)
	e.Uint64(m.Owner)
	var v byte
	if m.OwnerValid {
		v = 1
	}
	e.Byte(v)
	e.Uint64(uint64(len(m.Entries)))
	for i := range m.Entries {
		s := &m.Entries[i]
		e.Uint64(s.Index)
		e.Uint64(s.Epoch)
		e.Uint64(s.Children)
		e.String(s.Addr)
		e.Uint64(uint64(len(s.Standbys)))
		for _, sb := range s.Standbys {
			e.String(sb)
		}
	}
}

// Unmarshal implements Message.
func (m *ShardMap) Unmarshal(d *Decoder) {
	m.Epoch = d.Uint64()
	m.Owner = d.Uint64()
	m.OwnerValid = d.Byte() != 0
	m.Entries = sliceFor(m.Entries, d.Length())
	for i := range m.Entries {
		s := &m.Entries[i]
		s.Index = d.Uint64()
		s.Epoch = d.Uint64()
		s.Children = d.Uint64()
		s.Addr = d.String()
		s.Standbys = sliceFor(s.Standbys, d.Length())
		for j := range s.Standbys {
			s.Standbys[j] = d.String()
		}
	}
}

// New returns a zero message of the given type, or nil if the type is
// unknown. It is the decode-side factory used by the RPC layer.
func New(t MsgType) Message {
	switch t {
	case TRegister:
		return &Register{}
	case TRegisterAck:
		return &RegisterAck{}
	case TCollect:
		return &Collect{}
	case TCollectReply:
		return &CollectReply{}
	case TCollectAggReply:
		return &CollectAggReply{}
	case TEnforce:
		return &Enforce{}
	case TEnforceAck:
		return &EnforceAck{}
	case THeartbeat:
		return &Heartbeat{}
	case THeartbeatAck:
		return &HeartbeatAck{}
	case TError:
		return &ErrorReply{}
	case TStageList:
		return &StageList{}
	case TStageListReply:
		return &StageListReply{}
	case TPeerExchange:
		return &PeerExchange{}
	case TPeerExchangeAck:
		return &PeerExchangeAck{}
	case TDelegate:
		return &Delegate{}
	case TStateSync:
		return &StateSync{}
	case TStateSyncAck:
		return &StateSyncAck{}
	case TReportDelta:
		return &ReportDelta{}
	case TVoteRequest:
		return &VoteRequest{}
	case TLeaseGrant:
		return &LeaseGrant{}
	case TShardQuery:
		return &ShardQuery{}
	case TShardMap:
		return &ShardMap{}
	}
	return nil
}

// Encoder/Decoder handles are pooled: Marshal/Unmarshal are interface calls,
// so a per-message &Encoder{} escapes to the heap — at paper scale that is
// four allocations per RPC. The handles hold no buffer ownership; Encode and
// Decode clear the buf reference before returning a handle to its pool so a
// pooled handle never pins a caller's (possibly itself pooled) buffer.
var (
	encoderPool = sync.Pool{New: func() any { return new(Encoder) }}
	decoderPool = sync.Pool{New: func() any { return new(Decoder) }}
)

// Encode appends t's tag and m's body to buf in the fixed-width encoding
// (CodecV1) and returns the extended slice. It is the on-disk format of
// internal/store; RPC frames use EncodeWith at CodecV2.
func Encode(buf []byte, m Message) []byte {
	return EncodeWith(buf, m, CodecV1, nil)
}

// EncodeWith appends t's tag and m's body to buf in codec version ver and
// returns the extended slice. A non-nil hist (v2 only) enables delta coding
// against the previous same-type message encoded through that history; the
// peer must decode with a matching history (see FloatHistory).
func EncodeWith(buf []byte, m Message, ver int, hist *FloatHistory) []byte {
	e := encoderPool.Get().(*Encoder)
	e.buf = buf
	e.ver = ver
	if hist != nil && ver >= CodecV2 {
		e.hist = hist.get(m.Type())
	}
	e.Byte(byte(m.Type()))
	m.Marshal(e)
	if e.hist != nil {
		e.hist.swap()
	}
	out := e.buf
	e.buf, e.ver, e.hist = nil, 0, nil
	encoderPool.Put(e)
	return out
}

// DecodeOpts configures DecodeWith.
type DecodeOpts struct {
	// Version is the codec version the buffer was encoded with.
	Version int
	// Hist, when non-nil, resolves v2 history tags. It must mirror the
	// encoder's history exactly: same messages, same order.
	Hist *FloatHistory
	// Reuse, when non-nil, may return an existing message of the given type
	// to decode into instead of allocating. Returning nil falls back to a
	// fresh message. The decoded message's slices then reuse the previous
	// decode's backing arrays, so callers own the aliasing contract: a
	// reused message is valid only until the next same-type decode that
	// receives the same instance.
	Reuse func(MsgType) Message
}

// Decode parses a tagged v1 message produced by Encode. It verifies the
// whole buffer is consumed. Decoded slices alias buf (see Decoder), never
// the decoder handle, so recycling the handle is invisible to callers.
func Decode(buf []byte) (Message, error) {
	return DecodeWith(buf, nil)
}

// DecodeWith parses a tagged message with explicit codec options. A nil opts
// decodes v1, equivalent to Decode.
func DecodeWith(buf []byte, opts *DecodeOpts) (Message, error) {
	d := decoderPool.Get().(*Decoder)
	*d = Decoder{buf: buf}
	m, err := decode(d, opts)
	*d = Decoder{}
	decoderPool.Put(d)
	return m, err
}

func decode(d *Decoder, opts *DecodeOpts) (Message, error) {
	t := MsgType(d.Byte())
	if d.Err() != nil {
		return nil, d.Err()
	}
	var m Message
	if opts != nil {
		if opts.Reuse != nil {
			m = opts.Reuse(t)
		}
		d.ver = opts.Version
		if opts.Hist != nil && opts.Version >= CodecV2 {
			d.hist = opts.Hist.get(t)
		}
	}
	if m == nil {
		m = New(t)
	}
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
	m.Unmarshal(d)
	if d.hist != nil && d.err == nil {
		d.hist.swap()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", t, err)
	}
	return m, nil
}
