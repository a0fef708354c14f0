package runtime

import (
	"log/slog"
	"os"
	"strconv"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// ClusterOptions configures a scale-out cluster. Launch runs every node as a
// goroutine with its own TCP listener/connections on the loopback device,
// so all training traffic crosses real sockets; package deploy derives the
// same options from a Spec in every process of a multi-process run.
type ClusterOptions struct {
	Nodes  int
	Groups int
	// Engines supplies each node's compute engine.
	Engines func(nodeID int) Engine
	// Shards supplies each node's partition of the training data.
	Shards func(nodeID int) []ml.Sample
	// ModelSize is the flat parameter-vector length.
	ModelSize int
	Agg       dsl.AggregatorKind
	LR        float64
	// MiniBatch is the system-wide mini-batch size; each node consumes
	// MiniBatch/Nodes samples per round. Values below Nodes count as Nodes.
	MiniBatch int
	// RoundTimeout bounds each aggregation round (0 = forever, or
	// QuorumTimeout when MinQuorum > 0).
	RoundTimeout time.Duration
	// MinQuorum, when > 0, makes every Sigma (master included) fold a
	// timed-out round with the members that arrived instead of failing —
	// see NodeConfig.MinQuorum. A node death then costs rounds, not the run.
	MinQuorum int
	// Reconnect makes worker nodes redial their upstream (with backoff
	// bounded by ReconnectWait) when the connection drops mid-run.
	Reconnect     bool
	ReconnectWait time.Duration
	// Transports, when non-nil, supplies each node's Transport (nil entries
	// fall back to cosmicnet.TCP). The chaos fabric plugs in here.
	Transports func(nodeID int) cosmicnet.Transport
	// ChunkWords is the fixed streaming-chunk boundary in vector elements
	// (0 = the default; must be a power of two).
	ChunkWords int
	// Obs, when non-nil, is shared by every node: per-node frame and
	// fan-in counters, ring depth gauges, and per-round spans land in it.
	Obs *obs.Observer
	// PerNodeObs, when non-nil, gives each node its own observer instead of
	// the shared Obs — the deployment shape (one tracer per process) that
	// cosmic-trace merges back together. Takes precedence over Obs.
	PerNodeObs func(nodeID int) *obs.Observer
	// Logger receives structured diagnostics from every node, with
	// node/role/group attributes attached per node.
	Logger *slog.Logger
	// TraceIDBase, when nonzero, enables distributed trace propagation
	// (round seq → trace ID TraceIDBase+seq on the wire).
	TraceIDBase uint64
	// DiagDir is where round-failure diagnostic bundles land.
	DiagDir string
}

// Cluster is a running scale-out system, seen from the process that hosts
// its master. nodes holds the nodes running in this process, master first.
type Cluster struct {
	opts   ClusterOptions
	topo   Topology
	master *Node
	nodes  []*Node
	// runErr collects every worker's Run result for Shutdown; failed
	// carries the first failure to Train, so Train never takes a result
	// Shutdown waits for.
	runErr chan error
	failed chan error
}

// TrainStats reports a training run.
type TrainStats struct {
	Rounds int
	// RoundDurations are the wall times of each mini-batch round at the
	// master.
	RoundDurations []time.Duration
	// RoundP50/P95/Max summarize RoundDurations (nearest-rank percentiles).
	RoundP50, RoundP95, RoundMax time.Duration
	// NetworkSentBytes/NetworkReceivedBytes sum the frame bytes the
	// cluster's nodes in this process moved since Launch — every node for
	// Launch, the master alone when the workers are other processes. Each
	// transfer between two counted nodes is counted once sent and once
	// received, as a switch port would see it.
	NetworkSentBytes, NetworkReceivedBytes int64
	// ExcludedRounds counts the master's rounds folded without a full
	// member set (quorum mode only).
	ExcludedRounds int
}

// Launch assigns roles, starts every node in this process, and waits until
// the hierarchy is fully connected.
func Launch(opts ClusterOptions) (*Cluster, error) {
	return Assemble(opts, func(cfg NodeConfig) (string, *Node, error) {
		n, err := opts.StartLocal(cfg)
		if err != nil {
			return "", nil, err
		}
		return n.Addr(), n, nil
	})
}

// Assemble is the one start sequence of every cluster, in-process or spread
// over OS processes. It starts the master Sigma in this process, then each
// group Sigma (collecting its data-plane listener address), then each Delta
// pointed at its group's Sigma, and then waits until the master has heard
// from every direct member. start brings up one non-master node from its
// derived config: Launch runs it as a goroutine here, the deploy Director
// sends it to a worker process as MsgConfig and awaits its MsgAck. It
// returns the node's listener address (read for group Sigmas only) and,
// when the node runs in this process, the node, which the Cluster then runs
// and shuts down.
func Assemble(opts ClusterOptions, start func(cfg NodeConfig) (addr string, local *Node, err error)) (*Cluster, error) {
	topo, err := Assign(opts.Nodes, opts.Groups)
	if err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	master, err := opts.StartLocal(opts.NodeConfig(topo, 0))
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, topo: topo, master: master, nodes: []*Node{master},
		runErr: make(chan error, opts.Nodes), failed: make(chan error, 1)}
	// Node IDs 1..Groups-1 are the group Sigmas, so every Sigma's address
	// is known before the first Delta starts.
	sigmaAddr := make([]string, topo.Groups)
	sigmaAddr[0] = master.Addr()
	for id := 1; id < topo.Nodes; id++ {
		cfg := opts.NodeConfig(topo, id)
		cfg.UpstreamAddr = sigmaAddr[0]
		if cfg.Role == RoleDelta {
			cfg.UpstreamAddr = sigmaAddr[cfg.Group]
		}
		addr, local, err := start(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if cfg.Role == RoleGroupSigma {
			sigmaAddr[cfg.Group] = addr
		}
		if local != nil {
			c.nodes = append(c.nodes, local)
			go c.run(local)
		}
	}
	// Startup barrier: the master hears directly from the other group
	// Sigmas and its own group's Deltas.
	master.WaitMembers(len(master.cfg.MemberIDs) - 1)
	return c, nil
}

// NodeConfig derives node id's configuration from the options and the
// topology: the one per-node derivation of both launch paths. The start
// sequence fills UpstreamAddr; Engine is set by whoever starts the node.
// Each node consumes MiniBatch/Nodes samples per round, at least one.
func (o ClusterOptions) NodeConfig(t Topology, id int) NodeConfig {
	cfg := NodeConfig{
		ID:            uint32(id),
		Role:          t.RoleOf[id],
		Group:         t.GroupOf[id],
		ModelSize:     o.ModelSize,
		Agg:           o.Agg,
		LR:            o.LR,
		ShardBatch:    o.miniBatch() / o.Nodes,
		RoundTimeout:  o.RoundTimeout,
		ChunkWords:    o.ChunkWords,
		Obs:           o.Obs,
		Logger:        o.Logger,
		DiagDir:       o.DiagDir,
		MinQuorum:     o.MinQuorum,
		Reconnect:     o.Reconnect,
		ReconnectWait: o.ReconnectWait,
	}
	switch cfg.Role {
	case RoleMasterSigma:
		cfg.MemberIDs = t.MasterMemberIDs()
	case RoleGroupSigma:
		cfg.MemberIDs = t.MemberIDs(cfg.Group)
	}
	if o.PerNodeObs != nil {
		cfg.Obs = o.PerNodeObs(id)
	}
	if o.Transports != nil {
		cfg.Transport = o.Transports(id)
	}
	return cfg
}

// StartLocal starts the configured node in this process with the engine
// and shard the options give its ID.
func (o ClusterOptions) StartLocal(cfg NodeConfig) (*Node, error) {
	cfg.Engine = o.Engines(int(cfg.ID))
	return StartNode(cfg, o.Shards(int(cfg.ID)))
}

// miniBatch is the system-wide mini-batch, at least one sample per node.
func (o ClusterOptions) miniBatch() int { return max(o.MiniBatch, o.Nodes) }

// run runs one worker node and reports how it ended.
func (c *Cluster) run(n *Node) {
	err := n.Run()
	if err != nil {
		select {
		case c.failed <- err:
		default:
		}
	}
	c.runErr <- err
}

// Topology returns the Director's assignment.
func (c *Cluster) Topology() Topology { return c.topo }

// NetworkBytes sums the frame bytes the nodes in this process moved — each
// transfer between two of them is counted twice (once sent, once received),
// as a switch port would see it.
func (c *Cluster) NetworkBytes() (sent, received int64) {
	for _, n := range c.nodes {
		s, r := n.NetworkBytes()
		sent += s
		received += r
	}
	return sent, received
}

// Train drives the given number of mini-batch rounds from the master and
// returns the final model.
func (c *Cluster) Train(model []float64, rounds int) ([]float64, TrainStats, error) {
	// In quorum mode a node death must not abort the run — the timed-out
	// round folds on the survivors instead — so the fail channel stays out
	// of the wait (Shutdown still collects the exit errors).
	var fail <-chan error = c.failed
	if c.opts.MinQuorum > 0 {
		fail = nil
	}
	final, stats, err := c.master.DriveTraining(DriveConfig{
		MiniBatch:   c.opts.miniBatch(),
		Fail:        fail,
		TraceIDBase: c.opts.TraceIDBase,
		Diagnostics: c.DumpDiagnostics,
	}, model, rounds)
	stats.NetworkSentBytes, stats.NetworkReceivedBytes = c.NetworkBytes()
	return final, stats, err
}

// Nodes returns the cluster's nodes running in this process, master first.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// DumpDiagnostics writes every node's flight recorder into one fresh
// directory under DiagDir (OS temp dir when unset) and returns its path —
// the bundle a round failure points the operator at. Best-effort: nodes
// whose dump fails are skipped so a sick node cannot block the bundle.
func (c *Cluster) DumpDiagnostics(reason string) string {
	base := c.opts.DiagDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "cosmic-diag-*")
	if err != nil {
		return "(diagnostics unavailable: " + err.Error() + ")"
	}
	for _, n := range c.nodes {
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: reason, Seq: n.lastSeq.Load()})
		_, _ = n.DumpFlight(dir)
	}
	return dir
}

// ScrapeLatencies returns each node's most recent round wall time in seconds
// keyed by node ID — the straggler detector's input for in-process clusters.
// Nodes that have not finished a round yet are omitted.
func (c *Cluster) ScrapeLatencies() map[string]float64 {
	out := make(map[string]float64, len(c.nodes))
	for _, n := range c.nodes {
		if v := n.LastRoundSeconds(); v > 0 {
			out[strconv.Itoa(int(n.cfg.ID))] = v
		}
	}
	return out
}

// Shutdown sends MsgDone down the hierarchy and waits for the worker nodes
// in this process to exit.
func (c *Cluster) Shutdown() error {
	c.master.forwardDone()
	var firstErr error
	for i := 0; i < len(c.nodes)-1; i++ {
		if err := <-c.runErr; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close releases all node resources.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
