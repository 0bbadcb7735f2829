// Package server implements CNServer, the servant process of the paper:
// "JobManager and the TaskManager are part of the same process, CNServer,
// which is a servant (since it acts as a client and a server)." A CNServer
// binds one JobManager and one TaskManager to a node's transport endpoint
// and joins the cluster's multicast groups.
package server

import (
	"context"
	"fmt"
	"log/slog"

	"cn/internal/config"
	"cn/internal/jobmgr"
	"cn/internal/logging"
	"cn/internal/metrics"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/taskmgr"
	"cn/internal/trace"
	"cn/internal/transport"
)

// Server is one CN node: endpoint + JobManager + TaskManager.
type Server struct {
	node   string
	ep     transport.Endpoint
	caller *transport.Caller
	log    *slog.Logger
	jm     *jobmgr.JobManager
	tm     *taskmgr.TaskManager
	tracer *trace.Tracer
	reg    *metrics.Registry
	// ready gates handle: the endpoint has to exist before the managers
	// that send through it can be built, so the fabric may deliver frames
	// while Start is still assigning the fields above. handle waits here;
	// Start closes it once construction is done.
	ready  chan struct{}
	closed chan struct{}
}

// Start attaches a CN server named node to the network and joins the
// JobManager and TaskManager multicast groups.
func Start(net transport.Network, node string, cfg config.Config) (*Server, error) {
	if node == "" {
		return nil, fmt.Errorf("server: empty node name")
	}
	s := &Server{node: node, log: logging.Component(cfg.Log, "server", node),
		reg: metrics.NewRegistry(), ready: make(chan struct{}), closed: make(chan struct{})}
	ep, err := net.Attach(node, s.handle)
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", node, err)
	}
	s.ep = ep
	s.caller = transport.NewCaller(ep)
	if cfg.TraceSample >= 0 {
		s.tracer = trace.New(trace.Config{Node: node, Sample: cfg.TraceSample})
	}

	send := func(toNode string, m *msg.Message) error { return ep.Send(toNode, m) }
	jobManagers := func() []string { return ep.GroupMembers(protocol.GroupJobManagers) }
	s.tm = taskmgr.New(cfg, node, s.tracer, send, s.caller.CallInto, jobManagers)
	s.jm = jobmgr.New(cfg, node, s.tracer, send, s.caller, s.tm.FreeMemoryMB)
	close(s.ready)

	if err := ep.Join(protocol.GroupJobManagers); err != nil {
		ep.Close()
		return nil, fmt.Errorf("server %s: %w", node, err)
	}
	if err := ep.Join(protocol.GroupTaskManagers); err != nil {
		ep.Close()
		return nil, fmt.Errorf("server %s: %w", node, err)
	}
	return s, nil
}

// Node returns the server's node name.
func (s *Server) Node() string { return s.node }

// TaskManager exposes the node's TaskManager (for tests and metrics).
func (s *Server) TaskManager() *taskmgr.TaskManager { return s.tm }

// JobManager exposes the node's JobManager (for tests and metrics).
func (s *Server) JobManager() *jobmgr.JobManager { return s.jm }

// Metrics exposes the node's metrics registry — the unit STATS_PULL
// scrapes report.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// handleStatsPull answers a KindStatsPull scrape: refresh the registry's
// point-in-time gauges from the managers' live counters, then report the
// whole snapshot.
func (s *Server) handleStatsPull(m *msg.Message) *msg.Message {
	var req protocol.StatsPullReq
	if err := protocol.Decode(m, &req); err != nil {
		return nil
	}
	s.reg.Gauge("tm_free_memory_mb").Set(int64(s.tm.FreeMemoryMB()))
	s.reg.Gauge("tm_running_tasks").Set(int64(s.tm.RunningTasks()))
	s.reg.Gauge("data_served_bytes").Set(s.tm.DataServedBytes())
	s.reg.Gauge("data_fetched_bytes").Set(s.tm.DataFetchedBytes())
	s.reg.Gauge("blob_cache_hits").Set(s.tm.BlobCache().Hits())
	s.reg.Gauge("blob_cache_misses").Set(s.tm.BlobCache().Misses())
	s.reg.Gauge("blob_cache_transfers").Set(s.tm.BlobCache().Transfers())
	resp := protocol.StatsReportResp{Node: s.node, Metrics: s.reg.Snapshot()}
	return protocol.Reply(m, msg.KindStatsReport, resp)
}

// handle is the endpoint's delivery entry point: it runs on the fabric's
// delivering goroutine (a TCP connection's read loop, the TCP endpoint's
// self loop for frames the node sends itself, MemNetwork's dispatch loop)
// and sorts every inbound frame into one of three dispatch classes.
//
// Inline — the handler runs to completion right here. A kind may be inline
// only if its handler makes no Caller.Call/Gather, sends nothing on the
// bulk lane (which backpressures for up to 5 s; control-lane sends shed
// instead of blocking), waits on no channel, timer or park, and holds no
// lock across any of those. Frames of inline kinds from one connection are
// therefore applied in arrival order. The TCP self loop relies on the same
// rule: it drains the very pipe an inline handler's replies to its own node
// go onto, so such a handler must never wait for that pipe.
//
// Try-then-park — TS_IN, TS_RD, DATA_RESOLVE: the park-table registration,
// the match attempt and, failing that, the waiter registration run inline
// under the same rule; a hit replies inline, and a registered waiter is
// answered later on the goroutine of the TS_OUT / DATA_PUT that satisfies it
// (or of the park timer), never by a goroutine that sat waiting.
//
// Spawned — every other request gets its own goroutine (dispatch), because
// those handlers place, assign, start or cancel work through blocking calls
// of their own, or answer on the bulk lane. A reply no call claimed is dropped.
func (s *Server) handle(m *msg.Message) {
	<-s.ready
	if s.caller.Handle(m) {
		return
	}
	select {
	case <-s.closed:
		return
	default:
	}
	switch m.Kind {
	// Job-scoped traffic is enqueued inline so per-job FIFO order is
	// preserved from the endpoint into the JobManager's serial worker;
	// routed user messages are final TaskManager deliveries.
	case msg.KindTaskEvents:
		s.jm.Enqueue(m)
	case msg.KindUser, msg.KindBroadcast:
		if m.Header(protocol.HeaderRouted) != "" {
			if err := s.tm.HandleUser(m); err != nil {
				logging.Debugf(s.log, "deliver user message: %v", err)
			}
			return
		}
		s.jm.Enqueue(m)

	// Tuple-space ops against this node's hosted job spaces: decode, one
	// pass over the space under its mutex, a TS_REPLY on the control lane.
	// TS_OUT also answers the parked ops it satisfies (more control-lane
	// replies); TS_IN/TS_RD are the try-then-park kinds.
	case msg.KindTSOut, msg.KindTSInP, msg.KindTSRdP, msg.KindTSIn, msg.KindTSRd:
		s.jm.HandleTSOp(m)
	// TS_CANCEL flips a park's flag and withdraws its waiter — a TS_IN's,
	// TS_RD's or DATA_RESOLVE's, all in one table; no reply.
	case msg.KindTSCancel:
		s.jm.HandleTSCancel(m)
	// DATA_PUT verifies a digest over at most DataInlineMax bytes, stores
	// one location under the broker's mutex and answers the resolves parked
	// on the key; every reply is a control-lane DATA_LOC.
	case msg.KindDataPut:
		s.replyIfAny(m, s.jm.HandleDataPut(m))
	// DATA_RESOLVE is try-then-park. A stale hint may schedule a producer
	// re-run, which jobmgr hands to a goroutine of its own.
	case msg.KindDataResolve:
		s.jm.HandleDataResolve(m)
	// Solicitations read a few counters under the manager's mutex (never
	// held across a call or send) and answer with one small offer.
	case msg.KindJobManagerSolicit:
		s.replyIfAny(m, s.jm.HandleSolicit(m))
	case msg.KindTaskSolicit:
		s.replyIfAny(m, s.tm.HandleSolicit(m))
	// A peer JobManager's CANCEL_JOB is TaskManager-scoped: it flips flags,
	// frees unstarted reservations and ends the job's cache ownership under
	// short locks, so it is applied here, ahead of the solicitation or
	// assignment its sender sends next — a refused frame's rollback frees
	// the capacity the client's retry is placed against. A client's cancel
	// is a call that tears a whole job down and is spawned.
	case msg.KindCancelJob:
		if m.From.Task == protocol.ClientTaskName {
			go s.dispatch(m)
			return
		}
		var req protocol.CancelJobReq
		if err := protocol.Decode(m, &req); err == nil {
			s.tm.HandleCancel(req.JobID, req.Tasks...)
		}
	// Health: a heartbeat renews the sending node's lease and folds progress
	// counters into job state under short mutexes; its ack cancels the
	// contexts of assignments the JobManager no longer knows. Neither waits
	// on anything. A PING is answered at once: a failover adopter sends one
	// to confirm a manager whose lease lapsed is really gone.
	case msg.KindPing:
		s.replyIfAny(m, m.Reply(msg.KindPong, nil))
	case msg.KindHeartbeat:
		s.replyIfAny(m, s.jm.HandleHeartbeat(m))
	case msg.KindHeartbeatAck:
		s.tm.HandleHeartbeatAck(m)
	// A peer's checkpoint stores or drops one opaque image under a mutex
	// (it renews no lease). In arrival order, so a job's terminal record —
	// sent the moment it retires — cannot be applied before the snapshot
	// that preceded it on the connection.
	case msg.KindJMCheckpoint:
		s.jm.HandleCheckpoint(m)

	default:
		if m.CorrelID != 0 { // a reply whose call gave up, e.g. a TS_REPLY past its timeout
			if s.log.Enabled(context.Background(), slog.LevelDebug) { // no boxed args when off
				s.log.Debug("late reply dropped", "kind", m.Kind, "from", m.From.Node)
			}
			return
		}
		go s.dispatch(m)
	}
}

// dispatch routes one message of a spawned kind to the right manager, on
// its own goroutine.
func (s *Server) dispatch(m *msg.Message) {
	switch m.Kind {
	// --- JobManager role ---
	case msg.KindCreateTasks:
		s.replyIfAny(m, s.jm.HandleCreateTasks(m))
	case msg.KindBlobChunk:
		s.replyIfAny(m, s.jm.HandleBlobChunk(m))
	case msg.KindCancelJob: // a client's; a peer's is applied inline
		s.replyIfAny(m, s.jm.HandleCancel(m))

	// --- TaskManager role ---
	case msg.KindDataFetch:
		s.replyIfAny(m, s.tm.HandleDataFetch(m))
	case msg.KindAssignTasks:
		s.replyIfAny(m, s.tm.HandleAssignBatch(m))
	case msg.KindExecTask:
		var req protocol.ExecTaskReq
		if err := protocol.Decode(m, &req); err != nil {
			return
		}
		s.tm.HandleExec(req.JobID, req.Tasks, m.From.Node, m.Trace)

	// --- JobManager durability ---
	case msg.KindJMAdopt:
		s.replyIfAny(m, s.tm.HandleAdopt(m))

	// --- Observability ---
	case msg.KindStatsPull:
		s.replyIfAny(m, s.handleStatsPull(m))
	}
}

func (s *Server) replyIfAny(m *msg.Message, r *msg.Message) {
	if r == nil {
		return
	}
	if err := s.ep.Send(m.From.Node, r); err != nil {
		logging.Debugf(s.log, "reply to %s: %v", m.From.Node, err)
	}
}

// Close shuts the server down: leave groups, stop managers, detach.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
		close(s.closed)
	}
	s.jm.Close()
	s.tm.Close()
	return s.ep.Close()
}

// Kill power-cuts the server (failure injection): the endpoint detaches
// FIRST, so nothing the dying managers produce — cancellation-induced task
// failures, heartbeats, late replies — escapes to the cluster, exactly
// like a machine losing power mid-send. The managers are then stopped to
// reclaim the process's goroutines.
func (s *Server) Kill() error {
	select {
	case <-s.closed:
		return nil
	default:
		close(s.closed)
	}
	err := s.ep.Close()
	s.jm.Close()
	s.tm.Close()
	return err
}
