//! Sharded worker pool: each shard is one thread owning a disjoint set of
//! sessions and of client connections, actor-style.
//!
//! Sessions are pinned to a shard at open time (`session id % shard
//! count`), so all mutation of a session happens on one thread and the
//! shard needs no locks around session state. Each accepted connection
//! has a *home* shard too, and the shard thread is a readiness loop:
//! [`run`] waits in `poll(2)` on its connections' sockets and on a
//! doorbell that rings when a [`Command`] arrives while it is parked. The
//! loop reads its connections' request lines and applies each request
//! for one of its own sessions itself (see [`crate::net`]). A request for
//! another shard's session reaches that shard as [`Command::Wire`],
//! carrying its reserved reply slot, which the shard renders and fills.
//! An in-process caller's command carries a reply channel instead. The
//! shard's sessions render and stage replication lines too (see
//! [`crate::cluster::ReplicationTap`]).
//!
//! No shard ever waits on a shard, itself included: every blocking call
//! in [`crate::server`] asserts it is not made on a shard thread. Verbs
//! that must wait on every shard run on the acceptor thread instead, and
//! a federated scrape, which waits on peers, and the compile of a
//! client's `open` source each run on a short-lived thread the acceptor
//! starts. A shard does take the cluster's one ownership lock,
//! briefly, to apply a streamed peer verb or resolve a `moved` redirect;
//! that is safe because nothing holds that lock while it waits on a
//! shard.
//!
//! Each loop turn handles a burst of commands and of request lines, then
//! writes the replies it filled, one write per connection, then pumps the
//! sessions the burst touched (updates are written as they are pushed).
//! Acks of events a pump is about to apply wait for that pump and leave
//! with the first update it writes to their connection. Once per [`TICK`]
//! the loop sweeps every session: due crash recoveries run, and idle
//! sessions and sessions that exhausted their restart budget are evicted.
//! In cluster mode it group-commits replication: once the oldest staged
//! line is one [`TICK`] old it queues every session's staged lines on the
//! replica links, and while lines are staged its poll timeout ends at
//! that deadline, so a quiet shard still ships its suffix on time.
//! Sessions whose runtimes crash are *not* evicted — they recover in
//! place from snapshot + journal (see [`crate::session`]); only a session
//! that exhausts its [`crate::supervisor::RestartBudget`] is removed,
//! with the `recovery_failed` close reason.

use std::cell::Cell;
use std::collections::HashMap;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, SendError, Sender, TryRecvError};
use elm_environment::fault::{self, FaultPlan};
use elm_runtime::{NodeKind, PlainValue, SignalGraph, Value};
use rand::Rng;

use std::sync::Arc;

use crate::admission::{Admission, AdmissionConfig, AdmissionController, MemoryGauge};
use crate::cluster::ReplicationTap;
use crate::net::{Connection, Flush, Flushes, ReplySlot};
use crate::protocol::{
    self, AdmissionStats, BatchOutcome, DescribeInfo, EnqueueOutcome, OpenInfo, QueryInfo, Request,
    SessionStats,
};
use crate::registry::ProgramSpec;
use crate::server::OpenPlan;
use crate::session::{Session, SessionConfig, SessionId, TraceMailbox, UpdateSink};
use crate::sys::{self, Doorbell, PollFd, POLLIN};
use elm_runtime::{JournalEntry, WireSnapshot};

/// The longest a shard waits in `poll` before it re-checks write
/// deadlines; how often it sweeps its sessions for due recoveries and
/// evictions; and how long staged replication lines linger before the
/// shard queues them on the replica links.
pub(crate) const TICK: Duration = Duration::from_millis(5);

/// How many commands, and how many request lines per connection, a shard
/// absorbs back-to-back before it pumps the affected sessions — bounds
/// ingest-to-output latency under a firehose.
pub(crate) const MAX_BURST: usize = 256;

thread_local! {
    /// Set on shard threads: a shard must never wait on a shard.
    static ON_SHARD: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a shard thread.
pub(crate) fn on_shard() -> bool {
    ON_SHARD.with(Cell::get)
}

/// Lifecycle counters owned by one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Sessions opened on this shard.
    pub opened: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Sessions evicted for idling past the timeout.
    pub evicted_idle: u64,
    /// Sessions evicted after exhausting their restart budget.
    pub recovery_failed: u64,
}

/// A shard's answer to [`Command::Stats`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Lifecycle counters.
    pub counters: ShardCounters,
    /// Per-session statistics for the selected sessions.
    pub sessions: Vec<SessionStats>,
    /// Raw latency samples of the selected sessions, for cross-session
    /// percentile aggregation (in-process only; never serialized).
    pub samples: Vec<u64>,
    /// Events queued across *all* sessions on this shard at snapshot
    /// time (the shard's ingress backlog), regardless of session filter.
    pub queue_depth: u64,
    /// Admission-control counters for this shard.
    pub admission: AdmissionStats,
    /// Commands waiting on the shard's channel when the last burst began
    /// (the admission queue depth).
    pub cmd_backlog: u64,
}

/// One request to a shard. Every variant carries where its answer goes.
pub enum Command {
    /// Host a new session.
    Open {
        /// Pre-assigned session id (routing already happened).
        id: SessionId,
        /// Display name of the resolved program.
        name: String,
        /// The compiled signal graph.
        graph: SignalGraph,
        /// The FElm source the graph was compiled from (`None` for
        /// native graphs); served back by [`Command::Describe`].
        source: Option<String>,
        /// Ingress configuration (boxed: it dwarfs every other variant).
        config: Box<SessionConfig>,
        /// Replies with the open summary, or an error when the
        /// (cluster-keyed) id is already hosted here.
        reply: Sender<Result<OpenInfo, String>>,
    },
    /// Host a session restored from a peer's shipped snapshot + journal
    /// suffix (cluster failover).
    Adopt {
        /// The session's cluster-wide id (it keeps it across the move).
        id: SessionId,
        /// Display name of the resolved program.
        name: String,
        /// The compiled signal graph.
        graph: SignalGraph,
        /// FElm source, if the program was compiled from source.
        source: Option<String>,
        /// Ingress configuration.
        config: Box<SessionConfig>,
        /// Last shipped snapshot, tagged with its applied-seq watermark.
        snapshot: Option<(u64, WireSnapshot)>,
        /// Replicated journal suffix past the snapshot.
        entries: Vec<JournalEntry>,
        /// The ownership epoch the takeover assigned: stamped on the
        /// adopted session and fenced into its journal.
        epoch: u64,
        /// Replies with the restored applied-seq high-water mark.
        reply: Sender<Result<u64, String>>,
    },
    /// Close a session because a peer took it over: subscribers get a
    /// typed `moved` redirect instead of a plain close.
    CloseMoved {
        /// Target session.
        session: SessionId,
        /// The peer address subscribers should reconnect to.
        peer: String,
        /// The takeover's trace id, echoed on the `moved` redirect.
        trace: u64,
        /// The adopter's ownership epoch (0 = legacy broadcast). Nonzero
        /// closes are demotions: this peer was fenced off at that epoch.
        epoch: u64,
        /// Acknowledges the close (`Ok(false)` when not hosted here).
        reply: Sender<bool>,
    },
    /// One input event.
    Event {
        /// Target session.
        session: SessionId,
        /// Input signal name.
        input: String,
        /// The value.
        value: Value,
        /// Causal trace id riding the event (0 = untraced).
        trace: u64,
        /// Receives the queue outcome.
        reply: Sender<Result<EnqueueOutcome, String>>,
    },
    /// Many input events, enqueued in order.
    Batch {
        /// Target session.
        session: SessionId,
        /// `(input, value)` pairs.
        events: Vec<(String, Value)>,
        /// Receives the per-category tally.
        reply: Sender<Result<BatchOutcome, String>>,
    },
    /// The hosted program's source and graph fingerprint.
    Describe {
        /// Target session.
        session: SessionId,
        /// Replies with the description.
        reply: Sender<Result<DescribeInfo, String>>,
    },
    /// Current output value.
    Query {
        /// Target session.
        session: SessionId,
        /// Replies with the snapshot.
        reply: Sender<Result<QueryInfo, String>>,
    },
    /// Register an update subscriber.
    Subscribe {
        /// Target session.
        session: SessionId,
        /// Where updates go. The shard pushes into it without blocking.
        sink: Box<dyn UpdateSink>,
        /// Acknowledges registration.
        reply: Sender<Result<(), String>>,
    },
    /// Register a span-tree (`trace`) subscriber.
    TraceSubscribe {
        /// Target session.
        session: SessionId,
        /// Where rendered trace lines go (bounded, drop-oldest).
        sink: Arc<TraceMailbox>,
        /// Acknowledges registration.
        reply: Sender<Result<(), String>>,
    },
    /// Statistics for one session (`Some`) or all on this shard (`None`).
    Stats {
        /// Optional session filter.
        session: Option<SessionId>,
        /// Replies with counters and per-session stats.
        reply: Sender<ShardStats>,
    },
    /// Tear a session down.
    Close {
        /// Target session.
        session: SessionId,
        /// Acknowledges the close.
        reply: Sender<Result<(), String>>,
    },
    /// A wire request about a session this shard hosts (for `open`: the
    /// id it will host), read by another shard's connection.
    Wire {
        /// Target session.
        session: SessionId,
        /// The parsed request.
        request: Request,
        /// The connection's reply slot the shard fills.
        slot: ReplySlot,
    },
    /// Serve a newly accepted client connection from this shard's loop.
    Connect(Box<Connection>),
    /// Stop the shard thread (pumps and notifies remaining sessions).
    Shutdown,
}

/// A shard's command channel. Sending wakes the shard's loop when it is
/// parked, and costs no system call when it is not.
pub struct ShardSender {
    tx: Sender<Command>,
    bell: Arc<Doorbell>,
}

impl ShardSender {
    /// Hands the shard a command. Commands from one thread reach the
    /// shard in the order they were sent.
    ///
    /// # Errors
    ///
    /// Fails once the shard is gone, dropping the command and with it its
    /// answer sink.
    pub fn send(&self, cmd: Command) -> Result<(), SendError<()>> {
        let sent = self.tx.send(cmd).map_err(|_| SendError(()));
        self.bell.ring();
        sent
    }

    /// The doorbell of the shard's loop.
    pub(crate) fn bell(&self) -> &Arc<Doorbell> {
        &self.bell
    }
}

/// Handle to a running shard thread.
pub struct ShardHandle {
    tx: ShardSender,
    handle: JoinHandle<()>,
}

impl ShardHandle {
    /// Spawns a shard worker. `faults` drives worker-stall injection
    /// (deterministically seeded by the shard index); pass
    /// [`FaultPlan::disabled`] for a fault-free shard. `admission`
    /// configures the shard's load-shedding controller and `memory` is
    /// the server-wide gauge behind its watermark.
    pub fn spawn(
        index: usize,
        idle_timeout: Option<Duration>,
        faults: FaultPlan,
        admission: AdmissionConfig,
        memory: Arc<MemoryGauge>,
        tap: Arc<ReplicationTap>,
    ) -> ShardHandle {
        let (tx, rx) = channel::unbounded();
        let bell = Arc::new(Doorbell::new());
        let shard = Shard {
            sessions: HashMap::new(),
            counters: ShardCounters::default(),
            idle_timeout,
            admission: AdmissionController::new(admission, memory.clone()),
            memory,
            cmd_backlog: 0,
            tap,
            flushes: Flushes::default(),
            staged_since: None,
            touched: Vec::new(),
            next_sweep: Instant::now() + TICK,
            index,
        };
        let loop_bell = Arc::clone(&bell);
        let handle = thread::Builder::new()
            .name(format!("elm-shard-{index}"))
            .spawn(move || run(shard, rx, &loop_bell, faults))
            .expect("spawning a shard thread");
        ShardHandle {
            tx: ShardSender { tx, bell },
            handle,
        }
    }

    /// The shard's command channel.
    pub fn sender(&self) -> &ShardSender {
        &self.tx
    }

    /// Stops the shard and joins its thread.
    pub fn shutdown(self) {
        let _ = self.tx.send(Command::Shutdown);
        let _ = self.handle.join();
    }
}

pub(crate) fn input_names(graph: &SignalGraph) -> Vec<String> {
    graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::Input { name } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// One shard's sessions and the state its loop keeps beside them.
pub(crate) struct Shard {
    sessions: HashMap<SessionId, Session>,
    counters: ShardCounters,
    idle_timeout: Option<Duration>,
    admission: AdmissionController,
    memory: Arc<MemoryGauge>,
    cmd_backlog: u64,
    tap: Arc<ReplicationTap>,
    /// Connections whose reply slots were filled this loop turn, written
    /// once each (see [`Flushes`]).
    pub(crate) flushes: Flushes,
    /// When the shard first saw replication lines staged since its last
    /// flush (cluster mode only).
    staged_since: Option<Instant>,
    /// Sessions this turn's burst touched: the only ones it pumps.
    touched: Vec<SessionId>,
    /// When the loop next sweeps every session.
    next_sweep: Instant,
    /// This shard's position in the pool.
    index: usize,
}

/// The shard's readiness loop (see the module docs).
fn run(mut shard: Shard, rx: Receiver<Command>, bell: &Doorbell, faults: FaultPlan) {
    ON_SHARD.with(|on| on.set(true));
    let mut conns: Vec<Connection> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // `polled[i]` is the connection behind `fds[i + 1]`.
    let mut polled: Vec<usize> = Vec::new();
    // Worker-stall injection: one roll per loop turn that handled work.
    // Stalls only delay the worker (sessions must tolerate a frozen
    // shard); they never change what gets applied.
    let mut stall_rng =
        (faults.stall > 0.0).then(|| faults.rng(fault::STREAM_STALL, shard.index as u64));
    'outer: loop {
        // Park first, then look at everything a ring can announce, so a
        // change made after the look rings the doorbell.
        bell.park();
        let mut wait = shard
            .next_deadline()
            .saturating_duration_since(Instant::now());
        if !rx.is_empty() {
            wait = Duration::ZERO;
        }
        fds.clear();
        polled.clear();
        fds.push(PollFd::new(bell.fd(), POLLIN));
        for (i, conn) in conns.iter_mut().enumerate() {
            let (poll, busy) = conn.interest();
            if busy {
                wait = Duration::ZERO;
            }
            if let Some(poll) = poll {
                fds.push(poll);
                polled.push(i);
            }
        }
        // A failed poll is retried on the next turn, as a timeout would be.
        let _ = sys::wait(&mut fds, wait);
        bell.unpark(fds[0].revents != 0);

        let mut worked = false;
        shard.cmd_backlog = rx.len() as u64;
        for _ in 0..MAX_BURST {
            match rx.try_recv() {
                Ok(cmd) => {
                    worked = true;
                    if shard.handle(cmd, &mut conns) {
                        break 'outer;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        for (fd, &i) in fds[1..].iter().zip(&polled) {
            if fd.revents != 0 {
                conns[i].on_ready(fd.revents);
            }
        }
        for conn in &mut conns {
            worked |= conn.serve(&mut shard);
        }
        shard.flushes.flush_burst();
        if worked {
            if let Some(rng) = stall_rng.as_mut() {
                if rng.gen_bool(faults.stall) {
                    thread::sleep(Duration::from_millis(faults.stall_ms));
                }
            }
        }
        shard.pump_touched();
        shard.flushes.flush_all();
        let now = Instant::now();
        shard.sweep(now);
        conns.retain_mut(|conn| conn.keep(now));
    }
    // Drain whatever is queued so clients that already got an "accepted"
    // see their events applied, then tell subscribers we're gone.
    shard.touched.extend(shard.sessions.keys());
    shard.pump_touched();
    shard.flushes.flush_all();
    for (_, mut s) in shard.sessions.drain() {
        s.notify_closed("shutdown");
        s.stop();
    }
    for conn in &conns {
        conn.shut_down();
    }
}

impl Shard {
    /// This shard's position in the pool.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Applies one command (a new connection joins `conns`); returns true
    /// on [`Command::Shutdown`].
    fn handle(&mut self, cmd: Command, conns: &mut Vec<Connection>) -> bool {
        match cmd {
            Command::Open {
                id,
                name,
                graph,
                source,
                config,
                reply,
            } => {
                let plan = OpenPlan {
                    name,
                    graph,
                    source,
                    config: *config,
                };
                let _ = reply.send(self.open(id, plan));
            }
            Command::Adopt {
                id,
                name,
                graph,
                source,
                config,
                snapshot,
                entries,
                epoch,
                reply,
            } => {
                if self.sessions.contains_key(&id) {
                    let _ = reply.send(Err(format!("session {id} already exists")));
                    return false;
                }
                let mut session = Session::new(id, name, graph, *config);
                session.set_source(source);
                session.set_memory_gauge(self.memory.clone());
                // The takeover's epoch lands before any replication: the
                // re-basing snapshot and every append after it carry the
                // new epoch, and the journal is fenced against the old.
                session.set_epoch(epoch);
                match session.restore_shipped(snapshot, entries) {
                    Ok(last_seq) => {
                        // The tap attaches only after the restore, so the
                        // replayed history is not re-replicated; from here
                        // the adopted session streams to *its* replica.
                        if let Some(links) = self.tap.links() {
                            links.ship_open(id, &session.replica_meta(), session.epoch());
                        }
                        session.set_replication(self.tap.clone());
                        // Re-protect immediately: a snapshot at the
                        // adoption high-water mark re-bases this
                        // session's *new* replica so the append stream
                        // that follows stays contiguous instead of
                        // gapping until the next periodic snapshot.
                        session.snapshot_now();
                        self.sessions.insert(id, session);
                        self.touched.push(id);
                        self.counters.opened += 1;
                        let _ = reply.send(Ok(last_seq));
                    }
                    Err(e) => {
                        session.stop();
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Command::CloseMoved {
                session,
                peer,
                trace,
                epoch,
                reply,
            } => {
                // Split-brain guard: a stale primary drops its copy when a
                // peer announces a takeover. Deliberately no replica drop —
                // the new primary may share our replica target, and a drop
                // from us must not erase the replica it is now feeding.
                let hosted = match self.sessions.remove(&session) {
                    Some(mut s) => {
                        if epoch > 0 {
                            // An epoch-stamped takeover means *we* were
                            // the fenced-off owner: record the demotion,
                            // not just the move.
                            crate::blackbox::blackbox().record(
                                "demote",
                                session,
                                s.last_seq(),
                                trace,
                                -1,
                                &format!("demoted to {peer} at epoch {epoch}"),
                            );
                        } else {
                            crate::blackbox::blackbox().record(
                                "takeover",
                                session,
                                0,
                                trace,
                                -1,
                                &format!("moved to {peer}"),
                            );
                        }
                        // Like a plain close, apply what was answered
                        // `accepted` first: a batch queued in this very
                        // burst would otherwise vanish unapplied.
                        s.pump();
                        s.notify_moved(&peer);
                        s.stop();
                        self.admission.forget(session);
                        self.counters.closed += 1;
                        true
                    }
                    None => false,
                };
                let _ = reply.send(hosted);
            }
            Command::Event {
                session,
                input,
                value,
                trace,
                reply,
            } => {
                let _ = reply.send(self.event(session, &input, value, trace));
            }
            Command::Batch {
                session,
                events,
                reply,
            } => {
                let _ = reply.send(self.batch(session, events));
            }
            Command::Describe { session, reply } => {
                let _ = reply.send(self.with_session(session, |s| s.describe()));
            }
            Command::Query { session, reply } => {
                let _ = reply.send(self.query(session));
            }
            Command::Subscribe {
                session,
                sink,
                reply,
            } => {
                let _ = reply.send(self.with_session(session, |s| s.subscribe(sink)));
            }
            Command::TraceSubscribe {
                session,
                sink,
                reply,
            } => {
                let res = self
                    .with_session(session, |s| s.subscribe_trace(sink))
                    .and_then(|observed| {
                        if observed {
                            Ok(())
                        } else {
                            Err(format!(
                                "session {session} was not opened with \"observe\":true"
                            ))
                        }
                    });
                let _ = reply.send(res);
            }
            Command::Stats { session, reply } => {
                let _ = reply.send(self.stats(session));
            }
            Command::Close { session, reply } => {
                let _ = reply.send(self.close(session));
            }
            Command::Wire {
                session,
                request,
                slot,
            } => self.serve_wire(session, request, slot),
            Command::Connect(conn) => conns.push(*conn),
            Command::Shutdown => return true,
        }
        false
    }

    /// Applies one wire request about `session`, which this shard hosts
    /// (for `open`: will host), and fills its reply slot. The reply is
    /// written once the burst is handled; an `event` or `batch` ack whose
    /// events are queued waits for the pump that applies them.
    pub(crate) fn serve_wire(&mut self, session: SessionId, request: Request, slot: ReplySlot) {
        let res = match request {
            Request::Event {
                input,
                value,
                trace,
                ..
            } => {
                self.event(session, &input, value.to_value(), trace)
                    .map(|outcome| match outcome {
                        EnqueueOutcome::Shed { retry_after_ms } => {
                            protocol::overloaded_line(retry_after_ms)
                        }
                        outcome => protocol::event_line(outcome),
                    })
            }
            Request::Batch { events, .. } => {
                let events = events.into_iter().map(|(i, v)| (i, v.to_value())).collect();
                // Admission is all-or-nothing per batch: a shed batch had
                // nothing enqueued, so the whole reply is the typed
                // overload signal with its retry hint.
                self.batch(session, events).map(|outcome| {
                    if outcome.shed > 0 {
                        protocol::overloaded_line(outcome.retry_after_ms)
                    } else {
                        protocol::batch_line(&outcome)
                    }
                })
            }
            Request::Query { .. } => self.query(session).map(|q| protocol::query_line(&q)),
            // The shard pushes this session's updates straight onto the
            // connection, behind this request's reply slot, until the
            // session closes (a `closed` or `moved` update is the stream's
            // final message) or the connection goes away.
            Request::Subscribe { .. } => {
                let sink = slot.sink();
                self.with_session(session, |s| s.subscribe(sink))
                    .map(|()| protocol::subscribed_line(session))
            }
            Request::Describe { .. } => {
                self.with_session(session, |s| protocol::describe_line(&s.describe()))
            }
            Request::Close { .. } => self.close(session).map(|()| protocol::closed_line(session)),
            Request::Stats { .. } => Ok(match self.stats(Some(session)).sessions.first() {
                Some(stats) => protocol::session_stats_line(stats),
                None => protocol::err_line(&format!("unknown session {session}")),
            }),
            // A builtin compiles here: its source is short and fixed. A
            // client's source never reaches a shard (see `crate::net`).
            Request::Open {
                program: Some(program),
                source: None,
                queue,
                policy,
                observe,
                ..
            } => slot
                .server()
                .plan_open(ProgramSpec::Builtin(&program), queue, policy, observe)
                .and_then(|plan| self.open(session, plan))
                .map(|info| protocol::opened_line(&info)),
            Request::Open { .. } => {
                Err("open needs exactly one of \"program\" or \"source\"".to_string())
            }
            _ => Err("not a session request".to_string()),
        };
        let when = match self.sessions.get(&session) {
            Some(s) if s.queue_len() > 0 => Flush::Pump,
            _ => Flush::Burst,
        };
        slot.answer(res, &mut self.flushes, when);
    }

    fn open(&mut self, id: SessionId, plan: OpenPlan) -> Result<OpenInfo, String> {
        if self.sessions.contains_key(&id) {
            return Err(format!("session {id} already exists"));
        }
        let OpenPlan {
            name,
            graph,
            source,
            config,
        } = plan;
        let info = OpenInfo {
            session: id,
            program: name.clone(),
            inputs: input_names(&graph),
            initial: PlainValue::from_value(&graph.node(graph.output()).default)
                .unwrap_or_else(|| PlainValue::Str("<opaque>".to_string())),
        };
        let mut session = Session::new(id, name, graph, config);
        session.set_source(source);
        session.set_memory_gauge(self.memory.clone());
        if let Some(links) = self.tap.links() {
            links.ship_open(id, &session.replica_meta(), session.epoch());
        }
        session.set_replication(self.tap.clone());
        self.sessions.insert(id, session);
        self.counters.opened += 1;
        Ok(info)
    }

    fn event(
        &mut self,
        session: SessionId,
        input: &str,
        value: Value,
        trace: u64,
    ) -> Result<EnqueueOutcome, String> {
        if !self.sessions.contains_key(&session) {
            return Err(format!("unknown session {session}"));
        }
        match self
            .admission
            .admit(session, 1, value.approx_cells(), Instant::now())
        {
            Admission::Shed { retry_after_ms } => {
                crate::blackbox::blackbox().record("shed", session, 0, trace, -1, "admission");
                Ok(EnqueueOutcome::Shed { retry_after_ms })
            }
            Admission::Admit => {
                self.with_session(session, |s| s.enqueue_traced(input, value, trace))
            }
        }
    }

    fn batch(
        &mut self,
        session: SessionId,
        events: Vec<(String, Value)>,
    ) -> Result<BatchOutcome, String> {
        if !self.sessions.contains_key(&session) {
            return Err(format!("unknown session {session}"));
        }
        let cells: u64 = events.iter().map(|(_, v)| v.approx_cells()).sum();
        match self
            .admission
            .admit(session, events.len() as u64, cells, Instant::now())
        {
            // All-or-nothing: a shed batch debits no tokens and enqueues
            // nothing.
            Admission::Shed { retry_after_ms } => Ok(BatchOutcome {
                shed: events.len() as u64,
                retry_after_ms,
                ..BatchOutcome::default()
            }),
            Admission::Admit => self.with_session(session, |s| {
                let mut outcome = BatchOutcome::default();
                for (input, value) in events {
                    outcome.record(s.enqueue(&input, value));
                }
                outcome
            }),
        }
    }

    fn query(&mut self, session: SessionId) -> Result<QueryInfo, String> {
        self.with_session(session, |s| {
            // Answer with applied state, not queued state.
            s.pump();
            s.query()
        })
    }

    fn stats(&self, session: Option<SessionId>) -> ShardStats {
        let selected: Vec<&Session> = match session {
            Some(id) => self.sessions.get(&id).into_iter().collect(),
            None => self.sessions.values().collect(),
        };
        let mut stats = ShardStats {
            counters: self.counters,
            queue_depth: self.sessions.values().map(|s| s.queue_len() as u64).sum(),
            admission: self.admission.stats(),
            cmd_backlog: self.cmd_backlog,
            ..ShardStats::default()
        };
        for s in selected {
            stats.sessions.push(s.stats());
            stats.samples.extend_from_slice(s.latency_samples());
        }
        stats
    }

    fn close(&mut self, session: SessionId) -> Result<(), String> {
        let mut s = self
            .sessions
            .remove(&session)
            .ok_or_else(|| format!("unknown session {session}"))?;
        s.pump();
        s.notify_closed("closed");
        let epoch = s.epoch();
        s.stop();
        self.admission.forget(session);
        self.counters.closed += 1;
        if let Some(links) = self.tap.links() {
            links.ship_drop(session, epoch);
        }
        Ok(())
    }

    /// Runs `f` on a hosted session and marks it touched, so the loop
    /// pumps it after this burst.
    fn with_session<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, String> {
        match self.sessions.get_mut(&id) {
            Some(s) => {
                self.touched.push(id);
                Ok(f(s))
            }
            None => Err(format!("unknown session {id}")),
        }
    }

    /// When the loop must next wake with nothing ready: the next sweep,
    /// or sooner when staged replication lines fall due.
    fn next_deadline(&self) -> Instant {
        let due = self.staged_since.map(|since| since + TICK);
        due.map_or(self.next_sweep, |due| due.min(self.next_sweep))
    }

    /// Pumps the touched sessions. In cluster mode, once the oldest staged
    /// replication line is one [`TICK`] old, queues every session's
    /// staged lines on the replica links, one batch per session.
    fn pump_touched(&mut self) {
        let replicating = self.tap.links().is_some();
        for id in self.touched.drain(..) {
            if let Some(s) = self.sessions.get_mut(&id) {
                s.pump();
                if replicating && self.staged_since.is_none() && s.has_staged_replication() {
                    self.staged_since = Some(Instant::now());
                }
            }
        }
        if self
            .staged_since
            .is_some_and(|since| since.elapsed() >= TICK)
        {
            self.sessions
                .values_mut()
                .for_each(Session::flush_replication);
            self.staged_since = None;
        }
    }

    /// Once per [`TICK`]: pumps every session, which runs the crash
    /// recoveries that fell due, then evicts idle sessions and sessions
    /// whose restart budget is exhausted.
    fn sweep(&mut self, now: Instant) {
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + TICK;
        self.touched.extend(self.sessions.keys());
        self.pump_touched();
        let doomed: Vec<(SessionId, &'static str)> = self
            .sessions
            .values()
            .filter_map(|s| {
                if s.recovery_failed() {
                    Some((s.id(), "recovery_failed"))
                } else if self
                    .idle_timeout
                    .is_some_and(|t| now.duration_since(s.last_activity()) > t)
                {
                    Some((s.id(), "idle"))
                } else {
                    None
                }
            })
            .collect();
        for (id, reason) in doomed {
            if let Some(mut s) = self.sessions.remove(&id) {
                s.notify_closed(reason);
                let epoch = s.epoch();
                s.stop();
                self.admission.forget(id);
                if let Some(links) = self.tap.links() {
                    links.ship_drop(id, epoch);
                }
                match reason {
                    "recovery_failed" => self.counters.recovery_failed += 1,
                    _ => self.counters.evicted_idle += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Update;
    use crate::registry::{ProgramSpec, Registry};

    fn spawn_shard(idle_timeout: Option<Duration>) -> ShardHandle {
        ShardHandle::spawn(
            0,
            idle_timeout,
            FaultPlan::disabled(),
            AdmissionConfig::default(),
            MemoryGauge::new(),
            ReplicationTap::new(),
        )
    }

    fn open_on(
        shard: &ShardHandle,
        id: SessionId,
        program: &str,
        config: SessionConfig,
    ) -> OpenInfo {
        let (name, graph, source) = Registry::standard()
            .resolve_with_source(ProgramSpec::Builtin(program))
            .unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Open {
                id,
                name,
                graph,
                source,
                config: Box::new(config),
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap().expect("open accepted")
    }

    fn query_on(shard: &ShardHandle, id: SessionId) -> Result<QueryInfo, String> {
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Query {
                session: id,
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap()
    }

    #[test]
    fn shard_hosts_sessions_and_answers_queries() {
        let shard = spawn_shard(None);
        let info = open_on(&shard, 7, "counter", SessionConfig::default());
        assert_eq!(info.session, 7);
        assert_eq!(info.inputs, vec!["Mouse.clicks".to_string()]);
        assert_eq!(info.initial, PlainValue::Int(0));

        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Event {
                session: 7,
                input: "Mouse.clicks".to_string(),
                value: Value::Unit,
                trace: 0,
                reply: tx,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap(), Ok(EnqueueOutcome::Accepted));
        assert_eq!(query_on(&shard, 7).unwrap().value, PlainValue::Int(1));
        assert!(query_on(&shard, 99).is_err());
        shard.shutdown();
    }

    #[test]
    fn keyed_opens_reject_duplicates_and_adoption_restores_state() {
        let shard = spawn_shard(None);
        open_on(&shard, 7, "counter", SessionConfig::default());

        // The same cluster key cannot be hosted twice.
        let (name, graph, source) = Registry::standard()
            .resolve_with_source(ProgramSpec::Builtin("counter"))
            .unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Open {
                id: 7,
                name,
                graph,
                source,
                config: Box::new(SessionConfig::default()),
                reply: tx,
            })
            .unwrap();
        assert!(rx.recv().unwrap().is_err());

        // Adoption replays a shipped journal suffix into a fresh session.
        let (name, graph, source) = Registry::standard()
            .resolve_with_source(ProgramSpec::Builtin("counter"))
            .unwrap();
        let entries: Vec<JournalEntry> = (1..=3)
            .map(|seq| JournalEntry {
                seq,
                input: "Mouse.clicks".to_string(),
                value: PlainValue::Unit,
                trace: 0,
            })
            .collect();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Adopt {
                id: 9,
                name,
                graph,
                source,
                config: Box::new(SessionConfig::default()),
                snapshot: None,
                entries,
                epoch: 2,
                reply: tx,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap(), Ok(3));
        let q = query_on(&shard, 9).unwrap();
        assert_eq!(q.value, PlainValue::Int(3));
        assert_eq!(q.last_seq, 3);
        // Adoption stamped the takeover's ownership epoch.
        assert_eq!(q.epoch, 2);

        // A takeover close hands subscribers a typed redirect.
        let (sub_tx, sub_rx) = channel::unbounded();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Subscribe {
                session: 9,
                sink: Box::new(sub_tx),
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap().unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::CloseMoved {
                session: 9,
                peer: "127.0.0.1:7777".to_string(),
                trace: 0,
                epoch: 3,
                reply: tx,
            })
            .unwrap();
        assert!(rx.recv().unwrap());
        assert_eq!(
            sub_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Update::Moved {
                session: 9,
                peer: "127.0.0.1:7777".to_string()
            }
        );
        shard.shutdown();
    }

    #[test]
    fn a_takeover_close_applies_the_batch_accepted_in_its_burst() {
        let shard = spawn_shard(None);
        open_on(&shard, 9, "counter", SessionConfig::default());
        let (sub_tx, sub_rx) = channel::unbounded();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Subscribe {
                session: 9,
                sink: Box::new(sub_tx),
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap().unwrap();

        // A query answered on a full channel holds the shard until the
        // batch and the takeover close are both queued behind it, so the
        // two land in one burst, before any pump.
        let (held_tx, held_rx) = channel::bounded(1);
        held_tx.send(Err("placeholder".to_string())).unwrap();
        let held = Command::Query {
            session: 9,
            reply: held_tx,
        };
        shard.sender().send(held).unwrap();
        let (batch_tx, batch_rx) = channel::bounded(1);
        let clicks = vec![("Mouse.clicks".to_string(), Value::Unit); 4];
        shard
            .sender()
            .send(Command::Batch {
                session: 9,
                events: clicks,
                reply: batch_tx,
            })
            .unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::CloseMoved {
                session: 9,
                peer: "127.0.0.1:7777".to_string(),
                trace: 0,
                epoch: 2,
                reply: tx,
            })
            .unwrap();
        assert!(held_rx.recv().unwrap().is_err());
        held_rx.recv().unwrap().unwrap();
        assert_eq!(batch_rx.recv().unwrap().unwrap().accepted, 4);
        assert!(rx.recv().unwrap());

        // The accepted clicks were applied before the session yielded.
        let updates: Vec<Update> = sub_rx.try_iter().collect();
        let [.., Update::Changed { value, .. }, Update::Moved { .. }] = &updates[..] else {
            panic!("expected the batch's changes, then the move: {updates:?}");
        };
        assert_eq!(value, &PlainValue::Int(4));
        shard.shutdown();
    }

    #[test]
    fn poisoned_sessions_recover_in_place_instead_of_eviction() {
        let shard = spawn_shard(None);
        open_on(&shard, 1, "crashy", SessionConfig::default());
        open_on(&shard, 2, "counter", SessionConfig::default());

        for v in [21, -5] {
            let (tx, rx) = channel::bounded(1);
            shard
                .sender()
                .send(Command::Event {
                    session: 1,
                    input: "Mouse.x".to_string(),
                    value: Value::Int(v),
                    trace: 0,
                    reply: tx,
                })
                .unwrap();
            rx.recv().unwrap().unwrap();
        }

        // The panic triggered a supervised restart, not an eviction: the
        // session keeps its id, answers queries, and reports the restart.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let q = query_on(&shard, 1).expect("session must survive the panic");
            if q.poisoned {
                assert_eq!(q.value, PlainValue::Int(42));
                break;
            }
            assert!(Instant::now() < deadline, "panic never surfaced");
            thread::sleep(Duration::from_millis(2));
        }
        // The sibling session is untouched.
        assert_eq!(query_on(&shard, 2).unwrap().value, PlainValue::Int(0));

        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Stats {
                session: None,
                reply: tx,
            })
            .unwrap();
        let stats = rx.recv().unwrap();
        assert_eq!(stats.counters.recovery_failed, 0);
        assert_eq!(stats.sessions.len(), 2);
        let crashy = stats.sessions.iter().find(|s| s.session == 1).unwrap();
        assert_eq!(crashy.recovery.restarts, 1);
        shard.shutdown();
    }

    #[test]
    fn budget_exhaustion_evicts_with_recovery_failed() {
        let shard = spawn_shard(None);
        let config = SessionConfig {
            restart: crate::supervisor::RestartPolicy {
                max_restarts: 0,
                ..crate::supervisor::RestartPolicy::default()
            },
            ..SessionConfig::default()
        };
        open_on(&shard, 1, "crashy", config);
        let (sub_tx, sub_rx) = channel::unbounded();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Subscribe {
                session: 1,
                sink: Box::new(sub_tx),
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap().unwrap();

        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Event {
                session: 1,
                input: "Mouse.x".to_string(),
                value: Value::Int(-5),
                trace: 0,
                reply: tx,
            })
            .unwrap();
        rx.recv().unwrap().unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if query_on(&shard, 1).is_err() {
                break;
            }
            assert!(Instant::now() < deadline, "doomed session never evicted");
            thread::sleep(Duration::from_millis(2));
        }
        // The final message on the stream names the reason.
        let last = sub_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a closed notice");
        assert_eq!(
            last,
            Update::Closed {
                session: 1,
                reason: "recovery_failed".to_string()
            }
        );
        shard.shutdown();
    }

    #[test]
    fn idle_sessions_are_evicted_after_the_timeout() {
        let shard = spawn_shard(Some(Duration::from_millis(30)));
        open_on(&shard, 1, "counter", SessionConfig::default());
        let deadline = Instant::now() + Duration::from_secs(5);
        // Querying touches the session, pushing the idle deadline out — so
        // back off longer than the timeout between polls.
        while query_on(&shard, 1).is_ok() {
            thread::sleep(Duration::from_millis(50));
            assert!(Instant::now() < deadline, "idle session never evicted");
        }
        shard.shutdown();
    }
}
