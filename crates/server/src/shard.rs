//! Sharded worker pool: each shard is one thread owning a disjoint set of
//! sessions, actor-style.
//!
//! Sessions are pinned to a shard at open time (`session id % shard
//! count`), so all mutation of a session happens on one thread and the
//! shard needs no locks around session state. Commands arrive on a
//! channel, each carrying where its answer goes: a reply channel, or for
//! `event` and `batch` an [`Answer`] sink, which a wire connection makes
//! from its reserved reply slot. The shard thus completes each event
//! itself: it renders the ack into the connection's slot, and its
//! sessions render and stage replication lines (see
//! [`crate::cluster::ReplicationTap`]), without waiting on another
//! thread or taking a cluster lock. After each burst of commands the
//! shard pumps every session with queued events, then sweeps for
//! evictions (idle timeout, exhausted restart budget). In cluster mode
//! it group-commits replication: once the oldest staged line is one
//! [`TICK`] old it queues every session's staged lines on the replica
//! links, and while lines are staged its idle wait ends at that
//! deadline, so a quiet shard still ships its suffix on time. Sessions
//! whose runtimes crash are *not* evicted — they recover in place from
//! snapshot + journal (see [`crate::session`]); only a session that
//! exhausts its [`crate::supervisor::RestartBudget`] is removed, with
//! the `recovery_failed` close reason.

use std::collections::HashMap;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use elm_environment::fault::{self, FaultPlan};
use elm_runtime::{NodeKind, PlainValue, SignalGraph, Value};
use rand::Rng;

use std::sync::Arc;

use crate::admission::{Admission, AdmissionConfig, AdmissionController, MemoryGauge};
use crate::cluster::ReplicationTap;
use crate::net::{ReplySlot, Wakes};
use crate::protocol::{
    AdmissionStats, BatchOutcome, DescribeInfo, EnqueueOutcome, OpenInfo, QueryInfo, SessionStats,
};
use crate::session::{Session, SessionConfig, SessionId, TraceMailbox, UpdateSink};
use elm_runtime::{JournalEntry, WireSnapshot};

/// How long a shard sleeps when no commands arrive before re-checking
/// eviction deadlines; also how long staged replication lines linger
/// before the shard queues them on the replica links.
const TICK: Duration = Duration::from_millis(5);

/// How many commands a shard absorbs back-to-back before it pumps the
/// affected sessions — bounds ingest-to-output latency under a firehose.
const MAX_BURST: usize = 256;

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

/// Where a shard delivers its answer to an `event` or `batch`.
pub enum Answer<T> {
    /// An in-process caller blocked on a channel.
    Channel(Sender<Result<T, String>>),
    /// A wire connection's reserved reply slot: the shard renders the
    /// reply line and fills the slot itself.
    Slot(ReplySlot),
}

/// Hands an `event`/`batch` answer to its sink; a filled wire slot's
/// writer is woken with `wakes` once the command burst is handled.
fn deliver<T: crate::net::WireReply>(answer: Answer<T>, res: Result<T, String>, wakes: &mut Wakes) {
    match answer {
        Answer::Channel(tx) => {
            let _ = tx.send(res);
        }
        Answer::Slot(slot) => slot.answer(res, wakes),
    }
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
        answer: Answer<EnqueueOutcome>,
    },
    /// Many input events, enqueued in order.
    Batch {
        /// Target session.
        session: SessionId,
        /// `(input, value)` pairs.
        events: Vec<(String, Value)>,
        /// Receives the per-category tally.
        answer: Answer<BatchOutcome>,
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
    /// Stop the shard thread (pumps and notifies remaining sessions).
    Shutdown,
}

/// Handle to a running shard thread.
pub struct ShardHandle {
    tx: Sender<Command>,
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
        let handle = thread::Builder::new()
            .name(format!("elm-shard-{index}"))
            .spawn(move || run(rx, idle_timeout, index, faults, admission, memory, tap))
            .expect("spawning a shard thread");
        ShardHandle { tx, handle }
    }

    /// The shard's command channel.
    pub fn sender(&self) -> &Sender<Command> {
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

struct Shard {
    sessions: HashMap<SessionId, Session>,
    counters: ShardCounters,
    idle_timeout: Option<Duration>,
    admission: AdmissionController,
    memory: Arc<MemoryGauge>,
    cmd_backlog: u64,
    tap: Arc<ReplicationTap>,
    /// Connection writers owed a wake for acks filled this burst.
    wakes: Wakes,
    /// When the shard first saw replication lines staged since its last
    /// flush (cluster mode only).
    staged_since: Option<Instant>,
}

#[allow(clippy::too_many_arguments)]
fn run(
    rx: Receiver<Command>,
    idle_timeout: Option<Duration>,
    index: usize,
    faults: FaultPlan,
    admission: AdmissionConfig,
    memory: Arc<MemoryGauge>,
    tap: Arc<ReplicationTap>,
) {
    let mut shard = Shard {
        sessions: HashMap::new(),
        counters: ShardCounters::default(),
        idle_timeout,
        admission: AdmissionController::new(admission, memory.clone()),
        memory,
        cmd_backlog: 0,
        tap,
        wakes: Wakes::default(),
        staged_since: None,
    };
    // Worker-stall injection: one roll per handled command burst. Stalls
    // only delay the worker (sessions must tolerate a frozen shard); they
    // never change what gets applied.
    let mut stall_rng = (faults.stall > 0.0).then(|| faults.rng(fault::STREAM_STALL, index as u64));
    'outer: loop {
        let wait = shard.staged_since.map_or(TICK, |since| {
            (since + TICK).saturating_duration_since(Instant::now())
        });
        match rx.recv_timeout(wait) {
            Ok(cmd) => {
                shard.cmd_backlog = rx.len() as u64;
                if shard.handle(cmd) {
                    break 'outer;
                }
                for _ in 0..MAX_BURST {
                    match rx.try_recv() {
                        Ok(cmd) => {
                            if shard.handle(cmd) {
                                break 'outer;
                            }
                        }
                        Err(_) => break,
                    }
                }
                shard.wakes.wake_all();
                if let Some(rng) = stall_rng.as_mut() {
                    if rng.gen_bool(faults.stall) {
                        thread::sleep(Duration::from_millis(faults.stall_ms));
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        shard.pump_all();
        shard.evict();
    }
    // Drain whatever is queued so clients that already got an "accepted"
    // see their events applied, then tell subscribers we're gone.
    shard.wakes.wake_all();
    shard.pump_all();
    for (_, mut s) in shard.sessions.drain() {
        s.notify_closed("shutdown");
        s.stop();
    }
}

impl Shard {
    /// Applies one command; returns true on [`Command::Shutdown`].
    fn handle(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Open {
                id,
                name,
                graph,
                source,
                config,
                reply,
            } => {
                if self.sessions.contains_key(&id) {
                    let _ = reply.send(Err(format!("session {id} already exists")));
                    return false;
                }
                let info = OpenInfo {
                    session: id,
                    program: name.clone(),
                    inputs: input_names(&graph),
                    initial: PlainValue::from_value(&graph.node(graph.output()).default)
                        .unwrap_or_else(|| PlainValue::Str("<opaque>".to_string())),
                };
                let mut session = Session::new(id, name, graph, *config);
                session.set_source(source);
                session.set_memory_gauge(self.memory.clone());
                if let Some(links) = self.tap.links() {
                    links.ship_open(id, &session.replica_meta(), session.epoch());
                }
                session.set_replication(self.tap.clone());
                self.sessions.insert(id, session);
                self.counters.opened += 1;
                let _ = reply.send(Ok(info));
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
                answer,
            } => {
                let res = if !self.sessions.contains_key(&session) {
                    Err(format!("unknown session {session}"))
                } else {
                    match self
                        .admission
                        .admit(session, 1, value.approx_cells(), Instant::now())
                    {
                        Admission::Shed { retry_after_ms } => {
                            crate::blackbox::blackbox().record(
                                "shed",
                                session,
                                0,
                                trace,
                                -1,
                                "admission",
                            );
                            Ok(EnqueueOutcome::Shed { retry_after_ms })
                        }
                        Admission::Admit => {
                            self.with_session(session, |s| s.enqueue_traced(&input, value, trace))
                        }
                    }
                };
                deliver(answer, res, &mut self.wakes);
            }
            Command::Batch {
                session,
                events,
                answer,
            } => {
                let res = if !self.sessions.contains_key(&session) {
                    Err(format!("unknown session {session}"))
                } else {
                    let cells: u64 = events.iter().map(|(_, v)| v.approx_cells()).sum();
                    match self
                        .admission
                        .admit(session, events.len() as u64, cells, Instant::now())
                    {
                        // All-or-nothing: a shed batch debits no tokens
                        // and enqueues nothing.
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
                };
                deliver(answer, res, &mut self.wakes);
            }
            Command::Describe { session, reply } => {
                let _ = reply.send(self.with_session(session, |s| s.describe()));
            }
            Command::Query { session, reply } => {
                let _ = reply.send(self.with_session(session, |s| {
                    // Answer with applied state, not queued state.
                    s.pump();
                    s.query()
                }));
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
                let _ = reply.send(stats);
            }
            Command::Close { session, reply } => {
                let res = match self.sessions.remove(&session) {
                    Some(mut s) => {
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
                    None => Err(format!("unknown session {session}")),
                };
                let _ = reply.send(res);
            }
            Command::Shutdown => return true,
        }
        false
    }

    fn with_session<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, String> {
        match self.sessions.get_mut(&id) {
            Some(s) => Ok(f(s)),
            None => Err(format!("unknown session {id}")),
        }
    }

    /// Pumps every session. In cluster mode, once the oldest staged
    /// replication line is one [`TICK`] old, queues every session's
    /// staged lines on the replica links, one batch per session.
    fn pump_all(&mut self) {
        for s in self.sessions.values_mut() {
            s.pump();
        }
        if self.tap.links().is_none() {
            return;
        }
        let now = Instant::now();
        match self.staged_since {
            Some(since) if now.duration_since(since) >= TICK => {
                self.sessions
                    .values_mut()
                    .for_each(Session::flush_replication);
                self.staged_since = None;
            }
            Some(_) => {}
            None => {
                if self.sessions.values().any(Session::has_staged_replication) {
                    self.staged_since = Some(now);
                }
            }
        }
    }

    fn evict(&mut self) {
        let now = Instant::now();
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
                answer: Answer::Channel(tx),
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
                answer: Answer::Channel(batch_tx),
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
                    answer: Answer::Channel(tx),
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
                answer: Answer::Channel(tx),
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
