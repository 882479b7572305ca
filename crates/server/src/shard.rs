//! Sharded worker pool: each shard is one thread owning a disjoint set of
//! sessions and of client connections, actor-style.
//!
//! Sessions are pinned to a shard at open time (`session id % shard
//! count`), so all mutation of a session happens on one thread and the
//! shard needs no locks around session state. Each accepted connection
//! has a *home* shard too, and the shard thread is a readiness loop: it
//! waits in `poll(2)` on its connections' sockets and on a doorbell that
//! rings when a command arrives while it is parked. The loop reads its
//! connections' request lines and applies each request for one of its
//! own sessions itself (see [`crate::net`]).
//!
//! The shard's verbs are plain methods on `Shard` (`open`, `event`,
//! `batch`, `query`, `close_moved`, `sweep`, ...), which a test can call
//! on a shard built with `Shard::new`, with no thread and no channel.
//! Every other thread reaches them by posting a call, a boxed
//! `FnOnce(&mut Shard)`, into the shard's FIFO mailbox: an in-process
//! verb's call sends the method's result back on a one-shot channel, and
//! a wire request read by another shard's connection is a call to
//! `Shard::serve_wire`, which fills the request's reserved reply slot.
//! A call that cannot be posted is dropped with everything it captured.
//! The shard's sessions render and stage replication lines too (see
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
//! with the first update it writes to their connection. Once per `TICK`
//! the loop sweeps every session: due crash recoveries run, and idle
//! sessions and sessions that exhausted their restart budget are evicted.
//! In cluster mode it group-commits replication: once the oldest staged
//! line is one `TICK` old it queues every session's staged lines on the
//! replica links, and while lines are staged its poll timeout ends at
//! that deadline, so a quiet shard still ships its suffix on time.
//! Sessions whose runtimes crash are *not* evicted — they recover in
//! place from snapshot + journal (see [`crate::session`]); only a session
//! that exhausts its [`crate::supervisor::RestartBudget`] is removed,
//! with the `recovery_failed` close reason.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, SendError, Sender, TryRecvError};
use elm_environment::fault::{self, FaultPlan};
use elm_runtime::{JournalEntry, NodeKind, PlainValue, SignalGraph, Value, WireSnapshot};
use rand::Rng;

use crate::admission::{Admission, AdmissionConfig, AdmissionController, MemoryGauge};
use crate::cluster::ReplicationTap;
use crate::net::{Connection, Flush, Flushes, ReplySlot};
use crate::protocol::{
    self, AdmissionStats, BatchOutcome, DescribeInfo, EnqueueOutcome, OpenInfo, QueryInfo, Request,
    SessionStats,
};
use crate::registry::ProgramSpec;
use crate::server::OpenPlan;
use crate::session::{Session, SessionId, TraceMailbox, UpdateSink};
use crate::sys::{self, Doorbell, PollFd, POLLIN};

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

/// One shard's statistics, as its `stats` verb reports them.
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

/// One entry of a shard's mailbox.
pub(crate) enum Command {
    /// Run a call on the shard: an in-process verb, whose call sends the
    /// result back, or a wire request another shard's connection read.
    Call(Box<dyn FnOnce(&mut Shard) + Send>),
    /// Serve a newly accepted client connection from this shard's loop.
    Connect(Box<Connection>),
    /// Stop the shard thread (pumps and notifies remaining sessions).
    Shutdown,
}

/// A shard's command channel. Sending wakes the shard's loop when it is
/// parked, and costs no system call when it is not.
pub(crate) struct ShardSender {
    tx: Sender<Command>,
    bell: Arc<Doorbell>,
}

impl ShardSender {
    /// Hands the shard a command. Commands from one thread reach the
    /// shard in the order they were sent.
    ///
    /// # Errors
    ///
    /// Fails once the shard is gone, dropping the command and with it
    /// everything it captured.
    pub(crate) fn send(&self, cmd: Command) -> Result<(), SendError<()>> {
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
pub(crate) struct ShardHandle {
    tx: ShardSender,
    handle: JoinHandle<()>,
}

impl ShardHandle {
    /// Spawns a shard worker. `faults` drives worker-stall injection
    /// (deterministically seeded by the shard index); pass
    /// [`FaultPlan::disabled`] for a fault-free shard. The other arguments
    /// are those of [`Shard::new`].
    pub(crate) fn spawn(
        index: usize,
        idle_timeout: Option<Duration>,
        faults: FaultPlan,
        admission: AdmissionConfig,
        memory: Arc<MemoryGauge>,
        tap: Arc<ReplicationTap>,
    ) -> ShardHandle {
        let shard = Shard::new(index, idle_timeout, admission, memory, tap);
        let (tx, rx) = channel::unbounded();
        let bell = Arc::new(Doorbell::new());
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
    pub(crate) fn sender(&self) -> &ShardSender {
        &self.tx
    }

    /// Stops the shard and joins its thread.
    pub(crate) fn shutdown(self) {
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
    /// once each (see `Flushes`).
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

/// How a session leaves its shard (see [`Shard::retire`]).
#[derive(Clone, Copy)]
enum Farewell<'a> {
    /// Closed or evicted here, with this close reason.
    Closed(&'static str),
    /// Taken over by the peer at this address.
    Moved(&'a str),
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
            let cmd = match rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            };
            worked = true;
            match cmd {
                Command::Call(call) => call(&mut shard),
                Command::Connect(conn) => conns.push(*conn),
                Command::Shutdown => break 'outer,
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
    /// An empty shard at position `index` in the pool. `admission`
    /// configures its load-shedding controller and `memory` is the
    /// server-wide gauge behind its watermark.
    pub(crate) fn new(
        index: usize,
        idle_timeout: Option<Duration>,
        admission: AdmissionConfig,
        memory: Arc<MemoryGauge>,
        tap: Arc<ReplicationTap>,
    ) -> Shard {
        Shard {
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
        }
    }

    /// This shard's position in the pool.
    pub(crate) fn index(&self) -> usize {
        self.index
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
            Request::Subscribe { .. } => self
                .subscribe(session, slot.sink())
                .map(|()| protocol::subscribed_line(session)),
            Request::Describe { .. } => self.describe(session).map(|d| protocol::describe_line(&d)),
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

    /// Hosts a new session under `id`.
    pub(crate) fn open(&mut self, id: SessionId, plan: OpenPlan) -> Result<OpenInfo, String> {
        let info = OpenInfo {
            session: id,
            program: plan.name.clone(),
            inputs: input_names(&plan.graph),
            initial: PlainValue::from_value(&plan.graph.node(plan.graph.output()).default)
                .unwrap_or_else(|| PlainValue::Str("<opaque>".to_string())),
        };
        let session = self.build(id, plan)?;
        self.host(id, session);
        Ok(info)
    }

    /// Hosts a session restored from a peer's shipped snapshot and journal
    /// suffix (cluster failover), stamped with the takeover's ownership
    /// `epoch`. Returns the restored applied-seq high-water mark.
    pub(crate) fn adopt(
        &mut self,
        id: SessionId,
        plan: OpenPlan,
        snapshot: Option<(u64, WireSnapshot)>,
        entries: Vec<JournalEntry>,
        epoch: u64,
    ) -> Result<u64, String> {
        let mut session = self.build(id, plan)?;
        // The takeover's epoch lands before any replication: the
        // re-basing snapshot and every append after it carry the new
        // epoch, and the journal is fenced against the old.
        session.set_epoch(epoch);
        let last_seq = match session.restore_shipped(snapshot, entries) {
            Ok(last_seq) => last_seq,
            Err(e) => {
                session.stop();
                return Err(e);
            }
        };
        // The tap attaches only after the restore, so the replayed history
        // is not re-replicated; from here the adopted session streams to
        // *its* replica. A snapshot at the adoption high-water mark
        // re-bases that replica at once, so the append stream that follows
        // stays contiguous instead of gapping until the next periodic
        // snapshot.
        self.host(id, session).snapshot_now();
        self.touched.push(id);
        Ok(last_seq)
    }

    /// A session for `plan` under `id`, counted against the server's
    /// memory gauge; an error when `id` is already hosted here.
    fn build(&self, id: SessionId, plan: OpenPlan) -> Result<Session, String> {
        if self.sessions.contains_key(&id) {
            return Err(format!("session {id} already exists"));
        }
        let mut session = Session::new(id, plan.name, plan.graph, plan.config);
        session.set_input_types(plan.input_types);
        session.set_source(plan.source);
        session.set_memory_gauge(self.memory.clone());
        Ok(session)
    }

    /// Starts `session`'s replication stream, counts it opened and hosts
    /// it.
    fn host(&mut self, id: SessionId, mut session: Session) -> &mut Session {
        if let Some(links) = self.tap.links() {
            links.ship_open(id, &session.replica_meta(), session.epoch());
        }
        session.set_replication(self.tap.clone());
        self.counters.opened += 1;
        self.sessions.entry(id).or_insert(session)
    }

    /// Closes a copy of `session` because the peer at `peer` took it over
    /// at `epoch`: subscribers get a typed `moved` redirect carrying the
    /// takeover's `trace` id. A nonzero epoch marks a demotion (this peer
    /// was fenced off at that epoch). Returns whether a copy was hosted.
    pub(crate) fn close_moved(
        &mut self,
        session: SessionId,
        peer: &str,
        trace: u64,
        epoch: u64,
    ) -> bool {
        let Some(s) = self.sessions.get(&session) else {
            return false;
        };
        let (kind, seq, detail) = if epoch > 0 {
            (
                "demote",
                s.last_seq(),
                format!("demoted to {peer} at epoch {epoch}"),
            )
        } else {
            ("takeover", 0, format!("moved to {peer}"))
        };
        crate::blackbox::blackbox().record(kind, session, seq, trace, -1, &detail);
        self.retire(session, Farewell::Moved(peer)).is_ok()
    }

    /// Takes `id` off the shard: applies what it answered `accepted`
    /// (a batch queued in this very burst would otherwise vanish
    /// unapplied), sends its subscribers their final notice, stops it and
    /// counts it. A close or an eviction also drops its replica; a
    /// takeover does not, because the new primary may share our replica
    /// target, and a drop from us must not erase the replica it now feeds.
    fn retire(&mut self, id: SessionId, farewell: Farewell<'_>) -> Result<(), String> {
        let mut s = self
            .sessions
            .remove(&id)
            .ok_or_else(|| format!("unknown session {id}"))?;
        s.pump();
        let counter = match farewell {
            Farewell::Moved(peer) => {
                s.notify_moved(peer);
                &mut self.counters.closed
            }
            Farewell::Closed(reason) => {
                s.notify_closed(reason);
                match reason {
                    "idle" => &mut self.counters.evicted_idle,
                    "recovery_failed" => &mut self.counters.recovery_failed,
                    _ => &mut self.counters.closed,
                }
            }
        };
        *counter += 1;
        let epoch = s.epoch();
        s.stop();
        self.admission.forget(id);
        if let (Farewell::Closed(_), Some(links)) = (farewell, self.tap.links()) {
            links.ship_drop(id, epoch);
        }
        Ok(())
    }

    /// Queues one event on `session`, unless admission control sheds it.
    pub(crate) fn event(
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

    /// Queues many events on `session` in order, or sheds them all.
    pub(crate) fn batch(
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

    /// The hosted program's description.
    pub(crate) fn describe(&mut self, session: SessionId) -> Result<DescribeInfo, String> {
        self.with_session(session, |s| s.describe())
    }

    /// The session's applied state (pumps what is queued first).
    pub(crate) fn query(&mut self, session: SessionId) -> Result<QueryInfo, String> {
        self.with_session(session, |s| {
            s.pump();
            s.query()
        })
    }

    /// Registers an update subscriber the shard pushes into without
    /// blocking.
    pub(crate) fn subscribe(
        &mut self,
        session: SessionId,
        sink: Box<dyn UpdateSink>,
    ) -> Result<(), String> {
        self.with_session(session, |s| s.subscribe(sink))
    }

    /// Registers a span-tree (`trace`) subscriber; fails unless the
    /// session was opened with `observe`.
    pub(crate) fn subscribe_trace(
        &mut self,
        session: SessionId,
        sink: Arc<TraceMailbox>,
    ) -> Result<(), String> {
        if self.with_session(session, |s| s.subscribe_trace(sink))? {
            Ok(())
        } else {
            Err(format!(
                "session {session} was not opened with \"observe\":true"
            ))
        }
    }

    /// Statistics for one session (`Some`) or all on this shard (`None`).
    pub(crate) fn stats(&self, session: Option<SessionId>) -> ShardStats {
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

    /// Tears a session down; subscribers get a final `closed` update.
    pub(crate) fn close(&mut self, session: SessionId) -> Result<(), String> {
        self.retire(session, Farewell::Closed("closed"))
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
    /// replication line is one `TICK` old, queues every session's staged
    /// lines on the replica links, one batch per session.
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

    /// Once per `TICK`: pumps every session, which runs the crash
    /// recoveries that fell due, then evicts idle sessions and sessions
    /// whose restart budget is exhausted.
    pub(crate) fn sweep(&mut self, now: Instant) {
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
            let _ = self.retire(id, Farewell::Closed(reason));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Update;
    use crate::registry::{ProgramSpec, Registry};
    use crate::session::SessionConfig;

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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let plan = OpenPlan {
                    name,
                    graph,
                    input_types: Vec::new(),
                    source,
                    config,
                };
                let _ = tx.send(s.open(id, plan));
            })))
            .unwrap();
        rx.recv().unwrap().expect("open accepted")
    }

    fn query_on(shard: &ShardHandle, id: SessionId) -> Result<QueryInfo, String> {
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.query(id));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.event(7, "Mouse.clicks", Value::Unit, 0));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let plan = OpenPlan {
                    name,
                    graph,
                    input_types: Vec::new(),
                    source,
                    config: SessionConfig::default(),
                };
                let _ = tx.send(s.open(7, plan));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let plan = OpenPlan {
                    name,
                    graph,
                    input_types: Vec::new(),
                    source,
                    config: SessionConfig::default(),
                };
                let _ = tx.send(s.adopt(9, plan, None, entries, 2));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.subscribe(9, Box::new(sub_tx)));
            })))
            .unwrap();
        rx.recv().unwrap().unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.close_moved(9, "127.0.0.1:7777", 0, 3));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.subscribe(9, Box::new(sub_tx)));
            })))
            .unwrap();
        rx.recv().unwrap().unwrap();

        // A query answered on a full channel holds the shard until the
        // batch and the takeover close are both queued behind it, so the
        // two land in one burst, before any pump.
        let (held_tx, held_rx) = channel::bounded(1);
        held_tx.send(Err("placeholder".to_string())).unwrap();
        let held = Command::Call(Box::new(move |s: &mut Shard| {
            let _ = held_tx.send(s.query(9));
        }));
        shard.sender().send(held).unwrap();
        let (batch_tx, batch_rx) = channel::bounded(1);
        let clicks = vec![("Mouse.clicks".to_string(), Value::Unit); 4];
        shard
            .sender()
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = batch_tx.send(s.batch(9, clicks));
            })))
            .unwrap();
        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.close_moved(9, "127.0.0.1:7777", 0, 2));
            })))
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
    fn a_shard_called_without_a_thread_applies_a_batch_before_a_takeover_close() {
        let timeout = Duration::from_millis(30);
        let mut shard = Shard::new(
            0,
            Some(timeout),
            AdmissionConfig::default(),
            MemoryGauge::new(),
            ReplicationTap::new(),
        );
        let counter = || {
            let (name, graph, source) = Registry::standard()
                .resolve_with_source(ProgramSpec::Builtin("counter"))
                .unwrap();
            OpenPlan {
                name,
                graph,
                input_types: Vec::new(),
                source,
                config: SessionConfig::default(),
            }
        };

        // A batch and a takeover close in the same turn, before any pump.
        shard.open(1, counter()).unwrap();
        let (moved_tx, moved_rx) = channel::unbounded();
        shard.subscribe(1, Box::new(moved_tx)).unwrap();
        let clicks = vec![("Mouse.clicks".to_string(), Value::Unit); 4];
        assert_eq!(shard.batch(1, clicks).unwrap().accepted, 4);
        assert!(shard.close_moved(1, "127.0.0.1:7777", 0, 2));
        let mut expected: Vec<Update> = (1..=4)
            .map(|n| Update::Changed {
                session: 1,
                seq: n,
                value: PlainValue::Int(n as i64),
            })
            .collect();
        expected.push(Update::Moved {
            session: 1,
            peer: "127.0.0.1:7777".to_string(),
        });
        assert_eq!(moved_rx.try_iter().collect::<Vec<_>>(), expected);
        assert!(!shard.close_moved(1, "127.0.0.1:7777", 0, 2));

        // A sweep past the idle timeout evicts the next session.
        shard.open(2, counter()).unwrap();
        let (idle_tx, idle_rx) = channel::unbounded();
        shard.subscribe(2, Box::new(idle_tx)).unwrap();
        shard.sweep(Instant::now() + timeout + Duration::from_millis(1));
        assert_eq!(
            idle_rx.try_iter().collect::<Vec<_>>(),
            vec![Update::Closed {
                session: 2,
                reason: "idle".to_string()
            }]
        );
        assert!(shard.query(2).is_err());
        assert_eq!(
            shard.stats(None).counters,
            ShardCounters {
                opened: 2,
                closed: 1,
                evicted_idle: 1,
                recovery_failed: 0
            }
        );
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
                .send(Command::Call(Box::new(move |s: &mut Shard| {
                    let _ = tx.send(s.event(1, "Mouse.x", Value::Int(v), 0));
                })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.stats(None));
            })))
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
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.subscribe(1, Box::new(sub_tx)));
            })))
            .unwrap();
        rx.recv().unwrap().unwrap();

        let (tx, rx) = channel::bounded(1);
        shard
            .sender()
            .send(Command::Call(Box::new(move |s: &mut Shard| {
                let _ = tx.send(s.event(1, "Mouse.x", Value::Int(-5), 0));
            })))
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
