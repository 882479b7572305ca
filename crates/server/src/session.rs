//! One hosted FRP program: its runtime, bounded ingress queue, event
//! journal, snapshots, and subscriber fan-out.
//!
//! A session runs on the deterministic synchronous engine, owned by
//! exactly one shard worker thread — actor-style, so no session state is
//! ever shared across threads. Events arrive through [`Session::enqueue`]
//! (applying the configured [`BackpressurePolicy`] when the queue is
//! full) and are applied in FIFO order by [`Session::pump`].
//!
//! # Crash recovery
//!
//! The pump write-ahead-journals every event *at dispatch time*,
//! immediately before feeding it to the runtime — never at enqueue time,
//! so events dropped or coalesced under backpressure are never journaled
//! and the journal is the exact applied-event log. Every
//! `snapshot_interval` applied events the session snapshots its runtime
//! ([`elm_runtime::RuntimeSnapshot`]) and truncates the journal behind
//! it, bounding any recovery replay below the interval. When the runtime
//! dies — a node panic, an injected crash from the [`FaultPlan`], or an
//! engine error — the session asks its [`RestartBudget`] for a restart
//! slot, rebuilds a fresh runtime, restores the snapshot, and silently
//! replays the journal suffix (outputs were already delivered, so replay
//! drains them without re-publishing). Theorem 1 of the paper makes this
//! sound: the synchronous engine is a deterministic function of the
//! applied event sequence. Once the budget is exhausted the session is
//! marked `recovery_failed` and the shard evicts it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use elm_environment::fault::{self, FaultPlan};
use elm_runtime::{
    Counter, EventJournal, EventLimits, Gauge, Histogram, JournalEntry, JournalError, NodeId,
    NodeTimingSnapshot, PlainValue, RuntimeSnapshot, SignalGraph, StatsSnapshot, Tracer, Value,
};
use elm_signals::{Engine, Program, Running};
use felm::ast::Type;
use rand::rngs::StdRng;
use rand::Rng;

use crate::admission::MemoryGauge;
use crate::cluster::{ReplicationTap, Staged};
use crate::protocol::{
    BackpressurePolicy, EnqueueOutcome, IngressStats, LatencySummary, QueryInfo, RecoveryStats,
    SessionStats, TrapStats, Update,
};
use crate::supervisor::{RestartBudget, RestartDecision, RestartPolicy};

/// Session identifier, unique for the server's lifetime.
pub type SessionId = u64;

/// Per-session ingress and recovery configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionConfig {
    /// Maximum events waiting between pumps.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: BackpressurePolicy,
    /// Applied events between runtime snapshots — the bound on how many
    /// journal entries any single recovery replays.
    pub snapshot_interval: u64,
    /// Journal segment capacity (entries per in-memory segment). Truncation
    /// frees whole segments, so a session holds at most two segments of
    /// entries; the session caps the segment at `snapshot_interval`, which
    /// bounds its journal by twice the interval.
    pub journal_segment: usize,
    /// Restart budget for crash recovery.
    pub restart: RestartPolicy,
    /// Injected faults (disabled by default).
    pub faults: FaultPlan,
    /// Attach a causal [`Tracer`] (per-event span trees + per-node timing
    /// histograms). Off by default so untraced sessions pay no
    /// observability overhead.
    pub observe: bool,
    /// Per-event resource budget (fuel / allocation / depth) enforced by
    /// the runtime governor. `None` leaves evaluation ungoverned. On by
    /// default: a server hosts untrusted programs, and the default
    /// budget is far above anything an honest event needs.
    pub limits: Option<EventLimits>,
    /// Wall-clock deadline per event. A blown deadline traps and rolls
    /// back just that event; the session stays healthy. Disabled during
    /// recovery replay (wall time is not deterministic).
    pub event_timeout: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            queue_capacity: 1024,
            policy: BackpressurePolicy::Block,
            snapshot_interval: 256,
            journal_segment: 256,
            restart: RestartPolicy::default(),
            faults: FaultPlan::disabled(),
            observe: false,
            limits: Some(EventLimits::default()),
            event_timeout: None,
        }
    }
}

/// Ingest-to-output latency samples a session keeps: the most recent
/// ones, in a ring, so memory and the sort behind every `stats` call and
/// `/metrics` scrape stay fixed however long the session lives.
pub const LATENCY_WINDOW: usize = 1024;

/// Where a session delivers its output updates. The shard thread pushes
/// into it directly, so [`UpdateSink::push`] must never block: a sink that
/// cannot keep up buffers or gives up, it never stalls the shard.
pub trait UpdateSink: Send {
    /// Delivers one update. Returns `false` once the sink is gone; the
    /// session then drops it.
    fn push(&self, update: &Update) -> bool;
}

/// The in-process sink behind [`crate::Server::subscribe`].
impl UpdateSink for Sender<Update> {
    fn push(&self, update: &Update) -> bool {
        self.send(update.clone()).is_ok()
    }
}

/// Rendered trace lines queued per `trace` subscriber, drop-oldest.
pub const TRACE_SUBSCRIBER_CAPACITY: usize = 256;

/// A bounded drop-oldest mailbox of rendered trace lines, shared between a
/// session (producer, on its shard thread) and one `trace` forwarder
/// thread (consumer, owned by the subscriber's connection).
///
/// The pump must never block on a slow subscriber, so a full mailbox
/// evicts its oldest line instead of waiting. Either side may [`close`]
/// the mailbox: the consumer when its connection dies (the session then
/// prunes it), the session when it shuts down (the forwarder then exits).
///
/// [`close`]: TraceMailbox::close
#[derive(Debug, Default)]
pub struct TraceMailbox {
    inner: std::sync::Mutex<MailboxState>,
    ready: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct MailboxState {
    lines: VecDeque<String>,
    dropped: u64,
    closed: bool,
}

/// Outcome of one [`TraceMailbox::recv_timeout`] wait.
#[derive(Debug, PartialEq, Eq)]
pub enum TracePop {
    /// The next queued line.
    Line(String),
    /// Nothing arrived within the timeout; the mailbox is still open.
    Empty,
    /// The mailbox is closed and drained; no more lines will ever arrive.
    Closed,
}

impl TraceMailbox {
    /// Creates an open, empty, shareable mailbox.
    pub fn new() -> Arc<TraceMailbox> {
        Arc::new(TraceMailbox::default())
    }

    /// Producer side: stores `line`, evicting the oldest queued line when
    /// full. Returns `None` when the mailbox is closed (the producer
    /// should forget it), otherwise whether an eviction happened.
    fn push(&self, line: String) -> Option<bool> {
        let mut st = self.inner.lock().expect("mailbox lock");
        if st.closed {
            return None;
        }
        let evicted = st.lines.len() >= TRACE_SUBSCRIBER_CAPACITY;
        if evicted {
            st.lines.pop_front();
            st.dropped += 1;
        }
        st.lines.push_back(line);
        drop(st);
        self.ready.notify_one();
        Some(evicted)
    }

    /// Consumer side: waits up to `timeout` for the next line. Queued
    /// lines are still delivered after [`TraceMailbox::close`];
    /// [`TracePop::Closed`] only once the backlog is drained.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> TracePop {
        let mut st = self.inner.lock().expect("mailbox lock");
        if st.lines.is_empty() && !st.closed {
            let (guard, _timeout) = self.ready.wait_timeout(st, timeout).expect("mailbox lock");
            st = guard;
        }
        match st.lines.pop_front() {
            Some(line) => TracePop::Line(line),
            None if st.closed => TracePop::Closed,
            None => TracePop::Empty,
        }
    }

    /// Closes the mailbox from either side and wakes a waiting consumer.
    pub fn close(&self) {
        self.inner.lock().expect("mailbox lock").closed = true;
        self.ready.notify_one();
    }

    /// Lines evicted because the consumer fell behind.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("mailbox lock").dropped
    }
}

struct Queued {
    input: String,
    /// `input` resolved once, at admission.
    node: NodeId,
    value: Value,
    at: Instant,
    /// Client-supplied causal trace id (0 = untraced), journaled and
    /// replicated with the event.
    trace: u64,
}

/// Crash-recovery and journal activity, kept as [`Counter`]s/[`Gauge`]s so
/// the same accounting feeds both [`RecoveryStats`] and the metrics
/// exposition surface (no parallel ad-hoc `u64` bookkeeping).
#[derive(Debug, Default)]
struct RecoveryCounters {
    restarts: Counter,
    replayed_events: Counter,
    max_replay: Gauge,
    snapshots: Counter,
    journal_appends: Counter,
    journal_truncations: Counter,
    journal_failures: Counter,
}

/// A hosted program instance (see module docs).
pub struct Session {
    id: SessionId,
    program_name: String,
    // The FElm source the graph was compiled from (None for native
    // graphs); surfaced by the `describe` wire verb.
    source: Option<String>,
    graph: SignalGraph,
    // The payload type each input admits, by node index (empty until
    // `set_input_types`; an input with none admits every value).
    input_types: Vec<Option<Type>>,
    running: Running<Value>,
    queue: VecDeque<Queued>,
    config: SessionConfig,
    subscribers: Vec<Box<dyn UpdateSink>>,
    enqueued: u64,
    dropped: u64,
    coalesced: u64,
    ignored: u64,
    pumps: u64,
    events_out: u64,
    seq: u64,
    // Ring of the last LATENCY_WINDOW latency samples; `latency_next` is
    // the slot the next sample overwrites once the ring is full.
    latencies: Vec<u64>,
    latency_next: usize,
    last_activity: Instant,
    // --- crash recovery ---
    journal: EventJournal,
    snapshot: Option<(u64, RuntimeSnapshot)>,
    applied_seq: u64,
    recovery: RecoveryCounters,
    recovery_failed: bool,
    budget: RestartBudget,
    // Panics seen in the *current* runtime incarnation; replayed panics
    // during recovery are folded in here so they don't recrash.
    panic_baseline: u64,
    ever_panicked: bool,
    pending_recovery: Option<Instant>,
    crash_rng: Option<StdRng>,
    // Runtime counters accumulated from previous incarnations.
    stats_base: StatsSnapshot,
    // Last applied output value, served to queries even mid-recovery.
    last_output: Value,
    // Causal tracer shared with every runtime incarnation (histograms
    // accumulate across recoveries). None unless `config.observe`.
    tracer: Option<Arc<Tracer>>,
    // `trace` subscribers: bounded drop-oldest mailboxes of NDJSON lines.
    trace_subscribers: Vec<Arc<TraceMailbox>>,
    trace_lines_dropped: u64,
    // Governor traps by kind (trapped events are rolled back, not
    // poisoning — see crate::protocol::TrapStats).
    traps: TrapStats,
    // Server-wide memory gauge this session reports its retained cells
    // into, and the last figure it reported (for delta accounting).
    memory: Option<Arc<MemoryGauge>>,
    reported_cells: i64,
    // Cluster replication tap: once a cluster installs its links, applied
    // events and snapshots stream to the session's replica peer through
    // it. Until then nothing is rendered for replication.
    replication: Option<Arc<ReplicationTap>>,
    // Replication lines rendered since the shard last flushed them.
    rep_staged: Staged,
    // Mergeable log2 histogram of ingest-to-output latency (µs). The
    // `latencies` sample vector serves exact percentile summaries; this
    // serves cross-peer federation and SLO burn rates, which need
    // bucket-wise addition.
    ingest_hist: Histogram,
    // Trace id of the last applied event (0 = untraced): stamped on
    // shipped snapshots and takeover broadcasts so the failover path can
    // join the same causal story.
    last_trace: u64,
    // Ownership epoch: 1 at open, bumped by adoption. Stamped on every
    // journal append (through the journal's fence), every replication
    // message, and every query reply, so stale owners are detectable
    // everywhere the session's history can leak.
    epoch: u64,
}

impl Session {
    /// Instantiates `graph` on the synchronous engine.
    pub fn new(
        id: SessionId,
        program_name: String,
        graph: SignalGraph,
        config: SessionConfig,
    ) -> Session {
        let tracer = config.observe.then(|| {
            let t = Tracer::for_graph(&graph);
            t.set_enabled(true);
            t
        });
        let mut running = Program::from_dynamic_graph(graph.clone())
            .start_observed(Engine::Synchronous, tracer.clone());
        running.set_governor(config.limits, config.event_timeout);
        let segment = (config.journal_segment as u64).min(config.snapshot_interval);
        let mut journal = EventJournal::new(segment.max(1) as usize);
        if config.faults.journal_fail > 0.0 {
            let mut rng = config.faults.rng(fault::STREAM_JOURNAL, id);
            let p = config.faults.journal_fail;
            journal.set_failure_hook(Box::new(move |_| rng.gen_bool(p)));
        }
        let crash_rng =
            (config.faults.crash > 0.0).then(|| config.faults.rng(fault::STREAM_CRASH, id));
        let last_output = running.current().clone();
        Session {
            id,
            program_name,
            source: None,
            graph,
            input_types: Vec::new(),
            running,
            queue: VecDeque::new(),
            config,
            subscribers: Vec::new(),
            enqueued: 0,
            dropped: 0,
            coalesced: 0,
            ignored: 0,
            pumps: 0,
            events_out: 0,
            seq: 0,
            latencies: Vec::new(),
            latency_next: 0,
            last_activity: Instant::now(),
            journal,
            snapshot: None,
            applied_seq: 0,
            recovery: RecoveryCounters::default(),
            recovery_failed: false,
            budget: RestartBudget::new(config.restart),
            panic_baseline: 0,
            ever_panicked: false,
            pending_recovery: None,
            crash_rng,
            stats_base: StatsSnapshot::default(),
            last_output,
            tracer,
            trace_subscribers: Vec::new(),
            trace_lines_dropped: 0,
            traps: TrapStats::default(),
            memory: None,
            reported_cells: 0,
            replication: None,
            rep_staged: Staged::default(),
            ingest_hist: Histogram::new(),
            last_trace: 0,
            epoch: 1,
        }
    }

    /// The session's ownership epoch (1 at open, bumped by adoption).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs the ownership epoch a takeover assigned and fences the
    /// journal at it, so an append stamped by any older incarnation is
    /// rejected with a typed [`JournalError::Fenced`].
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch.max(1));
        self.journal.fence(self.epoch);
    }

    /// Attaches the cluster replication tap: from now on every applied
    /// event and every snapshot also streams to the session's replica
    /// peer. Set *after* [`Session::restore_shipped`] on adoption, so
    /// the restore itself is not re-replicated.
    pub fn set_replication(&mut self, tap: Arc<ReplicationTap>) {
        self.replication = Some(tap);
    }

    /// Takes (and ships, when a tap is attached) a snapshot right now.
    /// Called on adoption: the new primary's replica stream starts at the
    /// adoption high-water mark, so a snapshot re-bases the new replica
    /// there and keeps the append stream that follows contiguous.
    pub fn snapshot_now(&mut self) {
        self.take_snapshot();
    }

    /// Queues the replication lines staged since the last flush on the
    /// replica link, as one batch. The shard calls it for every session
    /// once its oldest staged line is one tick old; [`Session::stop`]
    /// flushes what is left, so a replica drop shipped after `stop`
    /// always follows the session's appends.
    pub(crate) fn flush_replication(&mut self) {
        if let Some(links) = self.replication.as_deref().and_then(ReplicationTap::links) {
            links.flush(self.id, &mut self.rep_staged);
        }
    }

    /// True when replication lines wait for the shard's next flush.
    pub(crate) fn has_staged_replication(&self) -> bool {
        !self.rep_staged.is_empty()
    }

    /// The metadata a replica needs to re-instantiate this session on
    /// takeover; shipped by the shard when the session opens.
    pub fn replica_meta(&self) -> crate::protocol::SessionMeta {
        crate::protocol::SessionMeta {
            program: self.program_name.clone(),
            source: self.source.clone(),
            queue: self.config.queue_capacity,
            policy: self.config.policy,
        }
    }

    /// Rebuilds this (fresh, eventless) session from a peer's shipped
    /// snapshot and journal suffix — failover's recovery path. The
    /// restored state equals the dead primary's at its last replicated
    /// event (Theorem 1 across the wire: state is a function of the
    /// applied sequence). Replayed outputs are drained silently; the
    /// primary already delivered them. Returns the applied high-water
    /// mark, which clients read back as `last_seq` to resume exactly
    /// once.
    pub fn restore_shipped(
        &mut self,
        snapshot: Option<(u64, elm_runtime::WireSnapshot)>,
        entries: Vec<JournalEntry>,
    ) -> Result<u64, String> {
        // Replay under deterministic budgets but no wall-clock deadline,
        // exactly like crash recovery.
        self.running.set_governor(self.config.limits, None);
        if let Some((through, wire)) = snapshot {
            if wire.fingerprint != self.graph.fingerprint() {
                return Err(format!(
                    "shipped snapshot fingerprint {} does not match graph {}",
                    wire.fingerprint,
                    self.graph.fingerprint()
                ));
            }
            let snap = elm_runtime::RuntimeSnapshot::from_wire(&wire);
            self.running
                .restore(&snap)
                .map_err(|e| format!("snapshot restore: {e}"))?;
            self.applied_seq = through;
            self.snapshot = Some((through, snap));
        }
        let mut replayed = 0u64;
        for entry in entries {
            if entry.seq <= self.applied_seq {
                continue; // covered by the shipped snapshot
            }
            // Write-ahead into our own journal, then silent replay: from
            // here on the adopted session recovers like a native one.
            let _ = self.journal.append(entry.clone());
            self.recovery.journal_appends.inc();
            self.running
                .send_named(&entry.input, entry.value.to_value())
                .and_then(|()| self.running.drain_raw())
                .map_err(|e| format!("replay of shipped seq {}: {e}", entry.seq))?;
            self.applied_seq = entry.seq;
            // Replayed events keep the trace ids they were ingested with
            // on the dead primary: the adopter continues those traces
            // rather than starting fresh ones.
            self.last_trace = entry.trace;
            replayed += 1;
        }
        crate::blackbox::blackbox().record(
            "resume",
            self.id,
            self.applied_seq,
            self.last_trace,
            -1,
            &format!("replayed {replayed}"),
        );
        // Deterministic traps replayed here were already tallied by the
        // primary; discard the duplicates and restore the live deadline.
        let _ = self.running.take_traps();
        self.running
            .set_governor(self.config.limits, self.config.event_timeout);
        self.recovery.replayed_events.add(replayed);
        self.recovery.max_replay.set_max(replayed as i64);
        self.panic_baseline = self.running.stats().node_panics;
        self.ever_panicked = self.panic_baseline > 0;
        self.last_output = self.running.current().clone();
        Ok(self.applied_seq)
    }

    /// Attaches the server-wide memory gauge; the session reports its
    /// approximate retained cells (queue + journal + output) into it
    /// after every pump, and withdraws them when stopped.
    pub fn set_memory_gauge(&mut self, gauge: Arc<MemoryGauge>) {
        self.memory = Some(gauge);
        self.report_memory();
    }

    /// Re-estimates retained cells and reports the delta to the gauge.
    fn report_memory(&mut self) {
        let Some(gauge) = self.memory.as_ref() else {
            return;
        };
        let queued: u64 = self
            .queue
            .iter()
            .map(|q| q.value.approx_cells() + q.input.len() as u64)
            .sum();
        // Journal entries retain a PlainValue each; a flat per-entry
        // charge keeps this O(journal length) without re-walking values.
        let cells =
            (queued + self.journal.len() as u64 * 8 + self.last_output.approx_cells()) as i64;
        gauge.add(cells - self.reported_cells);
        self.reported_cells = cells;
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Resolved program name.
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// Declares the payload type of each input, by node index (see
    /// [`crate::Registry::input_types`]). From then on an event whose
    /// value its input's type does not admit is `ignored` at admission,
    /// like an event on an undeclared input: it is never queued,
    /// journaled, replicated or applied, so it cannot get a node stuck
    /// and poison the session through every later recovery.
    pub fn set_input_types(&mut self, types: Vec<Option<Type>>) {
        self.input_types = types;
    }

    /// Records the FElm source this session's graph was compiled from.
    pub fn set_source(&mut self, source: Option<String>) {
        self.source = source;
    }

    /// What `describe` returns: program name, compile source (if any),
    /// the graph's structural fingerprint, and declared inputs.
    pub fn describe(&self) -> crate::protocol::DescribeInfo {
        crate::protocol::DescribeInfo {
            session: self.id,
            program: self.program_name.clone(),
            source: self.source.clone(),
            fingerprint: self.graph.fingerprint(),
            inputs: crate::shard::input_names(&self.graph),
        }
    }

    /// Events currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True once a node ever panicked in this session. Unlike the
    /// pre-recovery server this is *not* a death sentence: the session
    /// recovers in place and the poisoned node emits `NoChange` forever
    /// (paper §3.3.2).
    pub fn is_poisoned(&self) -> bool {
        self.ever_panicked
    }

    /// True once the restart budget is exhausted; the shard evicts such
    /// sessions with the `recovery_failed` close reason.
    pub fn recovery_failed(&self) -> bool {
        self.recovery_failed
    }

    /// Supervised restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.recovery.restarts.get()
    }

    /// True when the session was opened with `observe:true` and thus has a
    /// tracer attached.
    pub fn is_observed(&self) -> bool {
        self.tracer.is_some()
    }

    /// The session's causal tracer, if observed.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Per-node compute / queue-wait timings (empty when not observed).
    pub fn node_timings(&self) -> Vec<NodeTimingSnapshot> {
        self.tracer
            .as_ref()
            .map(|t| t.node_timings())
            .unwrap_or_default()
    }

    /// Registers a span-tree subscriber. Fails (returns `false`) when the
    /// session was not opened with `observe:true`. The mailbox is bounded
    /// to [`TRACE_SUBSCRIBER_CAPACITY`] lines and drops its oldest line
    /// rather than blocking the pump.
    pub fn subscribe_trace(&mut self, sink: Arc<TraceMailbox>) -> bool {
        self.last_activity = Instant::now();
        if self.tracer.is_none() {
            sink.close();
            return false;
        }
        self.trace_subscribers.push(sink);
        true
    }

    /// Last time a client touched this session.
    pub fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// Registers an output-change subscriber.
    pub fn subscribe(&mut self, sink: Box<dyn UpdateSink>) {
        self.last_activity = Instant::now();
        self.subscribers.push(sink);
    }

    /// Admits one event, applying the backpressure policy when full.
    pub fn enqueue(&mut self, input: &str, value: Value) -> EnqueueOutcome {
        self.enqueue_traced(input, value, 0)
    }

    /// [`Session::enqueue`] with a client-supplied causal trace id (0 =
    /// untraced). The id rides the event through the journal, the
    /// replication stream, and any failover.
    pub fn enqueue_traced(&mut self, input: &str, value: Value, trace: u64) -> EnqueueOutcome {
        self.last_activity = Instant::now();
        let node = match self.graph.input_named(input) {
            Some(node) if !self.recovery_failed && self.admits(node, &value) => node,
            _ => {
                self.ignored += 1;
                return EnqueueOutcome::Ignored;
            }
        };
        let mut outcome = EnqueueOutcome::Accepted;
        if self.queue.len() >= self.config.queue_capacity {
            match self.config.policy {
                // Drain synchronously: the producer's request completes
                // only after the backlog is applied, so pressure flows
                // back to the client instead of losing events. A recovery
                // backoff defers the drain; Block waits it out (never
                // drops), stopping only if recovery gives the session up.
                BackpressurePolicy::Block => {
                    self.pump();
                    while self.queue.len() >= self.config.queue_capacity.max(1)
                        && !self.recovery_failed
                    {
                        if let Some(deadline) = self.pending_recovery {
                            let now = Instant::now();
                            if deadline > now {
                                std::thread::sleep(deadline - now);
                            }
                        }
                        self.pump();
                    }
                }
                BackpressurePolicy::DropOldest => {
                    self.queue.pop_front();
                    self.dropped += 1;
                    outcome = EnqueueOutcome::DroppedOldest;
                }
                BackpressurePolicy::Coalesce => {
                    if let Some(q) = self.queue.iter_mut().rev().find(|q| q.node == node) {
                        // Keep the original enqueue time: latency then
                        // honestly reports how stale the merged slot is.
                        // The trace follows the surviving value.
                        q.value = value;
                        q.trace = trace;
                        self.coalesced += 1;
                        return EnqueueOutcome::Coalesced;
                    }
                    self.queue.pop_front();
                    self.dropped += 1;
                    outcome = EnqueueOutcome::DroppedOldest;
                }
            }
        }
        // The pumps above may have exhausted the restart budget; nothing
        // enqueued now would ever be applied.
        if self.recovery_failed {
            self.ignored += 1;
            return EnqueueOutcome::Ignored;
        }
        self.queue.push_back(Queued {
            input: input.to_string(),
            node,
            value,
            at: Instant::now(),
            trace,
        });
        self.enqueued += 1;
        outcome
    }

    /// Whether input `node`'s declared type admits `value`.
    fn admits(&self, node: NodeId, value: &Value) -> bool {
        match self.input_types.get(node.index()) {
            Some(Some(ty)) => ty.admits(value),
            _ => true,
        }
    }

    /// Applies every queued event in order — journaling each immediately
    /// before dispatch, snapshotting on the configured cadence — and
    /// streams resulting output changes to subscribers. Crashes (real or
    /// injected) leave the unapplied tail queued and trigger supervised
    /// recovery.
    pub fn pump(&mut self) {
        self.maybe_recover();
        if self.recovery_failed || self.pending_recovery.is_some() || self.queue.is_empty() {
            return;
        }
        let mut batch: VecDeque<Queued> = std::mem::take(&mut self.queue);
        let mut crashed = false;
        while let Some(q) = batch.pop_front() {
            let seq = self.applied_seq + 1;
            // Write-ahead append: the entry hits the journal before the
            // runtime sees the event, so a crash can never lose an
            // applied-but-unjournaled event. In cluster mode the
            // replication line is rendered from the same entry.
            let mut rep_line = None;
            let journal_ok = match PlainValue::from_value(&q.value) {
                Some(pv) => {
                    let entry = JournalEntry {
                        seq,
                        input: q.input.clone(),
                        value: pv,
                        trace: q.trace,
                    };
                    rep_line = self
                        .replication
                        .as_deref()
                        .and_then(ReplicationTap::links)
                        .map(|links| (links, links.append_line(self.id, &entry, self.epoch)));
                    match self.journal.append_owned(self.epoch, entry) {
                        Ok(_) => true,
                        Err(JournalError::Fenced { writer, fence }) => {
                            // Ownership moved under us (a takeover at a
                            // higher epoch fenced the journal): this
                            // incarnation must not extend history. Skip
                            // the event entirely — the new owner serves it.
                            crate::blackbox::blackbox().record(
                                "fenced",
                                self.id,
                                seq,
                                q.trace,
                                -1,
                                &format!("local append at stale epoch {writer} < {fence}"),
                            );
                            self.ignored += 1;
                            continue;
                        }
                        Err(_) => false,
                    }
                }
                None => false,
            };
            if journal_ok {
                self.recovery.journal_appends.inc();
            }
            let applied = self
                .running
                .send_input(q.node, q.value.clone())
                .and_then(|()| self.running.drain_raw());
            let outs = match applied {
                Ok(outs) => outs,
                Err(_) => {
                    // The engine itself died mid-event; the event may or
                    // may not have taken effect. Re-deliver it after
                    // recovery: the journal entry is superseded because
                    // recovery replays only seqs <= applied_seq.
                    batch.push_front(q);
                    crashed = true;
                    break;
                }
            };
            self.applied_seq = seq;
            self.last_trace = q.trace;
            crate::blackbox::blackbox().record("applied", self.id, seq, q.trace, -1, &q.input);
            // Replicate exactly once, only after the event demonstrably
            // applied: the engine-error branch above never reaches here.
            if let Some((links, line)) = rep_line {
                links.stage_append(&mut self.rep_staged, line);
            }
            for ev in &outs {
                let Some(v) = ev.value() else { continue };
                self.seq += 1;
                self.events_out += 1;
                self.last_output = v.clone();
                if self.subscribers.is_empty() {
                    continue;
                }
                if let Some(pv) = PlainValue::from_value(v) {
                    let update = Update::Changed {
                        session: self.id,
                        seq: self.seq,
                        value: pv,
                    };
                    self.subscribers.retain(|s| s.push(&update));
                }
            }
            let latency_us = Instant::now().duration_since(q.at).as_micros() as u64;
            self.ingest_hist.observe(latency_us);
            self.record_latency(latency_us);
            if !journal_ok {
                // The applied event is missing from the journal; snapshot
                // immediately so no recovery ever needs the hole.
                self.recovery.journal_failures.inc();
                self.take_snapshot();
            } else if self.applied_seq - self.snapshot_seq() >= self.config.snapshot_interval {
                self.take_snapshot();
            }
            let panics = self.running.stats().node_panics;
            if panics > self.panic_baseline {
                self.panic_baseline = panics;
                self.ever_panicked = true;
                crashed = true;
            }
            if !crashed {
                if let Some(rng) = self.crash_rng.as_mut() {
                    crashed = rng.gen_bool(self.config.faults.crash);
                }
            }
            if crashed {
                break;
            }
        }
        // Anything unapplied goes back to the queue head, order intact.
        while let Some(q) = batch.pop_back() {
            self.queue.push_front(q);
        }
        self.pumps += 1;
        if self.collect_traps() {
            // A trapped event was journaled but applied as a rolled-back
            // no-op. Fuel/alloc/depth traps replay deterministically, but
            // a deadline trap is wall-clock-dependent; snapshot now so no
            // recovery ever replays across a trapped event.
            self.take_snapshot();
        }
        if crashed {
            self.supervise();
            self.maybe_recover();
        }
        self.flush_traces();
        self.report_memory();
    }

    /// Drains the runtime's governor-trap log into the per-kind tally.
    fn collect_traps(&mut self) -> bool {
        let trapped = self.running.take_traps();
        for (seq, kind) in &trapped {
            self.traps.record(*kind);
            crate::blackbox::blackbox().record(
                "trap",
                self.id,
                *seq,
                self.last_trace,
                -1,
                &format!("{kind:?}"),
            );
        }
        !trapped.is_empty()
    }

    /// Drains completed spans from the tracer's ring, reassembles them
    /// into span trees, and fans rendered lines out to `trace`
    /// subscribers. Full subscriber channels drop their oldest line
    /// (bounded, non-blocking); disconnected subscribers are pruned.
    fn flush_traces(&mut self) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        if self.trace_subscribers.is_empty() {
            // Nobody listening: leave spans in the (bounded, drop-oldest)
            // ring so a late subscriber still sees recent history.
            return;
        }
        let spans = tracer.drain_spans();
        if spans.is_empty() {
            return;
        }
        for tree in elm_runtime::assemble(&spans, &self.graph) {
            let line = crate::protocol::trace_line(self.id, &tree.to_plain(&self.graph));
            let mut dropped = 0u64;
            self.trace_subscribers
                .retain(|mb| match mb.push(line.clone()) {
                    Some(evicted) => {
                        dropped += u64::from(evicted);
                        true
                    }
                    None => false,
                });
            self.trace_lines_dropped += dropped;
        }
    }

    fn snapshot_seq(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |(seq, _)| *seq)
    }

    fn take_snapshot(&mut self) {
        if let Some(snap) = self.running.snapshot() {
            let meta = self.replica_meta();
            if let Some(links) = self.replication.as_deref().and_then(ReplicationTap::links) {
                // Ship the snapshot so the replica can truncate its copy
                // of the journal the same way we truncate ours below.
                links.stage_snapshot(
                    &mut self.rep_staged,
                    self.id,
                    &meta,
                    snap.to_wire().as_ref(),
                    self.applied_seq,
                    self.last_trace,
                    self.epoch,
                );
                crate::blackbox::blackbox().record(
                    "snapshot",
                    self.id,
                    self.applied_seq,
                    self.last_trace,
                    -1,
                    "shipped",
                );
            }
            self.snapshot = Some((self.applied_seq, snap));
            self.recovery.snapshots.inc();
            self.journal.truncate_through(self.applied_seq);
            self.recovery.journal_truncations.inc();
        }
    }

    /// Books a restart slot for a crash that just happened, or gives the
    /// session up when the budget is exhausted.
    fn supervise(&mut self) {
        match self.budget.on_crash(Instant::now()) {
            RestartDecision::Restart { after } => {
                self.pending_recovery = Some(Instant::now() + after);
            }
            RestartDecision::GiveUp => {
                self.recovery_failed = true;
                self.pending_recovery = None;
                self.queue.clear();
            }
        }
    }

    fn maybe_recover(&mut self) {
        if let Some(deadline) = self.pending_recovery {
            if Instant::now() >= deadline {
                self.perform_recovery();
            }
        }
    }

    /// Rebuilds the runtime from snapshot + journal suffix. Replayed
    /// events are drained silently: their outputs were already delivered
    /// before the crash.
    fn perform_recovery(&mut self) {
        // Re-attach the same tracer: per-node histograms accumulate across
        // incarnations, like the runtime counters below.
        let mut fresh = Program::from_dynamic_graph(self.graph.clone())
            .start_observed(Engine::Synchronous, self.tracer.clone());
        // Replay runs under the same deterministic budgets but *no*
        // wall-clock deadline: elapsed time differs between the original
        // run and the replay, and a deadline trap here would diverge
        // recovered state from history.
        fresh.set_governor(self.config.limits, None);
        let dead = std::mem::replace(&mut self.running, fresh);
        self.stats_base = self.stats_base.merged(&dead.stats());
        dead.stop();
        let from = match &self.snapshot {
            Some((seq, snap)) => {
                self.running
                    .restore(snap)
                    .expect("a session snapshot always matches its own graph");
                *seq
            }
            None => 0,
        };
        let mut replayed = 0u64;
        for entry in self.journal.suffix_after(from) {
            if entry.seq > self.applied_seq {
                break;
            }
            // Replay errors would mean the deterministic engine diverged
            // from its own history; nothing smarter to do than continue —
            // the proptest suite guards this path.
            let _ = self
                .running
                .send_named(&entry.input, entry.value.to_value())
                .and_then(|()| self.running.drain_raw());
            replayed += 1;
        }
        self.recovery.replayed_events.add(replayed);
        self.recovery.max_replay.set_max(replayed as i64);
        // Replay reproduced any deterministic traps; they were already
        // tallied the first time, so discard the duplicates and restore
        // the live deadline.
        let _ = self.running.take_traps();
        self.running
            .set_governor(self.config.limits, self.config.event_timeout);
        self.panic_baseline = self.running.stats().node_panics;
        self.last_output = self.running.current().clone();
        self.pending_recovery = None;
        self.recovery.restarts.inc();
        crate::blackbox::blackbox().record(
            "restart",
            self.id,
            self.applied_seq,
            self.last_trace,
            -1,
            &format!("replayed {replayed}"),
        );
        if let Some(tracer) = self.tracer.as_ref() {
            // Replayed events re-recorded spans for outputs that were
            // already delivered; discard them so subscribers never see a
            // duplicate span tree.
            let _ = tracer.drain_spans();
        }
    }

    /// The current output value and queue state. Served from the last
    /// applied output, so it stays answerable mid-recovery.
    pub fn query(&self) -> QueryInfo {
        let value = PlainValue::from_value(&self.last_output)
            .unwrap_or_else(|| PlainValue::Str("<opaque>".to_string()));
        QueryInfo {
            session: self.id,
            program: self.program_name.clone(),
            value,
            queue_len: self.queue.len() as u64,
            poisoned: self.ever_panicked,
            last_seq: self.applied_seq,
            epoch: self.epoch,
        }
    }

    /// The applied-event high-water mark — the journal seq of the last
    /// event the runtime demonstrably applied.
    pub fn last_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Trace id of the last applied event (0 = untraced).
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    /// Ingress counters.
    pub fn ingress_stats(&self) -> IngressStats {
        IngressStats {
            enqueued: self.enqueued,
            dropped: self.dropped,
            coalesced: self.coalesced,
            ignored: self.ignored,
            pumps: self.pumps,
            events_out: self.events_out,
            queue_len: self.queue.len() as u64,
            subscribers: self.subscribers.len() as u64,
        }
    }

    /// Crash-recovery counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            restarts: self.recovery.restarts.get(),
            replayed_events: self.recovery.replayed_events.get(),
            max_replay: self.recovery.max_replay.get().max(0) as u64,
            snapshot_count: self.recovery.snapshots.get(),
            journal_len: self.journal.len() as u64,
            journal_appends: self.recovery.journal_appends.get(),
            journal_truncations: self.recovery.journal_truncations.get(),
            journal_failures: self.recovery.journal_failures.get(),
        }
    }

    fn record_latency(&mut self, us: u64) {
        if self.latencies.len() < LATENCY_WINDOW {
            self.latencies.push(us);
        } else {
            self.latencies[self.latency_next] = us;
            self.latency_next = (self.latency_next + 1) % LATENCY_WINDOW;
        }
    }

    /// The most recent [`LATENCY_WINDOW`] ingest-to-output latency
    /// samples, in microseconds (unordered).
    pub fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    /// Full per-session statistics. Runtime counters accumulate across
    /// restarts (recovery replay is counted again; `replayed_events`
    /// records exactly how much).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            session: self.id,
            program: self.program_name.clone(),
            runtime: self.stats_base.merged(&self.running.stats()),
            ingress: self.ingress_stats(),
            latency: LatencySummary::compute(&mut self.latencies.clone()),
            ingest_hist: self.ingest_hist.snapshot(),
            recovery: self.recovery_stats(),
            poisoned: self.ever_panicked,
            nodes: self.node_timings(),
            spans_dropped: self.tracer.as_ref().map_or(0, |t| t.dropped_spans())
                + self.trace_lines_dropped,
            traps: self.traps,
        }
    }

    /// Governor traps tallied by kind.
    pub fn trap_stats(&self) -> TrapStats {
        self.traps
    }

    /// Tells subscribers the session is gone. Always the final message on
    /// the stream: subscribers are dropped right after.
    pub fn notify_closed(&mut self, reason: &str) {
        let update = Update::Closed {
            session: self.id,
            reason: reason.to_string(),
        };
        for s in self.subscribers.drain(..) {
            s.push(&update);
        }
        for mb in self.trace_subscribers.drain(..) {
            mb.close();
        }
    }

    /// Tells every subscriber the session moved to `peer` (cluster
    /// failover took it over there), then detaches them. Subscribers are
    /// expected to reconnect against the named peer and resume from
    /// `last_seq`.
    pub fn notify_moved(&mut self, peer: &str) {
        let update = Update::Moved {
            session: self.id,
            peer: peer.to_string(),
        };
        for s in self.subscribers.drain(..) {
            s.push(&update);
        }
        for mb in self.trace_subscribers.drain(..) {
            mb.close();
        }
    }

    /// Stops the underlying runtime and withdraws the session's memory
    /// contribution from the gauge.
    pub fn stop(mut self) {
        self.flush_replication();
        if let Some(gauge) = self.memory.as_ref() {
            gauge.add(-self.reported_cells);
        }
        self.running.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ProgramSpec, Registry};
    use std::time::Duration;

    fn session(program: &str, capacity: usize, policy: BackpressurePolicy) -> Session {
        session_with(
            program,
            SessionConfig {
                queue_capacity: capacity,
                policy,
                ..SessionConfig::default()
            },
        )
    }

    fn session_with(program: &str, config: SessionConfig) -> Session {
        let (name, graph) = Registry::standard()
            .resolve(ProgramSpec::Builtin(program))
            .unwrap();
        Session::new(1, name, graph, config)
    }

    #[test]
    fn block_policy_pumps_instead_of_losing_events() {
        let mut s = session("counter", 4, BackpressurePolicy::Block);
        for _ in 0..10 {
            assert_eq!(
                s.enqueue("Mouse.clicks", Value::Unit),
                EnqueueOutcome::Accepted
            );
        }
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(10));
        let ing = s.ingress_stats();
        assert_eq!((ing.dropped, ing.coalesced), (0, 0));
        assert_eq!(ing.enqueued, 10);
    }

    #[test]
    fn drop_oldest_keeps_the_tail() {
        let mut s = session("counter", 4, BackpressurePolicy::DropOldest);
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.push(s.enqueue("Mouse.clicks", Value::Unit));
        }
        assert_eq!(outcomes[3], EnqueueOutcome::Accepted);
        assert_eq!(outcomes[9], EnqueueOutcome::DroppedOldest);
        s.pump();
        // Only the 4 surviving events reach the fold.
        assert_eq!(s.query().value, PlainValue::Int(4));
        assert_eq!(s.ingress_stats().dropped, 6);
    }

    #[test]
    fn coalesce_merges_same_signal_events() {
        let mut s = session("mouse-latest", 4, BackpressurePolicy::Coalesce);
        for n in 1..=10 {
            s.enqueue("Mouse.x", Value::Int(n));
        }
        assert_eq!(s.queue_len(), 4);
        s.pump();
        // The newest value survives the merge chain.
        assert_eq!(s.query().value, PlainValue::Int(10));
        assert_eq!(s.ingress_stats().coalesced, 6);
        assert_eq!(s.ingress_stats().dropped, 0);
    }

    #[test]
    fn unknown_inputs_are_ignored_not_fatal() {
        let mut s = session("counter", 16, BackpressurePolicy::Block);
        assert_eq!(
            s.enqueue("No.such.signal", Value::Unit),
            EnqueueOutcome::Ignored
        );
        s.enqueue("Mouse.clicks", Value::Unit);
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(1));
        assert_eq!(s.ingress_stats().ignored, 1);
        assert!(!s.is_poisoned());
    }

    #[test]
    fn ill_typed_values_are_ignored_not_fatal() {
        let registry = Registry::standard();
        let src = "main = lift2 (\\x p -> x + 1 + fst p) Mouse.x Mouse.position";
        let (name, graph) = registry.resolve(ProgramSpec::Source(src)).unwrap();
        let types = registry.input_types(&graph);
        let mut s = Session::new(1, name, graph, SessionConfig::default());
        s.set_input_types(types);
        let pair = |a, b| Value::pair(Value::Int(a), b);
        for (input, value) in [
            ("Mouse.x", Value::str("a")),
            ("Mouse.x", Value::Bool(true)),
            ("Mouse.x", pair(1, Value::Int(2))),
            ("Mouse.position", Value::Int(7)),
        ] {
            assert_eq!(s.enqueue(input, value), EnqueueOutcome::Ignored, "{input}");
        }
        // One batch mixing good and ill-typed events: only the good apply.
        let batch = [
            ("Mouse.x", Value::Int(5)),
            ("Mouse.x", Value::str("a")),
            ("Mouse.position", pair(1, Value::Int(2))),
            ("Mouse.position", pair(1, Value::str("b"))),
        ];
        let outcomes = batch.map(|(input, value)| s.enqueue(input, value));
        use EnqueueOutcome::{Accepted, Ignored};
        assert_eq!(outcomes, [Accepted, Ignored, Accepted, Ignored]);
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(5 + 1 + 1));
        s.enqueue("Mouse.x", Value::Int(7));
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(7 + 1 + 1));
        assert!(!s.is_poisoned());
        let ing = s.ingress_stats();
        assert_eq!((ing.enqueued, ing.ignored), (3, 6));
    }

    #[test]
    fn node_panic_recovers_in_place() {
        let mut s = session("crashy", 16, BackpressurePolicy::Block);
        s.enqueue("Mouse.x", Value::Int(21));
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(42));
        s.enqueue("Mouse.x", Value::Int(-1));
        s.pump();
        // The panic poisons the node but the session restarts from its
        // journal instead of dying: the poisoned node is NoChange forever.
        assert!(s.is_poisoned());
        assert!(!s.recovery_failed());
        assert_eq!(s.restarts(), 1);
        assert_eq!(
            s.enqueue("Mouse.x", Value::Int(5)),
            EnqueueOutcome::Accepted
        );
        s.pump();
        // Output is frozen at the pre-panic value, exactly as an
        // uninterrupted run would freeze it (paper §3.3.2).
        assert_eq!(s.query().value, PlainValue::Int(42));
        let rec = s.recovery_stats();
        assert_eq!(rec.restarts, 1);
        assert_eq!(rec.replayed_events, 2);
    }

    #[test]
    fn snapshots_bound_the_replay() {
        let mut s = session_with(
            "counter",
            SessionConfig {
                snapshot_interval: 4,
                // Segments seal at the snapshot cadence, so truncation
                // actually reclaims them.
                journal_segment: 4,
                ..SessionConfig::default()
            },
        );
        for _ in 0..10 {
            s.enqueue("Mouse.clicks", Value::Unit);
        }
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(10));
        let rec = s.recovery_stats();
        assert_eq!(rec.snapshot_count, 2); // at seq 4 and 8
        assert_eq!(rec.journal_len, 2); // 9 and 10 survive truncation
    }

    #[test]
    fn injected_crashes_recover_without_losing_or_duplicating_events() {
        let faults = FaultPlan {
            crash: 0.2,
            ..FaultPlan::chaos(11)
        };
        let mut s = session_with(
            "counter",
            SessionConfig {
                snapshot_interval: 8,
                // ~40 crashes expected over 200 events; keep the budget
                // far above that so recovery never gives up here.
                restart: RestartPolicy {
                    max_restarts: 1000,
                    ..RestartPolicy::default()
                },
                faults,
                ..SessionConfig::default()
            },
        );
        let (tx, rx) = crossbeam::channel::unbounded();
        s.subscribe(Box::new(tx));
        for _ in 0..200 {
            s.enqueue("Mouse.clicks", Value::Unit);
            s.pump();
        }
        // Recovery backoff can leave a tail queued; drain it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while s.queue_len() > 0 {
            assert!(Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(1));
            s.pump();
        }
        assert!(!s.recovery_failed());
        let rec = s.recovery_stats();
        assert!(rec.restarts > 0, "crash probability 0.2 never fired");
        assert!(rec.max_replay <= 8, "replay exceeded the snapshot interval");
        // Exactly-once delivery: the counter saw all 200 clicks, and the
        // subscriber stream is the uninterrupted 1..=200 fold.
        assert_eq!(s.query().value, PlainValue::Int(200));
        let got: Vec<Update> = rx.try_iter().collect();
        assert_eq!(got.len(), 200);
        assert_eq!(
            got.last(),
            Some(&Update::Changed {
                session: 1,
                seq: 200,
                value: PlainValue::Int(200)
            })
        );
    }

    #[test]
    fn exhausted_restart_budget_fails_recovery() {
        let faults = FaultPlan {
            crash: 1.0,
            ..FaultPlan::chaos(3)
        };
        let mut s = session_with(
            "counter",
            SessionConfig {
                restart: RestartPolicy {
                    max_restarts: 3,
                    window: Duration::from_secs(60),
                    backoff_base: Duration::ZERO,
                    backoff_cap: Duration::ZERO,
                },
                faults,
                ..SessionConfig::default()
            },
        );
        for _ in 0..10 {
            s.enqueue("Mouse.clicks", Value::Unit);
            s.pump();
        }
        assert!(s.recovery_failed());
        assert_eq!(
            s.enqueue("Mouse.clicks", Value::Unit),
            EnqueueOutcome::Ignored
        );
    }

    #[test]
    fn journal_failures_force_a_covering_snapshot() {
        let faults = FaultPlan {
            journal_fail: 1.0,
            ..FaultPlan::chaos(5)
        };
        let mut s = session_with(
            "counter",
            SessionConfig {
                faults,
                ..SessionConfig::default()
            },
        );
        for _ in 0..5 {
            s.enqueue("Mouse.clicks", Value::Unit);
        }
        s.pump();
        let rec = s.recovery_stats();
        assert_eq!(rec.journal_failures, 5);
        // Every failed append snapshots right after the apply, so the
        // journal holes are always behind a snapshot.
        assert_eq!(rec.snapshot_count, 5);
        assert_eq!(rec.journal_len, 0);
        assert_eq!(s.query().value, PlainValue::Int(5));
    }

    #[test]
    fn a_fenced_session_stops_extending_history() {
        let mut s = session("counter", 16, BackpressurePolicy::Block);
        s.enqueue("Mouse.clicks", Value::Unit);
        s.pump();
        assert_eq!(s.query().epoch, 1);
        assert_eq!(s.query().value, PlainValue::Int(1));

        // A takeover elsewhere fences the journal above this incarnation:
        // the write-ahead append is rejected and the event is skipped, so
        // the zombie cannot fork history.
        s.journal.fence(5);
        s.enqueue("Mouse.clicks", Value::Unit);
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(1));
        assert_eq!(s.query().last_seq, 1);
        assert_eq!(s.ingress_stats().ignored, 1);

        // Re-adoption at the fence epoch restores ownership.
        s.set_epoch(5);
        s.enqueue("Mouse.clicks", Value::Unit);
        s.pump();
        assert_eq!(s.query().value, PlainValue::Int(2));
        assert_eq!(s.query().epoch, 5);
    }

    #[test]
    fn subscribers_receive_ordered_updates_and_latency_is_recorded() {
        let mut s = session("counter", 16, BackpressurePolicy::Block);
        let (tx, rx) = crossbeam::channel::unbounded();
        s.subscribe(Box::new(tx));
        s.enqueue("Mouse.clicks", Value::Unit);
        s.enqueue("Mouse.clicks", Value::Unit);
        s.pump();
        let got: Vec<Update> = rx.try_iter().collect();
        assert_eq!(
            got,
            vec![
                Update::Changed {
                    session: 1,
                    seq: 1,
                    value: PlainValue::Int(1)
                },
                Update::Changed {
                    session: 1,
                    seq: 2,
                    value: PlainValue::Int(2)
                },
            ]
        );
        assert_eq!(s.latency_samples().len(), 2);
        s.notify_closed("closed");
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            vec![Update::Closed {
                session: 1,
                reason: "closed".to_string()
            }]
        );
    }

    #[test]
    fn journal_holds_at_most_two_snapshot_intervals() {
        // The default config, and a shorter interval that leaves the
        // segment at its default: either way truncation keeps the journal
        // within two intervals, whatever the number of events applied.
        let short = SessionConfig {
            snapshot_interval: 64,
            ..SessionConfig::default()
        };
        for config in [SessionConfig::default(), short] {
            let bound = 2 * config.snapshot_interval;
            let mut s = session_with("counter", config);
            let mut peak = 0;
            for _ in 0..(20 * config.snapshot_interval / 50) {
                for _ in 0..50 {
                    s.enqueue("Mouse.clicks", Value::Unit);
                }
                s.pump();
                let held = s.recovery_stats().journal_len;
                assert!(held <= bound, "journal holds {held} > {bound} entries");
                peak = peak.max(held);
            }
            assert!(s.recovery_stats().snapshot_count >= 19);
            assert!(peak >= config.snapshot_interval / 2, "peak {peak}");
        }
    }

    #[test]
    fn latency_samples_are_a_ring_of_the_most_recent() {
        let mut s = session("counter", 16, BackpressurePolicy::Block);
        let total = LATENCY_WINDOW as u64 + 300;
        for us in 0..total {
            s.record_latency(us);
        }
        let mut kept = s.latency_samples().to_vec();
        kept.sort_unstable();
        let want: Vec<u64> = (total - LATENCY_WINDOW as u64..total).collect();
        assert_eq!(kept, want);
        let summary = s.stats().latency;
        assert_eq!(summary.count, LATENCY_WINDOW as u64);
        assert_eq!(summary.max_us, total - 1);
    }
}
