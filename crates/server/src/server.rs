//! The session manager: routes sessions to shards, merges statistics.
//!
//! [`Server`] is the in-process API the TCP front end ([`crate::net`]),
//! the load generator, and tests all share. It owns the shard pool, the
//! session-id counter and the program [`Registry`]; every per-session
//! operation is forwarded to the owning shard over its command channel,
//! whose loop is woken only when it is parked. An in-process caller waits
//! on a one-shot reply channel. The wire front end never waits: a shard
//! applies requests for its own sessions itself and posts the rest with
//! their reserved reply slot (see [`crate::net`]). No shard ever waits on
//! a shard, so the blocking calls here assert they are not made on one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, Weak};
use std::time::Duration;

use crossbeam::channel::{self, Receiver};
use elm_runtime::{JournalEntry, PlainValue, SignalGraph, StatsSnapshot, WireSnapshot};

use crate::admission::{AdmissionConfig, MemoryGauge};
use crate::cluster::{Cluster, ReplicationTap};
use crate::protocol::{
    AdmissionStats, BackpressurePolicy, BatchOutcome, DescribeInfo, EnqueueOutcome, IngressStats,
    LatencySummary, OpenInfo, QueryInfo, RecoveryStats, ServerStats, SessionMeta, SessionStats,
    TrapStats, Update,
};
use crate::registry::{ProgramSpec, Registry};
use crate::session::{SessionConfig, SessionId, TraceMailbox, UpdateSink};
use crate::shard::{self, Command, ShardHandle, ShardStats};
use crate::sys::Doorbell;
use std::sync::Arc;

/// Server-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerConfig {
    /// Worker threads; sessions are pinned to `session id % shards`, and
    /// each accepted connection is served by one of them.
    pub shards: usize,
    /// Default per-session ingress configuration (overridable per open).
    pub session: SessionConfig,
    /// Evict sessions untouched for this long. `None` disables.
    pub idle_timeout: Option<Duration>,
    /// Per-shard admission control (disabled by default).
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            session: SessionConfig::default(),
            idle_timeout: None,
            admission: AdmissionConfig::default(),
        }
    }
}

pub(crate) const SHARD_DOWN: &str = "shard is down";

/// A resolved `open`: the program and the configuration to host it with.
pub(crate) struct OpenPlan {
    pub(crate) name: String,
    pub(crate) graph: SignalGraph,
    pub(crate) source: Option<String>,
    pub(crate) config: SessionConfig,
}

/// A running multi-session server (see module docs).
pub struct Server {
    shards: Vec<ShardHandle>,
    next_id: AtomicU64,
    registry: Registry,
    config: ServerConfig,
    memory: Arc<MemoryGauge>,
    tap: Arc<ReplicationTap>,
    cluster: OnceLock<Weak<Cluster>>,
}

impl Server {
    /// Starts the shard pool.
    pub fn start(config: ServerConfig) -> Server {
        let memory = MemoryGauge::new();
        let tap = ReplicationTap::new();
        let shards = (0..config.shards.max(1))
            .map(|i| {
                ShardHandle::spawn(
                    i,
                    config.idle_timeout,
                    config.session.faults,
                    config.admission,
                    memory.clone(),
                    tap.clone(),
                )
            })
            .collect();
        Server {
            shards,
            next_id: AtomicU64::new(0),
            registry: Registry::standard(),
            config,
            memory,
            tap,
            cluster: OnceLock::new(),
        }
    }

    /// The replication tap the shards publish session events into. A
    /// no-op until a [`Cluster`] installs its channel.
    pub fn replication_tap(&self) -> Arc<ReplicationTap> {
        self.tap.clone()
    }

    /// Registers the cluster layer so the wire front end can answer
    /// placement queries and redirect moved sessions. Call once, from
    /// [`Cluster::start`].
    pub fn attach_cluster(&self, cluster: &Arc<Cluster>) {
        let _ = self.cluster.set(Arc::downgrade(cluster));
    }

    /// The attached cluster layer, if this server runs in cluster mode.
    pub fn cluster(&self) -> Option<Arc<Cluster>> {
        self.cluster.get().and_then(Weak::upgrade)
    }

    /// The server-wide approximate-memory gauge (cells retained across
    /// all sessions' queues, journals, and outputs).
    pub fn memory_cells(&self) -> u64 {
        self.memory.cells()
    }

    /// The program registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The index of the shard that hosts `session`.
    pub(crate) fn shard_of(&self, session: SessionId) -> usize {
        (session as usize) % self.shards.len()
    }

    /// How many shards the pool runs.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The doorbell of shard `index`'s loop.
    pub(crate) fn shard_bell(&self, index: usize) -> &Arc<Doorbell> {
        self.shards[index].sender().bell()
    }

    /// Hands a command to shard `index` without waiting for it, waking
    /// the shard only if it is parked. Commands from one thread reach a
    /// shard in the order they were sent. If the shard is down the
    /// command is dropped, and with it its answer sink (a dropped
    /// [`crate::net::ReplySlot`] answers `shard is down`).
    pub(crate) fn send_to_shard(&self, index: usize, cmd: Command) {
        let _ = self.shards[index].sender().send(cmd);
    }

    /// Hands a command to `session`'s shard without waiting for it (see
    /// [`Server::send_to_shard`]).
    pub(crate) fn post(&self, session: SessionId, cmd: Command) {
        self.send_to_shard(self.shard_of(session), cmd);
    }

    /// Posts a command and waits for its answer. Never called on a shard
    /// thread: a shard that waited on a shard could wait on itself.
    fn ask<R>(
        &self,
        session: SessionId,
        make: impl FnOnce(channel::Sender<R>) -> Command,
    ) -> Result<R, String> {
        debug_assert!(!shard::on_shard(), "a shard waited on a shard");
        let (tx, rx) = channel::bounded(1);
        self.post(session, make(tx));
        rx.recv().map_err(|_| SHARD_DOWN.to_string())
    }

    /// The next free session id congruent to `shard`, for an unkeyed open
    /// on a connection whose home is that shard: the session then lives
    /// on the thread that serves the connection. One counter serves every
    /// shard, and the ids it skips stay unused.
    pub(crate) fn next_session_id_on(&self, shard: usize) -> SessionId {
        let (n, home) = (self.shards.len() as u64, shard as u64);
        let on_home = |c: u64| c + (home + n - c % n) % n;
        let taken = self
            .next_id
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| Some(on_home(c) + 1))
            .expect("the update always yields a value");
        on_home(taken)
    }

    /// Claims a caller-chosen (cluster-keyed) id: bumps the id counter
    /// past `key` so unkeyed opens never collide with it.
    pub(crate) fn reserve_key(&self, key: SessionId) -> SessionId {
        self.next_id.fetch_max(key + 1, Ordering::SeqCst);
        key
    }

    /// Resolves (compiling if need be) the program an `open` names, and
    /// the session configuration it asks for. A client's source may take
    /// long to compile, so no shard compiles one.
    pub(crate) fn plan_open(
        &self,
        spec: ProgramSpec<'_>,
        queue: Option<usize>,
        policy: Option<BackpressurePolicy>,
        observe: bool,
    ) -> Result<OpenPlan, String> {
        debug_assert!(
            !(matches!(spec, ProgramSpec::Source(_)) && shard::on_shard()),
            "a shard compiled a client's source"
        );
        let (name, graph, source) = self.registry.resolve_with_source(spec)?;
        let mut config = self.config.session;
        if let Some(q) = queue {
            config.queue_capacity = q.max(1);
        }
        if let Some(p) = policy {
            config.policy = p;
        }
        if observe {
            config.observe = true;
        }
        Ok(OpenPlan {
            name,
            graph,
            source,
            config,
        })
    }

    /// Compiles/looks up a program and hosts it as a new session.
    ///
    /// # Errors
    ///
    /// Fails if the program cannot be resolved or the shard died.
    pub fn open(
        &self,
        spec: ProgramSpec<'_>,
        queue: Option<usize>,
        policy: Option<BackpressurePolicy>,
        observe: bool,
    ) -> Result<OpenInfo, String> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.open_at(id, self.plan_open(spec, queue, policy, observe)?)
    }

    /// Hosts a session under a caller-chosen id — cluster mode, where
    /// placement (not this process) assigns session keys. Bumps the
    /// local id counter past `key` so plain opens never collide.
    ///
    /// # Errors
    ///
    /// Fails if the program cannot be resolved, the key is already
    /// hosted here, or the shard died.
    pub fn open_with_key(
        &self,
        key: SessionId,
        spec: ProgramSpec<'_>,
        queue: Option<usize>,
        policy: Option<BackpressurePolicy>,
        observe: bool,
    ) -> Result<OpenInfo, String> {
        let id = self.reserve_key(key);
        self.open_at(id, self.plan_open(spec, queue, policy, observe)?)
    }

    fn open_at(&self, id: SessionId, plan: OpenPlan) -> Result<OpenInfo, String> {
        self.ask(id, |reply| Command::Open {
            id,
            name: plan.name,
            graph: plan.graph,
            source: plan.source,
            config: Box::new(plan.config),
            reply,
        })?
    }

    /// Hosts a session restored from a peer's shipped snapshot and
    /// journal suffix — the failover path. Returns the applied-seq
    /// high-water mark the restored session answers `last_seq` with.
    ///
    /// # Errors
    ///
    /// Fails if the program cannot be resolved, the restore diverges
    /// (fingerprint or replay mismatch), or the key is already hosted.
    pub fn adopt(
        &self,
        session: SessionId,
        meta: &SessionMeta,
        snapshot: Option<(u64, WireSnapshot)>,
        entries: Vec<JournalEntry>,
        epoch: u64,
    ) -> Result<u64, String> {
        let spec = match &meta.source {
            Some(src) => ProgramSpec::Source(src),
            None => ProgramSpec::Builtin(&meta.program),
        };
        let (name, graph, source) = self.registry.resolve_with_source(spec)?;
        let mut config = self.config.session;
        config.queue_capacity = meta.queue.max(1);
        config.policy = meta.policy;
        self.reserve_key(session);
        self.ask(session, |reply| Command::Adopt {
            id: session,
            name,
            graph,
            source,
            config: Box::new(config),
            snapshot,
            entries,
            epoch,
            reply,
        })?
    }

    /// Closes a locally hosted copy of `session` because `peer` took it
    /// over at `epoch`; subscribers get a typed `moved` redirect carrying
    /// the takeover's trace id. A nonzero epoch marks the close as a
    /// demotion (this peer was fenced off). Returns whether a local copy
    /// existed.
    pub fn close_moved(&self, session: SessionId, peer: &str, trace: u64, epoch: u64) -> bool {
        self.ask(session, |reply| Command::CloseMoved {
            session,
            peer: peer.to_string(),
            trace,
            epoch,
            reply,
        })
        .unwrap_or(false)
    }

    /// The hosted program's description: resolved name, the FElm source
    /// it was compiled from (`None` for native graphs), the graph's
    /// structural fingerprint, and its declared inputs.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn describe(&self, session: SessionId) -> Result<DescribeInfo, String> {
        self.ask(session, |reply| Command::Describe { session, reply })?
    }

    /// Sends one event to a session's ingress queue.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn event(
        &self,
        session: SessionId,
        input: &str,
        value: PlainValue,
    ) -> Result<EnqueueOutcome, String> {
        self.event_traced(session, input, value, 0)
    }

    /// [`Server::event`] carrying a caller-supplied causal trace id that
    /// rides the event through the journal, replication, and failover.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn event_traced(
        &self,
        session: SessionId,
        input: &str,
        value: PlainValue,
        trace: u64,
    ) -> Result<EnqueueOutcome, String> {
        self.ask(session, |tx| Command::Event {
            session,
            input: input.to_string(),
            value: value.to_value(),
            trace,
            reply: tx,
        })?
    }

    /// Sends many events, enqueued in order.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn batch(
        &self,
        session: SessionId,
        events: &[(String, PlainValue)],
    ) -> Result<BatchOutcome, String> {
        let events = events
            .iter()
            .map(|(i, v)| (i.clone(), v.to_value()))
            .collect();
        self.ask(session, |tx| Command::Batch {
            session,
            events,
            reply: tx,
        })?
    }

    /// Current output value and queue depth (pumps pending events first,
    /// so the answer reflects everything already acknowledged).
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn query(&self, session: SessionId) -> Result<QueryInfo, String> {
        self.ask(session, |reply| Command::Query { session, reply })?
    }

    /// Streams output changes. The returned receiver yields
    /// [`Update::Changed`] per output change and one [`Update::Closed`]
    /// when the session goes away.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn subscribe(&self, session: SessionId) -> Result<Receiver<Update>, String> {
        let (tx, rx) = channel::unbounded();
        self.subscribe_sink(session, Box::new(tx))?;
        Ok(rx)
    }

    /// Streams output changes into `sink`, which the session's shard
    /// pushes into directly (no thread in between). The stream ends with
    /// one [`Update::Closed`] or [`Update::Moved`].
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub(crate) fn subscribe_sink(
        &self,
        session: SessionId,
        sink: Box<dyn UpdateSink>,
    ) -> Result<(), String> {
        self.ask(session, |reply| Command::Subscribe {
            session,
            sink,
            reply,
        })?
    }

    /// Statistics for one session.
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn session_stats(&self, session: SessionId) -> Result<SessionStats, String> {
        let stats = self.ask(session, |reply| Command::Stats {
            session: Some(session),
            reply,
        })?;
        stats
            .sessions
            .into_iter()
            .next()
            .ok_or_else(|| format!("unknown session {session}"))
    }

    /// Streams completed span trees as rendered `{"trace":…}` NDJSON
    /// lines. Requires the session to have been opened with `observe`.
    ///
    /// # Errors
    ///
    /// Fails for an unknown or unobserved session.
    pub fn trace_subscribe(&self, session: SessionId) -> Result<Arc<TraceMailbox>, String> {
        let mailbox = TraceMailbox::new();
        let sink = mailbox.clone();
        self.ask(session, |reply| Command::TraceSubscribe {
            session,
            sink,
            reply,
        })??;
        Ok(mailbox)
    }

    /// Polls every shard for its statistics. Shard identity is preserved:
    /// entry `i` of the result came from shard `i`'s reply (dead shards
    /// report a default entry).
    fn collect_shard_stats(&self) -> Vec<ShardStats> {
        debug_assert!(!shard::on_shard(), "a shard waited on a shard");
        let mut per_shard: Vec<ShardStats> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = channel::bounded(1);
            let reply = shard
                .sender()
                .send(Command::Stats {
                    session: None,
                    reply: tx,
                })
                .ok()
                .and_then(|()| rx.recv().ok());
            per_shard.push(reply.unwrap_or_default());
        }
        per_shard
    }

    /// Global counters plus per-session statistics for every live session.
    pub fn stats(&self) -> (ServerStats, Vec<SessionStats>) {
        let per_shard = self.collect_shard_stats();
        let mut sessions: Vec<SessionStats> = Vec::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut global = ServerStats {
            sessions_live: 0,
            opened: 0,
            closed: 0,
            evicted_idle: 0,
            recovery_failed: 0,
            restarts: 0,
            replayed_events: 0,
            snapshot_count: 0,
            runtime: StatsSnapshot::default(),
            ingress: IngressStats::default(),
            recovery: RecoveryStats::default(),
            latency: LatencySummary::default(),
            traps: TrapStats::default(),
            admission: AdmissionStats::default(),
        };
        for shard in per_shard {
            global.opened += shard.counters.opened;
            global.closed += shard.counters.closed;
            global.evicted_idle += shard.counters.evicted_idle;
            global.recovery_failed += shard.counters.recovery_failed;
            global.sessions_live += shard.sessions.len() as u64;
            global.admission = global.admission.merged(&shard.admission);
            for s in &shard.sessions {
                global.runtime = global.runtime.merged(&s.runtime);
                global.ingress = global.ingress.merged(&s.ingress);
                global.recovery = global.recovery.merged(&s.recovery);
                global.traps = global.traps.merged(&s.traps);
            }
            sessions.extend(shard.sessions);
            samples.extend(shard.samples);
        }
        global.restarts = global.recovery.restarts;
        global.replayed_events = global.recovery.replayed_events;
        global.snapshot_count = global.recovery.snapshot_count;
        global.latency = LatencySummary::compute(&mut samples);
        sessions.sort_by_key(|s| s.session);
        (global, sessions)
    }

    /// Renders every server metric family as Prometheus exposition text —
    /// the payload behind both the `metrics` wire verb and `GET /metrics`.
    pub fn metrics_text(&self) -> String {
        let per_shard = self.collect_shard_stats();
        let shard_depths: Vec<u64> = per_shard.iter().map(|s| s.queue_depth).collect();
        let admissions: Vec<AdmissionStats> = per_shard.iter().map(|s| s.admission).collect();
        let backlogs: Vec<u64> = per_shard.iter().map(|s| s.cmd_backlog).collect();
        let mut sessions: Vec<SessionStats> = Vec::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut counters = crate::shard::ShardCounters::default();
        for shard in per_shard {
            counters.opened += shard.counters.opened;
            counters.closed += shard.counters.closed;
            counters.evicted_idle += shard.counters.evicted_idle;
            counters.recovery_failed += shard.counters.recovery_failed;
            sessions.extend(shard.sessions);
            samples.extend(shard.samples);
        }
        sessions.sort_by_key(|s| s.session);
        let latency_sum_us: u64 = samples.iter().sum();
        let latency = LatencySummary::compute(&mut samples);
        let text = crate::metrics::render_prometheus(
            &counters,
            &sessions,
            &shard_depths,
            &crate::metrics::OverloadMetrics {
                admissions: &admissions,
                backlogs: &backlogs,
                memory_cells: self.memory.cells(),
                net: crate::net::counters(),
            },
            &latency,
            latency_sum_us,
        );
        let text = match self.cluster() {
            Some(cluster) => format!("{text}{}", cluster.render_metrics(sessions.len() as i64)),
            None => text,
        };
        format!("{text}{}", crate::blackbox::blackbox().render_metrics())
    }

    /// Renders the cluster-wide federated exposition (this peer's scrape
    /// merged with every reachable peer's, `peer`-labelled). Falls back
    /// to the local exposition outside cluster mode.
    pub fn federated_metrics_text(&self) -> String {
        let local = self.metrics_text();
        match self.cluster() {
            Some(cluster) => cluster.federated_metrics(&local),
            None => local,
        }
    }

    /// Tears a session down (subscribers get a final `closed` update).
    ///
    /// # Errors
    ///
    /// Fails for an unknown session.
    pub fn close(&self, session: SessionId) -> Result<(), String> {
        self.ask(session, |reply| Command::Close { session, reply })?
    }

    /// Stops every shard, draining queued events first.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_event_query_close_round_trip() {
        let server = Server::start(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        });
        let a = server
            .open(ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap();
        let b = server
            .open(ProgramSpec::Builtin("mouse-sum"), None, None, false)
            .unwrap();
        assert_ne!(a.session, b.session);

        server
            .event(a.session, "Mouse.clicks", PlainValue::Unit)
            .unwrap();
        server
            .event(b.session, "Mouse.x", PlainValue::Int(4))
            .unwrap();
        server
            .event(b.session, "Mouse.y", PlainValue::Int(5))
            .unwrap();

        assert_eq!(server.query(a.session).unwrap().value, PlainValue::Int(1));
        assert_eq!(server.query(b.session).unwrap().value, PlainValue::Int(9));

        let (global, sessions) = server.stats();
        assert_eq!(global.sessions_live, 2);
        assert_eq!(global.opened, 2);
        assert_eq!(sessions.len(), 2);
        assert!(global.ingress.enqueued >= 3);

        server.close(a.session).unwrap();
        assert!(server.query(a.session).is_err());
        assert!(server.close(a.session).is_err());
        let (global, _) = server.stats();
        assert_eq!(global.sessions_live, 1);
        assert_eq!(global.closed, 1);
        server.shutdown();
    }

    #[test]
    fn connection_opens_take_ids_on_their_home_shard() {
        let server = Server::start(ServerConfig {
            shards: 3,
            ..ServerConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        for home in [0, 2, 2, 1, 0, 1, 2] {
            let id = server.next_session_id_on(home);
            assert_eq!(server.shard_of(id), home, "id {id}");
            assert!(seen.insert(id), "id {id} handed out twice");
        }
        // Keyed ids stay clear of later opens of either kind.
        server.reserve_key(100);
        assert!(server.next_session_id_on(0) > 100);
        let plain = server
            .open(ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap();
        assert!(plain.session > 100);
        server.shutdown();
    }

    #[test]
    fn round_trips_to_a_parked_shard_lose_no_doorbell() {
        let server = Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let s = server
            .open(ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap()
            .session;
        // Between queries the shard parks in `poll`; only its doorbell
        // wakes it before the poll timeout. A lost ring costs up to one
        // tick, so a lost ring per query would take about 1,000 ticks.
        let rounds = 2000;
        let start = std::time::Instant::now();
        for _ in 0..rounds {
            server.query(s).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < crate::shard::TICK * rounds / 4,
            "{rounds} round trips took {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn subscriptions_stream_and_end_with_closed() {
        let server = Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let s = server
            .open(ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap();
        let rx = server.subscribe(s.session).unwrap();
        server
            .event(s.session, "Mouse.clicks", PlainValue::Unit)
            .unwrap();
        // Force the pump via query, then read the streamed update.
        server.query(s.session).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Update::Changed {
                session: s.session,
                seq: 1,
                value: PlainValue::Int(1)
            }
        );
        server.close(s.session).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Update::Closed {
                session: s.session,
                reason: "closed".to_string()
            }
        );
        server.shutdown();
    }

    #[test]
    fn single_process_server_ships_no_snapshots() {
        // Snapshots `key` after one snapshot interval of events and
        // returns whether the flight recorder saw it shipped.
        fn snapshot_shipped(server: &Server, key: SessionId) -> bool {
            server
                .open_with_key(key, ProgramSpec::Builtin("counter"), None, None, false)
                .unwrap();
            let interval = server.config().session.snapshot_interval as usize;
            let events = vec![("Mouse.clicks".to_string(), PlainValue::Unit); interval];
            server.batch(key, &events).unwrap();
            server.query(key).unwrap();
            let stats = server.session_stats(key).unwrap();
            assert_eq!(stats.recovery.snapshot_count, 1);
            crate::blackbox::blackbox()
                .snapshot_for(&[key])
                .iter()
                .any(|r| r.kind == "snapshot" && r.detail == "shipped")
        }
        let single = Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        assert!(!snapshot_shipped(&single, 0x51_0001));
        single.shutdown();

        // The same session on a cluster peer ships its snapshot.
        let clustered = Arc::new(Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        }));
        let mut config = crate::cluster::ClusterConfig::new(0, vec!["127.0.0.1:1".to_string(); 2]);
        config.takeover = Duration::from_secs(3600);
        let cluster = Cluster::start(Arc::clone(&clustered), config);
        assert!(snapshot_shipped(&clustered, 0x51_0002));
        cluster.stop();
    }

    #[test]
    fn ad_hoc_source_sessions_work() {
        let server = Server::start(ServerConfig::default());
        let s = server
            .open(
                ProgramSpec::Source("main = foldp (\\k acc -> acc + k) 0 Keyboard.lastPressed"),
                None,
                None,
                false,
            )
            .unwrap();
        server
            .event(s.session, "Keyboard.lastPressed", PlainValue::Int(10))
            .unwrap();
        server
            .event(s.session, "Keyboard.lastPressed", PlainValue::Int(32))
            .unwrap();
        assert_eq!(server.query(s.session).unwrap().value, PlainValue::Int(42));
        server.shutdown();
    }
}
