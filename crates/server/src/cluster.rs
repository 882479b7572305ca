//! Cluster mode: cross-process journal replication and replica failover.
//!
//! N `elm-server` processes form a peer group over the same NDJSON wire
//! the data plane uses. Each session's key places it on a **primary**
//! peer and a designated **replica** peer via rendezvous hashing
//! ([`place`]); the primary streams the session's write-ahead journal to
//! the replica (`journal-append`) and periodically ships a state snapshot
//! (`snapshot-ship`) so the replica's replay suffix stays bounded by the
//! snapshot interval — the cluster form of the repo's recovery invariant.
//!
//! Failover follows from the paper's Theorem 1: a session's state is a
//! deterministic function of its applied event sequence, so a replica
//! that restores the last shipped snapshot and replays the journal suffix
//! *is* the session. When a peer's heartbeats go silent past the takeover
//! deadline, the monitor declares it dead, adopts every session it backed
//! up for that peer, and broadcasts a `takeover` so surviving peers
//! redirect clients (`{"error":"moved","peer":…}`) to the new home.
//!
//! Replication is asynchronous and fire-and-forget (the peer verbs
//! produce no reply lines), so the primary's data plane never blocks on a
//! peer. The shard thread that applies an event renders its
//! `journal-append` line itself and stages it in the session
//! ([`Staged`]) without taking a cluster lock, and no other thread sits
//! between a shard and the link. The shard group-commits: once its oldest
//! staged line is one tick old it queues every session's lines on the
//! replica links (reached through the server's [`ReplicationTap`]), and
//! each peer's outbound link thread takes every queued line per wakeup
//! and sends them with one write. Under steady traffic the link thread
//! and the replica's shard thus wake once per tick, not once per event.
//! (On the replica an inbound link is a connection like any other: its
//! home shard applies the streamed peer verbs inline, taking the
//! ownership lock briefly. That is safe because no code holds that lock
//! while it calls the server, so nothing holding it waits on a shard.)
//! The cost is a bounded window of un-replicated suffix at the kill
//! point (the link's own delay plus up to one tick of staging and one
//! command burst); clients recover it exactly-once by reading the
//! adopted session's `last_seq` high-water mark and re-sending their
//! trace from `last_seq + 1`.
//!
//! Who owns which session is decided by the sans-IO core in
//! `ownership.rs` (replica store, takeover routes, epoch fences, heartbeat
//! times). [`Cluster`] holds it behind its only mutex: each entry point
//! locks once, makes one call, unlocks, and only then carries out the
//! effects that call returned. No lock order exists, and no guard is held
//! across the server, the flight recorder, a peer link or stderr.

use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use elm_runtime::{Counter, Gauge, JournalEntry, Registry as MetricsRegistry, WireSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ownership::{Effect, Ownership};
use crate::protocol::{self, Request, SessionMeta};
use crate::server::Server;

/// Static description of the peer group, shared (index-aligned) by every
/// member.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This process's index into `peers`.
    pub peer_index: usize,
    /// Advertised listen addresses of every peer, including this one.
    pub peers: Vec<String>,
    /// How often idle replication links send a liveness heartbeat.
    pub heartbeat: Duration,
    /// How long a peer may stay silent before it is declared dead and its
    /// replicated sessions are adopted.
    pub takeover: Duration,
    /// Epoch fencing: stale-epoch peer writes are rejected and counted.
    /// Disabling this (the `--no-fencing` regression mode) re-opens the
    /// split-brain window the partition chaos verdict exists to catch.
    pub fencing: bool,
    /// Optional seeded network-fault proxy interposed on every outbound
    /// peer link (delay/drop/duplicate/reorder plus scheduled partition
    /// windows). `None` leaves the wire untouched.
    pub netfault: Option<Arc<crate::netfault::NetFault>>,
}

impl ClusterConfig {
    /// A config with the default 100 ms heartbeat / 1 s takeover timing,
    /// fencing on, and no network faults.
    pub fn new(peer_index: usize, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            peer_index,
            peers,
            heartbeat: Duration::from_millis(100),
            takeover: Duration::from_millis(1000),
            fencing: true,
            netfault: None,
        }
    }
}

/// A late-bound handle on the replication links, threaded into every
/// [`Session`] and shard at server start. Until a [`Cluster`] installs its
/// peer links, callers find none and build no replication message at
/// all: a single-process server pays one atomic load per applied event
/// and nothing else.
///
/// [`Session`]: crate::session::Session
#[derive(Debug, Default)]
pub struct ReplicationTap {
    links: OnceLock<Arc<PeerLinks>>,
}

impl ReplicationTap {
    /// A disconnected tap (no links until `install`).
    pub fn new() -> Arc<ReplicationTap> {
        Arc::new(ReplicationTap::default())
    }

    /// The installed replication links; `None` outside cluster mode.
    pub(crate) fn links(&self) -> Option<&PeerLinks> {
        self.links.get().map(|l| &**l)
    }

    fn install(&self, links: Arc<PeerLinks>) {
        let _ = self.links.set(links);
    }
}

/// The sending half of replication: one line queue per peer, drained by
/// that peer's outbound link thread. Shards and sessions render the peer
/// verbs themselves and stage or queue them here; nothing in this path
/// takes a lock, so a shard never waits on the cluster layer. The
/// counters are the ones `elm_cluster_*` reports.
#[derive(Debug)]
pub(crate) struct PeerLinks {
    /// This process's peer index: the `from` of every rendered verb.
    me: usize,
    /// Pre-rendered NDJSON lines queued per peer (`None` at our own
    /// index), in batches. A dead peer's queue grows until it returns —
    /// acceptable for run-length-bounded workloads, and honest:
    /// replication to a dead peer *is* unbounded deferred work.
    outbound: Vec<Option<Sender<Vec<String>>>>,
    /// Replication lines staged in sessions or queued on a link and not
    /// yet taken by the link thread, across all peers (replication lag).
    lag: AtomicI64,
    journal_replicated: Counter,
    snapshots_shipped: Counter,
}

/// Replication lines a session has rendered but not yet queued on its
/// replica link. The shard queues every session's lines once its oldest
/// staged line is one tick old (group commit): every queueing can wake
/// the link thread, whose write wakes the replica's shard, and on a busy
/// host each wake costs the shard a preemption. Staged lines already
/// count toward the replication lag gauge.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    lines: Vec<String>,
    appends: u64,
    snapshots: u64,
}

impl Staged {
    /// True when no line waits for the next flush.
    pub(crate) fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl PeerLinks {
    fn new(me: usize, outbound: Vec<Option<Sender<Vec<String>>>>) -> PeerLinks {
        PeerLinks {
            me,
            outbound,
            lag: AtomicI64::new(0),
            journal_replicated: Counter::new(),
            snapshots_shipped: Counter::new(),
        }
    }

    /// The peer this process replicates `key` to: the highest-scored
    /// peer other than itself. For a session this peer is primary for,
    /// that is exactly the designated replica from [`place`].
    fn replica_target(&self, key: u64) -> Option<usize> {
        (0..self.outbound.len())
            .filter(|&p| p != self.me)
            .max_by_key(|&p| rendezvous_score(key, p))
    }

    /// Queues `lines` on `peer`'s link. They must already count toward
    /// the lag; the count is given back when they cannot be queued.
    fn queue(&self, peer: Option<usize>, lines: Vec<String>) -> bool {
        let n = lines.len() as i64;
        let queued = match peer.and_then(|p| self.outbound.get(p)) {
            Some(Some(tx)) => tx.send(lines).is_ok(),
            _ => false,
        };
        if !queued {
            self.lag.fetch_sub(n, Ordering::Relaxed);
        }
        queued
    }

    /// Counts `lines` toward the lag and queues them on the replica link
    /// of `key` at once, bypassing staging.
    fn ship(&self, key: u64, lines: Vec<String>) -> bool {
        self.lag.fetch_add(lines.len() as i64, Ordering::Relaxed);
        self.queue(self.replica_target(key), lines)
    }

    fn broadcast(&self, line: &str) {
        for (peer, link) in self.outbound.iter().enumerate() {
            if link.is_some() {
                self.lag.fetch_add(1, Ordering::Relaxed);
                self.queue(Some(peer), vec![line.to_string()]);
            }
        }
    }

    /// Ships a session's metadata when it opens or is adopted, so the
    /// replica can re-instantiate the program on takeover.
    pub(crate) fn ship_open(&self, session: u64, meta: &SessionMeta, epoch: u64) {
        let line = protocol::snapshot_ship_request(self.me, session, meta, None, 0, 0, epoch);
        self.ship(session, vec![line]);
    }

    /// Renders the `journal-append` line for one journaled event. Built
    /// before the event is applied; staged with [`PeerLinks::stage_append`]
    /// only once it demonstrably applied.
    pub(crate) fn append_line(&self, session: u64, entry: &JournalEntry, epoch: u64) -> String {
        protocol::journal_append_request(self.me, session, entry, epoch)
    }

    /// Stages a line from [`PeerLinks::append_line`].
    pub(crate) fn stage_append(&self, staged: &mut Staged, line: String) {
        staged.lines.push(line);
        staged.appends += 1;
        self.lag.fetch_add(1, Ordering::Relaxed);
    }

    /// Stages a snapshot ship so the replica can truncate its replay
    /// suffix. `wire` is `None` when some value could not cross the wire;
    /// the replica then stays on full-journal replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage_snapshot(
        &self,
        staged: &mut Staged,
        session: u64,
        meta: &SessionMeta,
        wire: Option<&WireSnapshot>,
        through: u64,
        trace: u64,
        epoch: u64,
    ) {
        staged.lines.push(protocol::snapshot_ship_request(
            self.me, session, meta, wire, through, trace, epoch,
        ));
        staged.snapshots += 1;
        self.lag.fetch_add(1, Ordering::Relaxed);
    }

    /// Queues everything `session` has staged on its replica link, in
    /// order, as one batch.
    pub(crate) fn flush(&self, session: u64, staged: &mut Staged) {
        if staged.lines.is_empty() {
            return;
        }
        let lines = std::mem::take(&mut staged.lines);
        if self.queue(self.replica_target(session), lines) {
            self.journal_replicated.add(staged.appends);
            self.snapshots_shipped.add(staged.snapshots);
        }
        staged.appends = 0;
        staged.snapshots = 0;
    }

    /// Tells the replica the session closed, so it forgets it.
    pub(crate) fn ship_drop(&self, session: u64, epoch: u64) {
        self.ship(
            session,
            vec![protocol::snapshot_drop_request(self.me, session, epoch)],
        );
    }
}

/// Rendezvous (highest-random-weight) placement: returns the
/// `(primary, replica)` peer indices for a session key. Every peer
/// computes the same answer from the shared peer list, so placement
/// needs no coordination; removing a peer only moves the keys it owned.
/// With a single peer the replica degenerates to the primary.
pub fn place(key: u64, n_peers: usize) -> (usize, usize) {
    assert!(n_peers > 0, "placement over an empty peer group");
    if n_peers == 1 {
        return (0, 0);
    }
    let mut scored: Vec<(u64, usize)> = (0..n_peers)
        .map(|p| (rendezvous_score(key, p), p))
        .collect();
    scored.sort_unstable_by(|a, b| b.cmp(a));
    (scored[0].1, scored[1].1)
}

/// splitmix64-style finalizer over `(key, peer)`, matching the mixing
/// discipline `FaultPlan::rng` uses so adjacent keys decorrelate.
fn rendezvous_score(key: u64, peer: usize) -> u64 {
    let mut z = key
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(peer as u64 + 1))
        .wrapping_add(0x6c62_272e_07bb_0142);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cluster layer of one `elm-server` process: the outbound peer
/// links, the failure monitor, and the ownership core behind its one lock.
pub struct Cluster {
    server: Arc<Server>,
    config: ClusterConfig,
    /// The outbound peer links, shared with the shards through the
    /// server's [`ReplicationTap`].
    links: Arc<PeerLinks>,
    own: Mutex<Ownership>,
    stop: AtomicBool,
    takeovers: Counter,
    fenced: Counter,
    takeover_last_ms: Gauge,
}

impl Cluster {
    /// Starts the cluster layer: installs the peer links in `server`'s
    /// replication tap, spawns one outbound link thread per peer and the
    /// failure monitor, and attaches itself for `moved` redirects.
    pub fn start(server: Arc<Server>, config: ClusterConfig) -> Arc<Cluster> {
        assert!(
            config.peer_index < config.peers.len(),
            "peer index {} outside peer list of {}",
            config.peer_index,
            config.peers.len()
        );
        let me = config.peer_index;
        let n = config.peers.len();
        let mut outbound = Vec::with_capacity(n);
        let mut receivers = Vec::new();
        for peer in 0..n {
            if peer == me {
                outbound.push(None);
            } else {
                let (tx, rx) = mpsc::channel::<Vec<String>>();
                outbound.push(Some(tx));
                receivers.push((peer, rx));
            }
        }
        let links = Arc::new(PeerLinks::new(me, outbound));
        let cluster = Arc::new(Cluster {
            server: Arc::clone(&server),
            links: Arc::clone(&links),
            own: Mutex::new(Ownership::new(&config, Instant::now())),
            stop: AtomicBool::new(false),
            takeovers: Counter::new(),
            fenced: Counter::new(),
            takeover_last_ms: Gauge::new(),
            config,
        });

        server.replication_tap().install(links);
        server.attach_cluster(&cluster);

        for (peer, rx) in receivers {
            let cluster = Arc::clone(&cluster);
            thread::Builder::new()
                .name(format!("elm-link-{peer}"))
                .spawn(move || run_outbound(cluster, peer, rx))
                .expect("spawning a replication link thread");
        }
        {
            let cluster = Arc::clone(&cluster);
            thread::Builder::new()
                .name("elm-monitor".to_string())
                .spawn(move || run_monitor(cluster))
                .expect("spawning the cluster monitor thread");
        }
        cluster
    }

    /// Stops the monitor (outbound links die with their channels).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// This peer's advertised address.
    pub fn my_addr(&self) -> &str {
        &self.config.peers[self.config.peer_index]
    }

    /// One call on the ownership core, under its lock, at the current time.
    fn step<R>(&self, f: impl FnOnce(&mut Ownership, Instant) -> R) -> R {
        let mut own = self.own.lock().expect("ownership lock");
        f(&mut own, Instant::now())
    }

    /// Steps a peer verb and runs its effects, or returns false when `from`
    /// names no other peer: verbs arrive on the public client port.
    fn peer_verb<E>(&self, from: usize, f: impl FnOnce(&mut Ownership, Instant) -> E) -> bool
    where
        E: IntoIterator<Item = Effect>,
    {
        let valid = from < self.config.peers.len() && from != self.config.peer_index;
        if valid {
            let effects = self.step(f);
            self.apply(effects);
        }
        valid
    }

    /// Carries out the effects of one ownership step, in order.
    fn apply(&self, effects: impl IntoIterator<Item = Effect>) {
        let (bb, server) = (crate::blackbox::blackbox(), &self.server);
        let mut started = None; // of the takeover under way, timed from its broadcast
        for effect in effects {
            match effect {
                Effect::Broadcast(line) => {
                    started = Some(Instant::now());
                    self.links.broadcast(&line);
                }
                Effect::Adopt(peer, session, r, epoch) => {
                    let snapshot = r.snapshot.map(|w| (r.through, *w));
                    match server.adopt(session, &r.meta, snapshot, r.entries, epoch) {
                        Ok(seq) => {
                            self.takeovers.inc();
                            eprintln!(
                                "cluster: peer {peer} dead, adopted session {session} at seq \
                                 {seq} epoch {epoch}"
                            );
                        }
                        Err(e) => eprintln!("cluster: takeover of session {session} failed: {e}"),
                    }
                }
                // The takeover wins: if we still host the session (we were
                // partitioned, not dead), our copy yields. This is the
                // demotion path: a zombie primary hearing a takeover at a
                // higher epoch gives the session up and serves redirects.
                Effect::CloseMoved(session, addr, trace, epoch) => {
                    server.close_moved(session, &addr, trace, epoch);
                }
                Effect::Record(kind, session, seq, trace, peer, detail) => {
                    bb.record(kind, session, seq, trace, peer as i64, &detail);
                }
                Effect::Fenced(session, seq, trace, peer, detail) => {
                    self.fenced.inc();
                    bb.record("fenced", session, seq, trace, peer as i64, &detail);
                }
                Effect::Log(line) => eprintln!("cluster: {line}"),
                // Post-mortem: dump what the adopter knows of the victim's
                // sessions (replicated seqs, trace ids, the adoption itself).
                Effect::Dump(peer, sessions) => {
                    let me = self.config.peer_index;
                    let path = format!("BLACKBOX_peer{me}_adopts_peer{peer}.ndjson");
                    bb.dump_records_to(std::path::Path::new(&path), &bb.snapshot_for(&sessions));
                    eprintln!("cluster: wrote flight-recorder dump {path}");
                    if let Some(started) = started.take() {
                        let ms = started.elapsed().as_millis() as i64;
                        self.takeover_last_ms.set(ms);
                    }
                }
            }
        }
    }

    /// Handles one peer verb arriving on the wire. Returns the reply line
    /// of `hello`, `place` and `takeover`; the streamed verbs
    /// (`journal-append`, `snapshot-ship`, `heartbeat`) are silent, as is
    /// any request that is not a peer verb.
    pub fn handle_request(&self, request: Request) -> Option<String> {
        match request {
            Request::Hello { from, addr } => Some(self.handle_hello(from, &addr)),
            Request::Place { key } => Some(self.handle_place(key)),
            Request::Takeover {
                from,
                addr,
                sessions,
                traces,
                epochs,
            } => Some(self.handle_takeover(from, &addr, &sessions, &traces, &epochs)),
            Request::JournalAppend {
                from,
                session,
                entry,
                epoch,
            } => {
                self.handle_journal_append(from, session, entry, epoch);
                None
            }
            Request::SnapshotShip {
                from,
                session,
                meta,
                snapshot,
                through,
                dropped,
                trace,
                epoch,
            } => {
                self.handle_snapshot_ship(
                    from, session, meta, snapshot, through, dropped, trace, epoch,
                );
                None
            }
            Request::Heartbeat { from } => {
                self.handle_heartbeat(from);
                None
            }
            _ => None,
        }
    }

    /// Handles a peer `hello`: confirms the link.
    pub fn handle_hello(&self, from: usize, _addr: &str) -> String {
        match self.peer_verb(from, |o, now| {
            o.heard(from, now);
            None
        }) {
            true => protocol::hello_line(self.config.peer_index),
            false => protocol::err_line(&format!("unknown peer {from}")),
        }
    }

    /// Handles `place`: answers with the key's primary and replica.
    pub fn handle_place(&self, key: u64) -> String {
        let (primary, replica) = place(key, self.config.peers.len());
        protocol::place_line(
            key,
            (primary, &self.config.peers[primary]),
            (replica, &self.config.peers[replica]),
        )
    }

    /// Handles a streamed `journal-append`. Silent: returns no reply (an
    /// error reply would desynchronize the sender's framing), so a fenced
    /// append is rejected receiver-side: counted, recorded, dropped.
    pub fn handle_journal_append(
        &self,
        from: usize,
        session: u64,
        entry: JournalEntry,
        epoch: u64,
    ) {
        self.peer_verb(from, |o, now| {
            o.journal_append(from, session, entry, epoch, now)
        });
    }

    /// Handles a streamed `snapshot-ship` (metadata upsert, snapshot
    /// install, or drop). Silent: returns no reply; stale-epoch ships are
    /// fenced receiver-side like appends.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_snapshot_ship(
        &self,
        from: usize,
        session: u64,
        meta: SessionMeta,
        snapshot: Option<Box<WireSnapshot>>,
        through: u64,
        dropped: bool,
        trace: u64,
        epoch: u64,
    ) {
        self.peer_verb(from, |o, now| {
            o.snapshot_ship(
                from, session, meta, snapshot, through, dropped, trace, epoch, now,
            )
        });
    }

    /// Handles a streamed `heartbeat`. Silent: returns no reply.
    pub fn handle_heartbeat(&self, from: usize) {
        self.peer_verb(from, |o, now| {
            o.heard(from, now);
            None
        });
    }

    /// Handles a `takeover` broadcast: records the adopted sessions' new
    /// home for `moved` redirects and their new ownership epochs in the
    /// fence map, forgets any replica state for them (their new primary
    /// re-replicates from scratch), and — split-brain resolution — closes
    /// any of them this peer still hosts live, with a `Moved` update
    /// pointing subscribers at the adopter. That close is the demotion
    /// path: a zombie primary hearing a takeover at a higher epoch yields
    /// the session and serves redirects only.
    pub fn handle_takeover(
        &self,
        from: usize,
        addr: &str,
        sessions: &[u64],
        traces: &[u64],
        epochs: &[u64],
    ) -> String {
        match self.peer_verb(from, |o, now| {
            o.takeover(from, addr, sessions, traces, epochs, now)
        }) {
            true => protocol::takeover_ack_line(sessions.len()),
            false => protocol::err_line(&format!("unknown peer {from}")),
        }
    }

    /// Where a session the server does not host lives, if the cluster
    /// knows: takeover routes first, then the replica store's record of
    /// who ships to us, then static placement. The second element is the
    /// takeover trace id for route-table hits (0 otherwise) and the third
    /// the owner's epoch where known (0 otherwise), both echoed on
    /// `moved` redirects.
    pub fn redirect_for(&self, session: u64) -> Option<(String, u64, u64)> {
        self.step(|o, _| o.redirect_for(session))
    }

    /// Renders the `elm_cluster_*` metric families as Prometheus text.
    /// `sessions_primary` is the number of sessions this server hosts
    /// live (the caller already collected it for the core families).
    pub fn render_metrics(&self, sessions_primary: i64) -> String {
        let own = self.step(|o, now| o.scrape(now));
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "elm_cluster_takeovers_total",
            "Sessions adopted from peers declared dead.",
            &[],
            self.takeovers.get(),
        );
        for (i, up) in own.up.iter().enumerate() {
            reg.gauge(
                "elm_cluster_peer_up",
                "1 while the peer's heartbeats are inside the takeover deadline.",
                &[("peer", &i.to_string())],
                i64::from(*up),
            );
        }
        // Heartbeat recency per peer: rises during a partition long
        // before the takeover deadline fires, so operators see the
        // onset, not just the verdict.
        for (i, age) in own.ages.iter().enumerate() {
            if i != self.config.peer_index {
                reg.gauge(
                    "elm_cluster_heartbeat_age_ms",
                    "Milliseconds since the last line heard from the peer.",
                    &[("peer", &i.to_string())],
                    age.as_millis() as i64,
                );
            }
        }
        reg.gauge(
            "elm_cluster_sessions_primary",
            "Sessions this peer hosts live.",
            &[],
            sessions_primary,
        );
        reg.gauge(
            "elm_cluster_sessions_replica",
            "Sessions this peer backs up for others.",
            &[],
            own.replicas as i64,
        );
        reg.counter(
            "elm_cluster_journal_replicated_total",
            "Journal entries shipped to replica peers.",
            &[],
            self.links.journal_replicated.get(),
        );
        reg.counter(
            "elm_cluster_snapshots_shipped_total",
            "State snapshots shipped to replica peers.",
            &[],
            self.links.snapshots_shipped.get(),
        );
        reg.counter(
            "elm_cluster_replication_gaps_total",
            "Replicated appends dropped for arriving out of order.",
            &[],
            own.gaps,
        );
        reg.counter(
            "elm_cluster_fenced_total",
            "Stale-epoch peer writes rejected by the ownership fence.",
            &[],
            self.fenced.get(),
        );
        let mut fenced = own.epochs;
        fenced.sort_unstable();
        for (sid, epoch) in fenced {
            reg.gauge(
                "elm_cluster_epoch",
                "Highest ownership epoch witnessed per session (present once a takeover fences it).",
                &[("session", &sid.to_string())],
                epoch as i64,
            );
        }
        reg.gauge(
            "elm_cluster_replication_lag_entries",
            "Outbound replication lines staged in shards or queued on peer links, not yet taken by a link.",
            &[],
            self.links.lag.load(Ordering::Relaxed),
        );
        reg.gauge(
            "elm_cluster_takeover_last_ms",
            "Duration of the most recent takeover (adoption of all sessions), in milliseconds.",
            &[],
            self.takeover_last_ms.get(),
        );
        reg.render()
    }

    /// One cluster-wide Prometheus exposition: fans `{"cmd":"metrics"}`
    /// out to every other peer (short connect/read timeouts so a dead
    /// peer costs at most the timeout), then merges the scrapes with
    /// `peer` labels via [`crate::metrics::federate`]. `local` is this
    /// peer's own full exposition, collected by the caller.
    pub fn federated_metrics(&self, local: &str) -> String {
        let me = self.config.peer_index;
        let mut scrapes: Vec<(usize, Option<String>)> = Vec::new();
        for (i, addr) in self.config.peers.iter().enumerate() {
            if i == me {
                scrapes.push((i, Some(local.to_string())));
                continue;
            }
            scrapes.push((i, fetch_peer_metrics(addr)));
        }
        crate::metrics::federate(&scrapes)
    }
}

/// Fetches one peer's exposition text over a throwaway connection, or
/// `None` if the peer is unreachable or replies malformed. Timeouts are
/// short: federation is a scrape path, not a consensus path.
fn fetch_peer_metrics(addr: &str) -> Option<String> {
    let addr: std::net::SocketAddr = addr.parse().ok()?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(1500)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"{\"cmd\":\"metrics\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let reply: serde_json::Value = serde_json::from_str(line.trim()).ok()?;
    reply
        .get("metrics")
        .and_then(serde_json::Value::as_str)
        .map(str::to_string)
}

/// One outbound replication link: connects (with jittered exponential
/// backoff), introduces itself with `hello`, then forwards queued lines —
/// sending a `heartbeat` whenever the queue stays idle for a heartbeat
/// interval, so the link doubles as the liveness signal. Each wakeup takes
/// every line queued so far and sends them with one write.
///
/// When a [`crate::netfault::NetFault`] proxy is configured, every line
/// passes through it first, in queue order. A scheduled partition
/// *retains* the lines taken (the loop spins until the window closes), so
/// the queue backs up behind them exactly as it does for a dead peer —
/// FIFO order survives the cut, and the backlog flushes in order at heal.
/// Random faults (delay, drop, duplicate, reorder) shape individual
/// deliveries; a delayed line holds back the lines taken with it.
fn run_outbound(cluster: Arc<Cluster>, peer: usize, rx: Receiver<Vec<String>>) {
    let me = cluster.config.peer_index;
    let addr = cluster.config.peers[peer].clone();
    let hello = format!("{}\n", protocol::hello_request(me, cluster.my_addr()));
    let netfault = cluster.config.netfault.clone();
    let mut rng =
        StdRng::seed_from_u64(0x0063_6c75_7374_6572_u64 ^ ((me as u64) << 8) ^ peer as u64);
    let mut attempt = 0u32;
    let mut conn: Option<TcpStream> = None;
    let mut lines: Vec<String> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match rx.recv_timeout(cluster.config.heartbeat) {
            Ok(batch) => {
                lines.extend(batch);
                rx.try_iter().for_each(|batch| lines.extend(batch));
                cluster
                    .links
                    .lag
                    .fetch_sub(lines.len() as i64, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => lines.push(protocol::heartbeat_request(me)),
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let mut shaped = false;
        loop {
            if cluster.stop.load(Ordering::Relaxed) {
                return;
            }
            if let Some(nf) = &netfault {
                if nf.partitioned(me, peer) {
                    // Retain the lines and retry after the window; also
                    // drop the connection so the heal starts with a
                    // fresh hello'd link.
                    conn = None;
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
            if conn.is_none() {
                match TcpStream::connect(&addr) {
                    Ok(mut stream) => {
                        let _ = stream.set_nodelay(true);
                        attempt = 0;
                        // Introduce the link; replies (the hello ack) are
                        // never read — this direction only streams.
                        if stream.write_all(hello.as_bytes()).is_err() {
                            continue;
                        }
                        conn = Some(stream);
                    }
                    Err(_) => {
                        attempt = attempt.saturating_add(1);
                        let cap = 10u64.saturating_mul(1u64 << attempt.min(7)).min(1000);
                        thread::sleep(Duration::from_millis(rng.gen_range(cap / 2..=cap.max(1))));
                        continue;
                    }
                }
            }
            if !shaped {
                // Each line meets the fault plan exactly once, in order;
                // a failed write resends the shaped bytes.
                let mut delay = Duration::ZERO;
                let mut push = |line: &str| {
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                };
                for line in lines.drain(..) {
                    match &netfault {
                        Some(nf) => {
                            let delivery = nf.process(me, peer, &line);
                            delay += delivery.delay;
                            delivery.lines.iter().for_each(|l| push(l));
                        }
                        None => push(&line),
                    }
                }
                shaped = true;
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
            }
            let stream = conn.as_mut().expect("connected");
            if buf.is_empty() || stream.write_all(&buf).is_ok() {
                buf.clear();
                break;
            }
            conn = None; // reconnect and resend these lines
        }
    }
}

/// The failure monitor: one [`Ownership::tick`] per heartbeat interval,
/// which declares silent peers dead and retries refused takeovers.
fn run_monitor(cluster: Arc<Cluster>) {
    loop {
        thread::sleep(cluster.config.heartbeat);
        if cluster.stop.load(Ordering::Relaxed) {
            return;
        }
        let effects = cluster.step(Ownership::tick);
        cluster.apply(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::ReplicaStore;
    use crate::protocol::BackpressurePolicy;
    use elm_runtime::PlainValue;
    use std::collections::HashMap;

    fn meta() -> SessionMeta {
        SessionMeta {
            program: "counter".to_string(),
            source: None,
            queue: 64,
            policy: BackpressurePolicy::Block,
        }
    }

    fn entry(seq: u64) -> JournalEntry {
        traced_entry(seq, 0)
    }

    impl Cluster {
        /// Declares `peer` dead now, as the monitor does for a peer
        /// silent past the deadline.
        fn declare_dead(&self, peer: usize) {
            let effects = self.step(|o, now| o.declare_dead(peer, now));
            self.apply(effects);
        }

        /// Sessions adopted from dead peers, cumulatively.
        fn takeovers_total(&self) -> u64 {
            self.takeovers.get()
        }

        /// Stale-epoch peer writes rejected by the fence, cumulatively.
        fn fenced_total(&self) -> u64 {
            self.fenced.get()
        }
    }

    fn traced_entry(seq: u64, trace: u64) -> JournalEntry {
        JournalEntry {
            seq,
            input: "Mouse.clicks".to_string(),
            value: PlainValue::Unit,
            trace,
        }
    }

    #[test]
    fn placement_is_deterministic_and_spreads_keys() {
        let mut owned = [0usize; 3];
        for key in 0..300u64 {
            let (p, r) = place(key, 3);
            assert_eq!((p, r), place(key, 3));
            assert_ne!(p, r, "primary and replica must differ for key {key}");
            assert!(p < 3 && r < 3);
            owned[p] += 1;
        }
        // Rendezvous hashing balances within loose bounds.
        for (peer, n) in owned.iter().enumerate() {
            assert!(
                (50..=150).contains(n),
                "peer {peer} owns {n} of 300 keys: {owned:?}"
            );
        }
        // A single-peer group degenerates to self-replication.
        assert_eq!(place(7, 1), (0, 0));
    }

    #[test]
    fn replica_store_keeps_a_contiguous_suffix_past_snapshots() {
        let mut store = ReplicaStore::default();

        // Appends before the meta ship are gaps, not state.
        assert!(!store.append(5, entry(1)));
        assert_eq!(store.gaps, 1);

        store.upsert_meta(1, 5, meta(), 1);
        for seq in 1..=4 {
            assert!(store.append(5, entry(seq)));
        }
        // Duplicate: ignored without damage. Gap: dropped and counted.
        assert!(store.append(5, entry(2)));
        assert!(!store.append(5, entry(7)));
        assert_eq!(store.gaps, 2);
        assert_eq!(store.sessions[&5].entries.len(), 4);

        // A snapshot through 3 truncates the suffix to entry 4.
        store.snapshot(5, 3, Some(Box::new(WireSnapshot::default())), 0);
        let r = &store.sessions[&5];
        assert_eq!(r.through, 3);
        assert_eq!(r.entries.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4]);
        // The suffix keeps extending from the truncated tail.
        assert!(store.append(5, entry(5)));

        store.drop_session(5);
        assert!(store.sessions.is_empty());
    }

    #[test]
    fn replica_tracks_the_last_replicated_trace_across_snapshots() {
        let mut store = ReplicaStore::default();
        store.upsert_meta(1, 9, meta(), 1);
        // No entries, no snapshot: nothing to continue from.
        assert_eq!(store.sessions[&9].last_trace(), 0);

        store.append(9, traced_entry(1, 0xa1));
        store.append(9, traced_entry(2, 0xa2));
        assert_eq!(store.sessions[&9].last_trace(), 0xa2);

        // A snapshot that covers the whole suffix leaves the snapshot's
        // own trace as the continuation point.
        store.snapshot(9, 2, Some(Box::new(WireSnapshot::default())), 0xa2);
        assert_eq!(store.sessions[&9].entries.len(), 0);
        assert_eq!(store.sessions[&9].last_trace(), 0xa2);

        // Entries past the snapshot win over the snapshot trace — the
        // takeover must continue the *newest* replicated trace.
        store.append(9, traced_entry(3, 0xa3));
        assert_eq!(store.sessions[&9].last_trace(), 0xa3);
    }

    #[test]
    fn replica_store_drains_by_hosting_peer() {
        let mut store = ReplicaStore::default();
        store.upsert_meta(0, 1, meta(), 1);
        store.upsert_meta(2, 2, meta(), 1);
        store.upsert_meta(0, 3, meta(), 1);
        let mut adopted: Vec<u64> = store.drain_from(0).into_iter().map(|(id, _)| id).collect();
        adopted.sort_unstable();
        assert_eq!(adopted, vec![1, 3]);
        assert_eq!(store.sessions.len(), 1);
        assert!(store.sessions.contains_key(&2));
    }

    #[test]
    fn tap_is_a_no_op_until_installed() {
        let tap = ReplicationTap::new();
        // Uninstalled: no links, so callers build and ship nothing.
        assert!(tap.links().is_none());
        let (tx, rx) = mpsc::channel();
        tap.install(Arc::new(PeerLinks::new(0, vec![None, Some(tx)])));
        tap.links().expect("installed").ship_drop(2, 1);
        match rx.try_recv().as_deref() {
            Ok([line]) if line.contains("\"dropped\":true") && line.contains("\"session\":2") => {}
            other => panic!("expected the installed tap to deliver, got {other:?}"),
        }
    }

    /// What a replica link carried for one session, in order.
    #[derive(Debug, PartialEq)]
    enum Shipped {
        Meta,
        Append(u64),
        Snapshot(u64),
        Drop,
    }

    /// Applies captured replica-link lines to `store` as the replica's
    /// shard would, and returns each session's verbs in arrival order.
    fn replay_link(store: &mut ReplicaStore, lines: &[String]) -> HashMap<u64, Vec<Shipped>> {
        let mut log: HashMap<u64, Vec<Shipped>> = HashMap::new();
        for line in lines {
            match protocol::Request::parse(line).expect("a peer verb") {
                protocol::Request::JournalAppend { session, entry, .. } => {
                    log.entry(session)
                        .or_default()
                        .push(Shipped::Append(entry.seq));
                    store.append(session, entry);
                }
                protocol::Request::SnapshotShip {
                    from,
                    session,
                    meta,
                    snapshot,
                    through,
                    dropped,
                    trace,
                    epoch,
                } => {
                    let verb = if dropped {
                        Shipped::Drop
                    } else if snapshot.is_some() {
                        Shipped::Snapshot(through)
                    } else {
                        Shipped::Meta
                    };
                    log.entry(session).or_default().push(verb);
                    if dropped {
                        store.drop_session(session);
                    } else {
                        store.upsert_meta(from, session, meta, epoch);
                        store.snapshot(session, through, snapshot, trace);
                    }
                }
                other => panic!("unexpected verb on a replica link: {other:?}"),
            }
        }
        log
    }

    #[test]
    fn replication_lag_counts_staged_lines_until_the_link_takes_them() {
        // A bare listener stands in for the replica: the link connects
        // and streams into its backlog; nobody reads.
        let replica = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Arc::new(Server::start(crate::server::ServerConfig::default()));
        let peers = vec![
            "127.0.0.1:1".to_string(),
            replica.local_addr().unwrap().to_string(),
        ];
        let mut config = ClusterConfig::new(0, peers);
        config.takeover = Duration::from_secs(3600);
        let cluster = Cluster::start(server, config);
        let lag = || -> i64 {
            cluster
                .render_metrics(0)
                .lines()
                .find_map(|l| l.strip_prefix("elm_cluster_replication_lag_entries "))
                .expect("the lag gauge is rendered")
                .parse()
                .unwrap()
        };
        assert_eq!(lag(), 0);
        let mut staged = Staged::default();
        let line = cluster.links.append_line(5, &entry(1), 1);
        cluster.links.stage_append(&mut staged, line);
        assert_eq!(lag(), 1, "a staged line is lag");
        cluster.links.flush(5, &mut staged);
        let deadline = Instant::now() + Duration::from_secs(5);
        while lag() != 0 {
            assert!(Instant::now() < deadline, "the link never took the line");
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cluster.links.journal_replicated.get(), 1);
        cluster.stop();
    }

    #[test]
    fn staged_appends_reach_the_replica_before_the_sessions_drop() {
        use crate::registry::ProgramSpec;
        let server = Server::start(crate::server::ServerConfig {
            shards: 1,
            session: crate::session::SessionConfig {
                restart: crate::supervisor::RestartPolicy {
                    max_restarts: 0,
                    ..crate::supervisor::RestartPolicy::default()
                },
                ..crate::session::SessionConfig::default()
            },
            ..crate::server::ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        server
            .replication_tap()
            .install(Arc::new(PeerLinks::new(0, vec![None, Some(tx)])));
        let open = |key, program| {
            server
                .open_with_key(key, ProgramSpec::Builtin(program), None, None, false)
                .unwrap()
        };
        let clicks = |n| vec![("Mouse.clicks".to_string(), PlainValue::Unit); n];

        // Each session is torn down within microseconds of its batch,
        // while its appends are still staged (a flush waits one tick).
        // Closed: the close pumps, flushes, then ships the drop.
        open(1, "counter");
        server.batch(1, &clicks(5)).unwrap();
        server.close(1).unwrap();
        // Demoted: a takeover close flushes and ships no drop.
        open(2, "counter");
        server.batch(2, &clicks(4)).unwrap();
        assert!(server.close_moved(2, "127.0.0.1:9", 0, 2));
        // Evicted: the batch's last event exhausts the restart budget,
        // and the eviction sweep follows the very pump that staged it.
        open(3, "crashy");
        let xs = [1, 2, -5].map(|x| ("Mouse.x".to_string(), PlainValue::Int(x)));
        server.batch(3, &xs).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.query(3).is_ok() {
            assert!(Instant::now() < deadline, "crashy session never evicted");
            thread::sleep(Duration::from_millis(2));
        }
        server.shutdown();

        let lines: Vec<String> = rx.try_iter().flatten().collect();
        let mut store = ReplicaStore::default();
        let log = replay_link(&mut store, &lines);
        let appends = |n: u64| (1..=n).map(Shipped::Append);
        let want = |n, dropped: bool| -> Vec<Shipped> {
            std::iter::once(Shipped::Meta)
                .chain(appends(n))
                .chain(dropped.then_some(Shipped::Drop))
                .collect()
        };
        assert_eq!(log[&1], want(5, true), "closed session");
        assert_eq!(log[&2], want(4, false), "demoted session");
        assert_eq!(log[&3], want(3, true), "evicted session");
        assert_eq!(store.gaps, 0);
    }

    #[test]
    fn a_quiet_shard_still_ships_its_staged_suffix() {
        use crate::registry::ProgramSpec;
        let listeners: Vec<std::net::TcpListener> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let group: Vec<(Arc<Server>, Arc<Cluster>)> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let server = Arc::new(Server::start(crate::server::ServerConfig::default()));
                let mut config = ClusterConfig::new(i, peers.clone());
                config.takeover = Duration::from_secs(3600);
                let cluster = Cluster::start(Arc::clone(&server), config);
                let srv = Arc::clone(&server);
                thread::spawn(move || crate::net::serve(srv, listener));
                (server, cluster)
            })
            .collect();
        let (primary, cluster) = &group[0];
        let replica = &group[1].1;
        let key = (0..).find(|&k| place(k, 2).0 == 0).unwrap();
        primary
            .open_with_key(key, ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap();
        primary
            .event(key, "Mouse.clicks", PlainValue::Unit)
            .unwrap();
        let applied = primary.query(key).unwrap().last_seq;
        assert_eq!(applied, 1);

        // No further traffic: only the shard's own deadline can flush.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let replicated = cluster.links.journal_replicated.get();
            let held = replica
                .own
                .lock()
                .unwrap()
                .replicas
                .sessions
                .get(&key)
                .map_or(0, |r| r.entries.len() as u64);
            if replicated == applied && held == applied {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "stranded suffix: {replicated} shipped, {held} held, {applied} applied"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let text = cluster.render_metrics(1);
        assert!(
            text.contains(&format!("elm_cluster_journal_replicated_total {applied}")),
            "{text}"
        );
        group.iter().for_each(|(_, c)| c.stop());
    }

    #[test]
    fn peers_scraping_each_other_at_once_each_see_the_other() {
        let listeners: Vec<std::net::TcpListener> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let group: Vec<Arc<Cluster>> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let server = Arc::new(Server::start(crate::server::ServerConfig::default()));
                let mut config = ClusterConfig::new(i, peers.clone());
                config.takeover = Duration::from_secs(3600);
                let cluster = Cluster::start(Arc::clone(&server), config);
                thread::spawn(move || crate::net::serve(server, listener));
                cluster
            })
            .collect();
        // Each peer's federated scrape asks the other for its exposition
        // while the other is running its own federated scrape.
        for round in 0..3 {
            let start = Arc::new(std::sync::Barrier::new(2));
            let scrapes: Vec<_> = peers
                .iter()
                .map(|addr| {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let start = Arc::clone(&start);
                    thread::spawn(move || {
                        start.wait();
                        stream
                            .write_all(b"{\"cmd\":\"metrics\",\"scope\":\"cluster\"}\n")
                            .unwrap();
                        let mut line = String::new();
                        BufReader::new(stream).read_line(&mut line).unwrap();
                        let reply: serde_json::Value = serde_json::from_str(&line).unwrap();
                        let text = reply.get("metrics").and_then(serde_json::Value::as_str);
                        text.unwrap().to_string()
                    })
                })
                .collect();
            for (me, scrape) in scrapes.into_iter().enumerate() {
                let text = scrape.join().unwrap();
                let other = format!("elm_cluster_federation_peer_up{{peer=\"{}\"}} 1", 1 - me);
                assert!(text.contains(&other), "round {round}, peer {me}:\n{text}");
            }
        }
        group.iter().for_each(|c| c.stop());
    }

    /// A cluster whose peers point at an unroutable port: outbound links
    /// just back off, which is all these receiver-side tests need.
    fn offline_cluster(n: usize) -> Arc<Cluster> {
        let server = Arc::new(Server::start(crate::server::ServerConfig::default()));
        let mut config = ClusterConfig::new(0, vec!["127.0.0.1:1".to_string(); n]);
        config.takeover = Duration::from_secs(3600); // monitor never fires
        Cluster::start(server, config)
    }

    #[test]
    fn pipelined_requests_for_remote_sessions_get_moved_redirects_in_order() {
        use std::io::{BufRead, BufReader, Write};
        // Peer 0 serves the wire; peer 1 is unreachable, so every session
        // placed on it is redirected there.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let me = listener.local_addr().unwrap().to_string();
        let remote_peer = "127.0.0.1:1".to_string();
        let server = Arc::new(Server::start(crate::server::ServerConfig {
            shards: 2,
            ..crate::server::ServerConfig::default()
        }));
        let mut config = ClusterConfig::new(0, vec![me.clone(), remote_peer.clone()]);
        config.takeover = Duration::from_secs(3600);
        let cluster = Cluster::start(Arc::clone(&server), config);
        let srv = Arc::clone(&server);
        thread::spawn(move || crate::net::serve(srv, listener));
        let hosted = (0..).find(|&k| place(k, 2).0 == 0).unwrap();
        let remote = (0..).find(|&k| place(k, 2).0 == 1).unwrap();

        let stream = TcpStream::connect(&me).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<serde_json::Value>(line.trim()).unwrap()
        };
        writer
            .write_all(
                format!("{{\"cmd\":\"open\",\"program\":\"counter\",\"session\":{hosted}}}\n")
                    .as_bytes(),
            )
            .unwrap();
        assert_eq!(recv().get("ok"), Some(&serde_json::Value::Bool(true)));

        // Events and batches for both sessions, interleaved, in one write.
        let mut text = String::new();
        let mut want = Vec::new();
        for i in 0..64u64 {
            let session = if i % 3 == 0 { hosted } else { remote };
            if i % 2 == 0 {
                text.push_str(&format!(
                    "{{\"cmd\":\"event\",\"session\":{session},\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}\n"
                ));
            } else {
                text.push_str(&format!(
                    "{{\"cmd\":\"batch\",\"session\":{session},\"events\":[{{\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}]}}\n"
                ));
            }
            want.push(session);
        }
        writer.write_all(text.as_bytes()).unwrap();
        for (i, session) in want.into_iter().enumerate() {
            let reply = recv();
            let field = |k: &str| reply.get(k).cloned();
            if session == hosted {
                assert_eq!(
                    field("ok"),
                    Some(serde_json::Value::Bool(true)),
                    "reply {i}: {reply:?}"
                );
            } else {
                assert_eq!(
                    field("error").as_ref().and_then(serde_json::Value::as_str),
                    Some("moved"),
                    "reply {i}: {reply:?}"
                );
                assert_eq!(
                    field("peer").as_ref().and_then(serde_json::Value::as_str),
                    Some(remote_peer.as_str()),
                    "reply {i}: {reply:?}"
                );
                assert!(
                    matches!(field("session"), Some(serde_json::Value::I64(n)) if n as u64 == remote)
                        || matches!(field("session"), Some(serde_json::Value::U64(n)) if n == remote),
                    "reply {i}: {reply:?}"
                );
            }
        }
        // Every hosted event applied: 11 events and 11 one-event batches.
        assert_eq!(server.query(hosted).unwrap().value, PlainValue::Int(22),);
        cluster.stop();
    }

    #[test]
    fn stale_epoch_traffic_is_fenced_and_counted() {
        let cluster = offline_cluster(2);

        // Peer 1 replicates session 5 at epoch 1: accepted.
        cluster.handle_snapshot_ship(1, 5, meta(), None, 0, false, 0, 1);
        cluster.handle_journal_append(1, 5, entry(1), 1);
        assert_eq!(cluster.fenced_total(), 0);

        // A witnessed takeover fences the session at epoch 2. The stale
        // owner's flushed backlog is rejected and counted — and does NOT
        // land in the gap counter (it is a fence, not a stream tear).
        cluster.handle_takeover(1, "127.0.0.1:9", &[5], &[0], &[2]);
        cluster.handle_journal_append(1, 5, entry(2), 1);
        cluster.handle_snapshot_ship(1, 5, meta(), None, 2, false, 0, 1);
        cluster.handle_snapshot_ship(1, 5, meta(), None, 0, true, 0, 1);
        assert_eq!(cluster.fenced_total(), 3);
        assert_eq!(cluster.own.lock().unwrap().replicas.gaps, 0);

        // Traffic at or above the fence passes; the new owner's stream
        // re-establishes the replica.
        cluster.handle_snapshot_ship(1, 5, meta(), None, 0, false, 0, 2);
        cluster.handle_journal_append(1, 5, entry(1), 2);
        assert_eq!(cluster.fenced_total(), 3);
        assert_eq!(cluster.own.lock().unwrap().replicas.sessions[&5].epoch, 2);

        // Epoch 0 is the legacy unfenced stamp: never rejected.
        cluster.handle_journal_append(1, 5, entry(2), 0);
        assert_eq!(cluster.fenced_total(), 3);

        let text = cluster.render_metrics(0);
        assert!(text.contains("elm_cluster_fenced_total 3"), "{text}");
        assert!(
            text.contains("elm_cluster_epoch{session=\"5\"} 2"),
            "{text}"
        );
        assert!(text.contains("elm_cluster_heartbeat_age_ms"), "{text}");
        cluster.stop();
    }

    #[test]
    fn stale_takeover_broadcast_cannot_overwrite_a_newer_route() {
        let cluster = offline_cluster(3);
        // Peer 1 adopts session 5 at epoch 3; the route points at it.
        cluster.handle_takeover(1, "127.0.0.1:31", &[5], &[7], &[3]);
        assert_eq!(
            cluster.redirect_for(5),
            Some(("127.0.0.1:31".to_string(), 7, 3))
        );
        // A delayed broadcast of the *previous* takeover (epoch 2, a
        // different adopter) arrives out of order on another link: it
        // must not repoint the route at the demoted adopter or lower
        // the fence.
        cluster.handle_takeover(2, "127.0.0.1:32", &[5], &[8], &[2]);
        assert_eq!(
            cluster.redirect_for(5),
            Some(("127.0.0.1:31".to_string(), 7, 3))
        );
        assert_eq!(cluster.own.lock().unwrap().fences[&5], 3);
        // A newer broadcast still applies.
        cluster.handle_takeover(2, "127.0.0.1:32", &[5], &[9], &[4]);
        assert_eq!(
            cluster.redirect_for(5),
            Some(("127.0.0.1:32".to_string(), 9, 4))
        );
        cluster.stop();
    }

    #[test]
    fn fencing_disabled_lets_stale_epochs_tear_the_stream() {
        let cluster = {
            let server = Arc::new(Server::start(crate::server::ServerConfig::default()));
            let mut config = ClusterConfig::new(0, vec!["127.0.0.1:1".to_string(); 2]);
            config.takeover = Duration::from_secs(3600);
            config.fencing = false;
            Cluster::start(server, config)
        };
        cluster.handle_snapshot_ship(1, 5, meta(), None, 0, false, 0, 1);
        cluster.handle_journal_append(1, 5, entry(1), 1);
        cluster.handle_takeover(1, "127.0.0.1:9", &[5], &[0], &[2]);
        // Unfenced, the zombie's backlog hits the dropped session and
        // registers as a replication gap — the divergence signal the
        // partition verdict (and this regression) exists to catch.
        cluster.handle_journal_append(1, 5, entry(2), 1);
        assert_eq!(cluster.fenced_total(), 0);
        assert_eq!(cluster.own.lock().unwrap().replicas.gaps, 1);
        cluster.stop();
    }

    #[test]
    fn peer_verbs_that_name_no_other_peer_are_dropped() {
        let cluster = offline_cluster(2);
        // Peer verbs arrive on the public client port. An out-of-range
        // `from` must not reach the replica store: the next redirect
        // would index the peer list with it and panic under the lock.
        for bad in [99, 0] {
            cluster.handle_snapshot_ship(bad, 5, meta(), None, 0, false, 0, 1);
            cluster.handle_journal_append(bad, 5, entry(1), 1);
            cluster.handle_heartbeat(bad);
            assert!(cluster.handle_hello(bad, "x").contains("unknown peer"));
            let reply = cluster.handle_takeover(bad, "127.0.0.1:9", &[5], &[0], &[2]);
            assert!(reply.contains("unknown peer"), "{reply}");
        }
        let stored = |own: &Ownership| (own.replicas.sessions.len(), own.replicas.gaps);
        assert_eq!(stored(&cluster.own.lock().unwrap()), (0, 0));
        assert_eq!(cluster.fenced_total(), 0);
        let placed = (place(5, 2).0 == 1).then(|| ("127.0.0.1:1".to_string(), 0, 0));
        assert_eq!(cluster.redirect_for(5), placed);

        // Replication and scrapes still work.
        cluster.handle_snapshot_ship(1, 5, meta(), None, 0, false, 0, 1);
        cluster.handle_journal_append(1, 5, entry(1), 1);
        assert_eq!(
            cluster.redirect_for(5),
            Some(("127.0.0.1:1".to_string(), 0, 1))
        );
        let text = cluster.render_metrics(0);
        assert!(text.contains("elm_cluster_sessions_replica 1"), "{text}");
        assert!(
            text.contains("elm_cluster_replication_gaps_total 0"),
            "{text}"
        );
        cluster.stop();
    }

    #[test]
    fn minority_side_refuses_takeover_and_keeps_replica_state() {
        let cluster = offline_cluster(3);
        cluster.handle_snapshot_ship(2, 7, meta(), None, 0, false, 0, 1);

        // First silence: 2 of 3 reachable, the majority side. But a
        // majority must hold for a whole takeover deadline (3600 s here)
        // before it adopts, so this one is refused on hold time. The
        // majority path, and the 1-of-3 count below, are each checked for
        // their own reason in `ownership::tests`, on explicit clocks.
        cluster.declare_dead(1);
        assert_eq!(cluster.takeovers_total(), 0);

        // Second silence: only this peer reachable (1 of 3) — minority
        // side of a partition. The takeover must be refused and the
        // replica state for session 7 kept intact, so the majority's
        // re-replication (or the heal) finds it contiguous.
        cluster.declare_dead(2);
        assert_eq!(cluster.takeovers_total(), 0);
        let text = cluster.render_metrics(0);
        assert!(text.contains("elm_cluster_sessions_replica 1"), "{text}");
        assert!(cluster.own.lock().unwrap().fences.is_empty());
        cluster.stop();
    }
}
