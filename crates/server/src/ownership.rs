//! The ownership core of cluster mode: the replica store, the takeover
//! routes, the epoch fences and when each peer was last heard. Every
//! decision about which peer owns a (session, epoch) is made here.
//!
//! [`Ownership`] takes no lock, reads no clock and does no I/O: each
//! method takes the caller's `now` and returns the [`Effect`]s to carry
//! out, in order, once the caller (`Cluster`, or a test) has unlocked.
//!
//! A peer silent past the takeover deadline is declared dead on every
//! tick until its sessions are adopted. With three or more peers, adoption
//! needs a strict majority (this peer included) heard within half the
//! deadline, continuously for a full deadline: a minority side never
//! adopts, a refused takeover is retried once the majority is back, and at
//! a heal a peer whose heartbeats arrive a tick late is not adopted.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use elm_runtime::{JournalEntry, WireSnapshot};

use crate::cluster::{place, ClusterConfig};
use crate::protocol::{self, SessionMeta};

/// One session another peer asked us to back up.
#[derive(Debug)]
pub(crate) struct ReplicaSession {
    /// The peer currently hosting the session (who ships to us).
    pub(crate) from: usize,
    pub(crate) meta: SessionMeta,
    pub(crate) snapshot: Option<Box<WireSnapshot>>,
    pub(crate) through: u64,
    /// Trace id covered by the shipped snapshot (0 = untraced).
    pub(crate) snapshot_trace: u64,
    pub(crate) entries: Vec<JournalEntry>,
    /// Highest ownership epoch seen on accepted traffic for this
    /// session (0 until any stamped verb arrives).
    pub(crate) epoch: u64,
}

impl ReplicaSession {
    /// Trace id of the newest replicated state: the last journal entry's
    /// trace, falling back to the snapshot's when the suffix is empty.
    pub(crate) fn last_trace(&self) -> u64 {
        self.entries
            .last()
            .map(|e| e.trace)
            .unwrap_or(self.snapshot_trace)
    }
}

/// The replica side of replication: shipped metadata, snapshots, and
/// contiguous journal suffixes, keyed by session.
#[derive(Debug, Default)]
pub(crate) struct ReplicaStore {
    pub(crate) sessions: HashMap<u64, ReplicaSession>,
    /// Appends dropped for arriving out of order or for unknown
    /// sessions. A nonzero gap count means a takeover of the affected
    /// session would diverge; the chaos verdict would catch it.
    pub(crate) gaps: u64,
}

impl ReplicaStore {
    pub(crate) fn upsert_meta(&mut self, from: usize, session: u64, meta: SessionMeta, epoch: u64) {
        match self.sessions.get_mut(&session) {
            Some(r) => {
                r.from = from;
                r.meta = meta;
                r.epoch = r.epoch.max(epoch);
            }
            None => {
                self.sessions.insert(
                    session,
                    ReplicaSession {
                        from,
                        meta,
                        snapshot: None,
                        through: 0,
                        snapshot_trace: 0,
                        entries: Vec::new(),
                        epoch,
                    },
                );
            }
        }
    }

    /// Accepts `entry` only if it extends the stored suffix contiguously
    /// (`through + 1` when empty). Duplicates are ignored silently; gaps
    /// and unknown sessions are dropped and counted.
    pub(crate) fn append(&mut self, session: u64, entry: JournalEntry) -> bool {
        let Some(r) = self.sessions.get_mut(&session) else {
            self.gaps += 1;
            return false;
        };
        let expected = r.entries.last().map(|e| e.seq + 1).unwrap_or(r.through + 1);
        if entry.seq < expected {
            return true; // duplicate of already-replicated state
        }
        if entry.seq > expected {
            self.gaps += 1;
            return false;
        }
        r.entries.push(entry);
        true
    }

    pub(crate) fn snapshot(
        &mut self,
        session: u64,
        through: u64,
        wire: Option<Box<WireSnapshot>>,
        trace: u64,
    ) {
        if let (Some(r), Some(w)) = (self.sessions.get_mut(&session), wire) {
            r.snapshot = Some(w);
            r.through = through;
            r.snapshot_trace = trace;
            r.entries.retain(|e| e.seq > through);
        }
    }

    pub(crate) fn drop_session(&mut self, session: u64) {
        self.sessions.remove(&session);
    }

    /// Removes and returns every session `peer` was hosting — the adopt
    /// set when `peer` is declared dead.
    pub(crate) fn drain_from(&mut self, peer: usize) -> Vec<(u64, ReplicaSession)> {
        let ids: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, r)| r.from == peer)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| (id, self.sessions.remove(&id).expect("just listed")))
            .collect()
    }
}

/// What an [`Ownership`] step asks its caller to do after unlocking, in order.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send this line to every other peer.
    Broadcast(String),
    /// Adopt a dead peer's session: (dead peer, session, replica, epoch).
    Adopt(usize, u64, ReplicaSession, u64),
    /// Close our copy of a moved session: (session, addr, trace, epoch).
    CloseMoved(u64, String, u64, u64),
    /// Record on the flight recorder, as `Blackbox::record` takes it.
    Record(&'static str, u64, u64, u64, usize, String),
    /// Count and record a fenced write: (session, seq, trace, writer, detail).
    Fenced(u64, u64, u64, usize, String),
    /// Say why a takeover was refused, once per silence episode.
    Log(String),
    /// A takeover of (dead peer, sessions) is over: dump it, and time it
    /// from its `Broadcast`.
    Dump(usize, Vec<u64>),
}

/// Where a peer stands since it was last heard.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    Up,
    /// Declared dead, takeover refused and logged; retried every tick.
    Refused,
    /// Declared dead and its sessions adopted.
    Adopted,
}

/// The ownership state of one peer (module docs).
#[derive(Debug)]
pub(crate) struct Ownership {
    me: usize,
    /// Every peer's advertised address, this one's included.
    peers: Vec<String>,
    takeover: Duration,
    fencing: bool,
    pub(crate) replicas: ReplicaStore,
    /// Session → (address, takeover trace, epoch) overrides learned from
    /// `takeover` broadcasts; consulted before static placement when
    /// redirecting clients. The trace is the takeover's last-replicated
    /// trace id and the epoch the adopter's new ownership epoch, both
    /// echoed on `moved` redirects so an epoch-aware client can tell a
    /// mere wrong-peer redirect from a genuine ownership handoff.
    routes: HashMap<u64, (String, u64, u64)>,
    /// Session → highest ownership epoch this peer has witnessed, from
    /// its own adoptions and from `takeover` broadcasts. The fence:
    /// stamped peer traffic below the recorded epoch is rejected.
    pub(crate) fences: HashMap<u64, u64>,
    heard: Vec<Instant>,
    status: Vec<Status>,
    /// Since when a strict majority has been heard recently.
    quorum_since: Option<Instant>,
}

impl Ownership {
    /// A core for `config`'s group that counts every peer heard at `now`.
    pub(crate) fn new(config: &ClusterConfig, now: Instant) -> Ownership {
        Ownership {
            me: config.peer_index,
            peers: config.peers.clone(),
            takeover: config.takeover,
            fencing: config.fencing,
            replicas: ReplicaStore::default(),
            routes: HashMap::new(),
            fences: HashMap::new(),
            heard: vec![now; config.peers.len()],
            status: vec![Status::Up; config.peers.len()],
            quorum_since: Some(now),
        }
    }

    /// Notes a line from `from`, another peer.
    pub(crate) fn heard(&mut self, from: usize, now: Instant) {
        self.heard[from] = now;
        self.status[from] = Status::Up;
    }

    /// `Some(fence)` when a write at `epoch` is below the highest epoch
    /// witnessed for `session` (fences first, then the replica's). Epoch
    /// 0, the legacy unfenced stamp, passes, as all does without fencing.
    fn fence_for(&self, session: u64, epoch: u64) -> Option<u64> {
        if !self.fencing || epoch == 0 {
            return None;
        }
        let fence = match self.fences.get(&session) {
            Some(&f) => f,
            None => self.replicas.sessions.get(&session)?.epoch,
        };
        (epoch < fence).then_some(fence)
    }

    /// A streamed `journal-append`: fenced, or appended if contiguous. The
    /// check and the append are one step: no takeover lands in between.
    pub(crate) fn journal_append(
        &mut self,
        from: usize,
        session: u64,
        entry: JournalEntry,
        epoch: u64,
        now: Instant,
    ) -> Option<Effect> {
        self.heard(from, now);
        let (seq, trace) = (entry.seq, entry.trace);
        if let Some(fence) = self.fence_for(session, epoch) {
            let detail = format!("journal-append at stale epoch {epoch} < {fence}");
            return Some(Effect::Fenced(session, seq, trace, from, detail));
        }
        if !self.replicas.append(session, entry) {
            return None;
        }
        if let Some(r) = self.replicas.sessions.get_mut(&session) {
            r.epoch = r.epoch.max(epoch);
        }
        Some(Effect::Record(
            "replicated",
            session,
            seq,
            trace,
            from,
            String::new(),
        ))
    }

    /// A streamed `snapshot-ship`: a metadata upsert, a snapshot install
    /// or a drop, fenced like appends.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn snapshot_ship(
        &mut self,
        from: usize,
        session: u64,
        meta: SessionMeta,
        snapshot: Option<Box<WireSnapshot>>,
        through: u64,
        dropped: bool,
        trace: u64,
        epoch: u64,
        now: Instant,
    ) -> Option<Effect> {
        self.heard(from, now);
        if let Some(fence) = self.fence_for(session, epoch) {
            let verb = ["snapshot-ship", "snapshot-drop"][usize::from(dropped)];
            let detail = format!("{verb} at stale epoch {epoch} < {fence}");
            return Some(Effect::Fenced(session, through, trace, from, detail));
        }
        if dropped {
            self.replicas.drop_session(session);
        } else {
            self.replicas.upsert_meta(from, session, meta, epoch);
            self.replicas.snapshot(session, through, snapshot, trace);
        }
        None
    }

    /// A `takeover` broadcast: routes the sessions to `addr`, raises their
    /// fences, forgets their replica state (the adopter re-replicates) and
    /// closes any local copy, demoting a zombie primary to redirects.
    pub(crate) fn takeover(
        &mut self,
        from: usize,
        addr: &str,
        sessions: &[u64],
        traces: &[u64],
        epochs: &[u64],
        now: Instant,
    ) -> Vec<Effect> {
        self.heard(from, now);
        let mut effects = Vec::new();
        for (i, &sid) in sessions.iter().enumerate() {
            let trace = traces.get(i).copied().unwrap_or(0);
            let epoch = epochs.get(i).copied().unwrap_or(0);
            let fence = self.fences.get(&sid).copied().unwrap_or(0);
            // Broadcasts arrive on independent links and can be reordered.
            // One below the witnessed epoch is stale: it must not repoint
            // the route, drop state the newer owner feeds, or close a newer
            // copy. Epoch 0 legacy broadcasts carry no order: they apply.
            if epoch > 0 && epoch < fence {
                let detail = format!("ignored stale takeover by {addr} at epoch {epoch} < {fence}");
                let stale = Effect::Record("takeover-stale", sid, 0, trace, from, detail);
                effects.push(stale);
                continue;
            }
            self.routes.insert(sid, (addr.to_string(), trace, epoch));
            self.replicas.drop_session(sid);
            if epoch > 0 {
                self.fences.insert(sid, epoch);
            }
            let detail = format!("adopted by {addr} at epoch {epoch}");
            effects.push(Effect::Record("takeover", sid, 0, trace, from, detail));
            effects.push(Effect::CloseMoved(sid, addr.to_string(), trace, epoch));
        }
        effects
    }

    /// Where a session lives, if elsewhere: takeover routes, then who ships
    /// it to us, then placement; with the route's trace and owner's epoch.
    pub(crate) fn redirect_for(&self, session: u64) -> Option<(String, u64, u64)> {
        if let Some((addr, trace, epoch)) = self.routes.get(&session) {
            return Some((addr.clone(), *trace, *epoch));
        }
        if let Some(r) = self.replicas.sessions.get(&session) {
            return Some((self.peers[r.from].clone(), 0, r.epoch));
        }
        let (primary, _) = place(session, self.peers.len());
        (primary != self.me).then(|| (self.peers[primary].clone(), 0, 0))
    }

    /// How long a strict majority has been heard: this peer, and each peer
    /// heard within half the deadline and not declared dead since. `None`
    /// while there is none; a group under three always counts as one.
    fn quorum_held(&mut self, now: Instant) -> Option<Duration> {
        let n = self.peers.len();
        let recent = |p: usize| now.saturating_duration_since(self.heard[p]) < self.takeover / 2;
        let up = (0..n)
            .filter(|&p| p == self.me || (self.status[p] == Status::Up && recent(p)))
            .count();
        if n >= 3 && up * 2 <= n {
            self.quorum_since = None;
        } else {
            self.quorum_since.get_or_insert(now);
        }
        self.quorum_since.map(|s| now.saturating_duration_since(s))
    }

    /// One monitor tick: declares dead each silent peer not yet adopted.
    pub(crate) fn tick(&mut self, now: Instant) -> Vec<Effect> {
        self.quorum_held(now); // keeps `quorum_since` current on quiet ticks
        let mut effects = Vec::new();
        for p in 0..self.peers.len() {
            let silent = now.saturating_duration_since(self.heard[p]) > self.takeover;
            if p != self.me && silent && self.status[p] != Status::Adopted {
                effects.extend(self.declare_dead(p, now));
            }
        }
        effects
    }

    /// Declares `peer` dead: if the quorum rule (module docs) allows,
    /// adopts what it replicated to us and broadcasts the takeover.
    ///
    /// A peer that can reach at most half the group is on the minority
    /// side of a partition, and adopting there would fork session history
    /// (both sides serving the same session). It keeps its replica state
    /// untouched instead, so the majority side's takeover, and the backlog
    /// that flushes at heal, land on intact state. Two-peer groups always
    /// adopt: with n = 2 there is no majority to defer to. Reachability is
    /// heartbeat *recency*, not whether a peer's own timer has fired yet:
    /// one partition cuts several links at once, the timers expire
    /// milliseconds apart, and counting a peer up while its timer is
    /// pending would let the isolated side adopt through the gap.
    pub(crate) fn declare_dead(&mut self, peer: usize, now: Instant) -> Vec<Effect> {
        let logged = self.status[peer] == Status::Refused;
        self.status[peer] = Status::Refused;
        if self.quorum_held(now).is_none_or(|h| h < self.takeover) {
            let why = "a majority of the group was not heard for a whole deadline";
            let log = Effect::Log(format!("peer {peer} silent, but {why}; no takeover"));
            return if logged { Vec::new() } else { vec![log] };
        }
        self.status[peer] = Status::Adopted;
        let victims = self.replicas.drain_from(peer);
        if victims.is_empty() {
            return Vec::new();
        }
        let sids: Vec<u64> = victims.iter().map(|(id, _)| *id).collect();
        // The victim's last trace per session rides the broadcast, so the
        // survivors' `moved` redirects stitch the failover into one trace.
        let traces: Vec<u64> = victims.iter().map(|(_, r)| r.last_trace()).collect();
        // Adoption bumps each session past its old owner's epoch; the
        // raised fence rejects the zombie's backlog when the wire heals.
        let epochs: Vec<u64> = victims.iter().map(|(_, r)| r.epoch.max(1) + 1).collect();
        for (sid, &epoch) in sids.iter().zip(&epochs) {
            let f = self.fences.entry(*sid).or_insert(0);
            *f = (*f).max(epoch);
            self.routes.remove(sid);
        }
        // Broadcast *before* adopting: survivors must drop their stale
        // replica state before the adoption's re-replication stream
        // (meta, re-basing snapshot, appends) reaches them on the same
        // FIFO link, or the drop would erase what that stream established.
        let addr = &self.peers[self.me];
        let line = protocol::takeover_request(self.me, addr, &sids, &traces, &epochs);
        let mut effects = vec![Effect::Broadcast(line)];
        for ((sid, r), (&trace, &epoch)) in victims.into_iter().zip(traces.iter().zip(&epochs)) {
            let detail = format!("peer dead, adopting at epoch {epoch}");
            let record = Effect::Record("takeover", sid, r.through, trace, peer, detail);
            effects.push(record);
            effects.push(Effect::Adopt(peer, sid, r, epoch));
        }
        effects.push(Effect::Dump(peer, sids));
        effects
    }

    /// What the `elm_cluster_*` scrape reads of the core, copied out so
    /// the caller renders it after unlocking.
    pub(crate) fn scrape(&self, now: Instant) -> Scrape {
        let ages: Vec<Duration> = self
            .heard
            .iter()
            .map(|h| now.saturating_duration_since(*h))
            .collect();
        let up = (ages.iter().enumerate())
            .map(|(p, age)| p == self.me || *age < self.takeover)
            .collect();
        Scrape {
            ages,
            up,
            replicas: self.replicas.sessions.len(),
            gaps: self.replicas.gaps,
            epochs: self.fences.iter().map(|(&s, &e)| (s, e)).collect(),
        }
    }
}

/// The ownership core's part of one scrape ([`Ownership::scrape`]).
pub(crate) struct Scrape {
    /// Per peer: how long since it was last heard.
    pub(crate) ages: Vec<Duration>,
    /// Per peer: heard inside the takeover deadline (this peer always).
    pub(crate) up: Vec<bool>,
    /// Sessions backed up here for other peers.
    pub(crate) replicas: usize,
    /// Replicated appends dropped for arriving out of order.
    pub(crate) gaps: u64,
    /// (session, epoch) of every fence, unordered.
    pub(crate) epochs: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests;
