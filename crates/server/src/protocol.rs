//! The wire vocabulary: requests, replies, and pushed updates.
//!
//! The protocol is newline-delimited JSON (NDJSON) over TCP. Every request
//! is one JSON object on one line with a `"cmd"` field; every request gets
//! exactly one reply line with an `"ok"` field. A `subscribe` additionally
//! streams `{"update": …}` lines as the session's output signal changes.
//!
//! Values on the wire reuse [`PlainValue`]'s serde shape (externally
//! tagged): `{"Int":5}`, `"Unit"`, `{"Pair":[{"Int":1},{"Int":2}]}` — the
//! same encoding `elm-runtime` traces use on disk, so recorded traces can
//! be replayed over the wire verbatim.

use elm_runtime::{
    HistogramSnapshot, JournalEntry, NodeTimingSnapshot, PlainSpanTree, PlainValue, StatsSnapshot,
    TrapKind, WireSnapshot,
};
use serde_json::Value as Json;

/// One client → server command, decoded from a JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Instantiate a program as a new session. Exactly one of `program`
    /// (a registry name) or `source` (FElm source text) must be set.
    Open {
        /// Builtin program name from the registry.
        program: Option<String>,
        /// FElm source to compile (`main = …`).
        source: Option<String>,
        /// Ingress queue capacity override.
        queue: Option<usize>,
        /// Backpressure policy override.
        policy: Option<BackpressurePolicy>,
        /// Attach a causal tracer + per-node timing histograms to the
        /// session (`"observe":true`). Off by default: untraced sessions
        /// pay no observability overhead.
        observe: bool,
        /// Client-chosen session id (cluster mode). When set, the session
        /// is created under exactly this id — the open fails if the id is
        /// already hosted — so ids stay unique across a peer group without
        /// coordination. When absent the server allocates the next id.
        session: Option<u64>,
    },
    /// One input event for a session.
    Event {
        /// Target session.
        session: u64,
        /// Input signal name, e.g. `"Mouse.x"`.
        input: String,
        /// The new value.
        value: PlainValue,
        /// Client-supplied causal trace id (0 = untraced). Journaled and
        /// replicated with the event, so the same id identifies it on
        /// every peer it crosses — including after a failover.
        trace: u64,
    },
    /// Many input events for a session, enqueued in order.
    Batch {
        /// Target session.
        session: u64,
        /// `(input, value)` pairs in delivery order.
        events: Vec<(String, PlainValue)>,
    },
    /// Read a session's current output value and queue depth.
    Query {
        /// Target session.
        session: u64,
    },
    /// Stream the session's output changes as `{"update": …}` lines.
    Subscribe {
        /// Target session.
        session: u64,
    },
    /// Per-session (with `session`) or global (without) counters.
    Stats {
        /// Restrict to one session.
        session: Option<u64>,
    },
    /// Prometheus-text exposition of every server metric family. The same
    /// text is served to HTTP clients that send `GET /metrics`. With
    /// `"scope":"cluster"` (or `GET /metrics?federate=1`) the receiving
    /// peer fans out to the whole group and returns one federated
    /// exposition with `peer` labels.
    Metrics {
        /// True for the cluster-federated scope.
        cluster: bool,
    },
    /// Stream the flight recorder's current contents as NDJSON — the same
    /// records a panic or takeover dumps to disk, readable live.
    Blackbox,
    /// Stream the session's completed span trees as `{"trace": …}` lines.
    /// Requires the session to have been opened with `"observe":true`.
    Trace {
        /// Target session.
        session: u64,
    },
    /// Read a session's hosted program: its FElm source (when it was
    /// compiled from source — builtin felm programs included) and the
    /// graph's structural fingerprint, so any observed failure is
    /// reproducible from wire output alone.
    Describe {
        /// Target session.
        session: u64,
    },
    /// Tear a session down.
    Close {
        /// Target session.
        session: u64,
    },
    /// Peer verb: a cluster peer introduces itself on a fresh replication
    /// connection. Replied to (unlike the streaming peer verbs), so the
    /// sender can confirm the link before pipelining appends.
    Hello {
        /// The sender's peer index within the shared `--peers` list.
        from: usize,
        /// The sender's advertised listen address.
        addr: String,
    },
    /// Ask where a session key lives. Any peer answers identically
    /// (rendezvous hashing is deterministic in the shared peer list), so
    /// clients can ask whichever peer they reach first.
    Place {
        /// The session key to place.
        key: u64,
    },
    /// Peer verb: replicate one journal entry for a session this peer
    /// backs up. Streamed fire-and-forget: produces **no reply line**.
    JournalAppend {
        /// The sender's peer index.
        from: usize,
        /// The replicated session.
        session: u64,
        /// The journaled event, exactly as the primary applied it.
        entry: JournalEntry,
        /// The sender's ownership epoch for the session (0 = a pre-epoch
        /// sender; accepted for compatibility). Receivers fence the
        /// append when the epoch is below the highest they have seen.
        epoch: u64,
    },
    /// Peer verb: session metadata plus (optionally) a state snapshot.
    /// Sent at open (no snapshot yet), after every primary-side snapshot
    /// (bounding the replica's replay suffix), and at close
    /// (`dropped:true`). Streamed fire-and-forget: **no reply line**.
    SnapshotShip {
        /// The sender's peer index.
        from: usize,
        /// The replicated session.
        session: u64,
        /// How to re-instantiate the program on takeover.
        meta: SessionMeta,
        /// State through `through`, when the primary has snapshotted.
        snapshot: Option<Box<WireSnapshot>>,
        /// The sequence number the snapshot covers (0 = none yet).
        through: u64,
        /// True when the primary closed the session: forget the replica.
        dropped: bool,
        /// Trace id of the last event folded into the snapshot (0 when
        /// untraced): a resumed session's first recovery span can point
        /// back at the trace that produced the state it resumed from.
        trace: u64,
        /// The sender's ownership epoch for the session (0 = pre-epoch
        /// sender). Stale-epoch ships — including `dropped:true`, which
        /// would otherwise erase the new owner's replica — are fenced.
        epoch: u64,
    },
    /// Peer verb: liveness signal on an otherwise-idle replication link.
    /// Streamed fire-and-forget: **no reply line**.
    Heartbeat {
        /// The sender's peer index.
        from: usize,
    },
    /// Peer verb: the sender has declared a peer dead and adopted these
    /// sessions. Receivers record the new routes (for `moved` redirects)
    /// and close any of the sessions they still host live (split-brain
    /// resolution: the takeover wins). Replied to.
    Takeover {
        /// The adopting peer's index.
        from: usize,
        /// The adopting peer's advertised listen address.
        addr: String,
        /// The adopted session ids.
        sessions: Vec<u64>,
        /// Per-session trace id of the last replicated event (parallel to
        /// `sessions`, 0 = untraced/unknown). Receivers echo it on
        /// `moved` redirects so a client's retry joins the same trace the
        /// takeover continued.
        traces: Vec<u64>,
        /// Per-session ownership epoch the adopter now serves under
        /// (parallel to `sessions`, 0 = pre-epoch sender). Receivers
        /// record it as the fence: any later traffic for the session at a
        /// lower epoch is a zombie's and is rejected.
        epochs: Vec<u64>,
    },
}

/// How to re-instantiate a replicated session's program on takeover.
/// Rides on [`Request::SnapshotShip`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionMeta {
    /// Resolved program name (`"<source>"` for ad-hoc source).
    pub program: String,
    /// FElm source, when the program was compiled from source. Builtin
    /// native graphs replicate by name instead.
    pub source: Option<String>,
    /// Ingress queue capacity.
    pub queue: usize,
    /// Backpressure policy.
    pub policy: BackpressurePolicy,
}

/// What to do when a session's bounded ingress queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Pump the session synchronously to make room — the producer's
    /// request does not complete until the queue has drained, so a slow
    /// session slows its own clients rather than losing events.
    #[default]
    Block,
    /// Drop the oldest queued event to admit the new one.
    DropOldest,
    /// Replace the newest queued event *on the same input signal* with the
    /// new value (falling back to drop-oldest if no such event is queued).
    /// Right for absolute-state signals like `Mouse.position` where only
    /// the latest value matters.
    Coalesce,
}

impl BackpressurePolicy {
    /// Parses the wire spelling (`"block"`, `"drop-oldest"`, `"coalesce"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(BackpressurePolicy::Block),
            "drop-oldest" | "drop_oldest" => Some(BackpressurePolicy::DropOldest),
            "coalesce" => Some(BackpressurePolicy::Coalesce),
            _ => None,
        }
    }

    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop-oldest",
            BackpressurePolicy::Coalesce => "coalesce",
        }
    }
}

/// What happened to one submitted event at the ingress queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued normally.
    Accepted,
    /// Queued, at the cost of evicting the oldest queued event.
    DroppedOldest,
    /// Merged into an already-queued event on the same input.
    Coalesced,
    /// Not queued: the session's program does not declare this input (or
    /// the session exhausted its restart budget and awaits eviction).
    Ignored,
    /// Not queued: admission control shed the event under overload. The
    /// client should back off for at least `retry_after_ms` before
    /// resubmitting.
    Shed {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl EnqueueOutcome {
    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            EnqueueOutcome::Accepted => "accepted",
            EnqueueOutcome::DroppedOldest => "dropped-oldest",
            EnqueueOutcome::Coalesced => "coalesced",
            EnqueueOutcome::Ignored => "ignored",
            EnqueueOutcome::Shed { .. } => "shed",
        }
    }
}

/// Per-category tally for a batch submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct BatchOutcome {
    /// Events queued (including those that evicted an older event).
    pub accepted: u64,
    /// Older events evicted to admit new ones.
    pub dropped: u64,
    /// Events merged into already-queued ones.
    pub coalesced: u64,
    /// Events skipped for undeclared inputs.
    pub ignored: u64,
    /// Events shed by admission control (batches are admitted
    /// all-or-nothing, so this is 0 or the whole batch).
    pub shed: u64,
    /// Suggested minimum backoff when `shed` is nonzero, else 0.
    pub retry_after_ms: u64,
}

impl BatchOutcome {
    /// Folds one event's outcome into the tally.
    pub fn record(&mut self, outcome: EnqueueOutcome) {
        match outcome {
            EnqueueOutcome::Accepted => self.accepted += 1,
            EnqueueOutcome::DroppedOldest => {
                self.accepted += 1;
                self.dropped += 1;
            }
            EnqueueOutcome::Coalesced => self.coalesced += 1,
            EnqueueOutcome::Ignored => self.ignored += 1,
            EnqueueOutcome::Shed { .. } => self.shed += 1,
        }
    }
}

/// Reply to a successful `open`.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct OpenInfo {
    /// The new session's id.
    pub session: u64,
    /// Resolved program name (`"<source>"` for ad-hoc source).
    pub program: String,
    /// Input signal names the program declares — events on any other
    /// input are ignored (and counted).
    pub inputs: Vec<String>,
    /// The output's initial value, before any event.
    pub initial: PlainValue,
}

/// Reply to `query`.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct QueryInfo {
    /// The session id.
    pub session: u64,
    /// Resolved program name.
    pub program: String,
    /// The output signal's current value.
    pub value: PlainValue,
    /// Events waiting in the ingress queue.
    pub queue_len: u64,
    /// The highest event sequence number applied to the runtime — the
    /// session's durable high-water mark. After a failover, clients resume
    /// by re-sending their trace from `last_seq + 1`.
    pub last_seq: u64,
    /// True once a node ever panicked in this session. The session keeps
    /// running (panicked nodes emit `NoChange` forever, paper §3.3.2);
    /// only an exhausted restart budget evicts it.
    pub poisoned: bool,
    /// The session's current ownership epoch (1 at open, bumped on every
    /// takeover adoption). Clients compare epochs across peers: during a
    /// partition both sides of a split may answer, but only one answers
    /// at the highest epoch — the split-brain probe and the client's
    /// stale-peer detector both key on this field.
    pub epoch: u64,
}

/// Reply to `describe`.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct DescribeInfo {
    /// The session id.
    pub session: u64,
    /// Resolved program name.
    pub program: String,
    /// The FElm source the program was compiled from; `None` for
    /// native-built graphs, which have no textual form.
    pub source: Option<String>,
    /// The signal graph's structural fingerprint (stable within one
    /// server process — enough to check two sessions host the same
    /// compiled shape).
    pub fingerprint: u64,
    /// Input signal names the program declares.
    pub inputs: Vec<String>,
}

/// Ingress-side counters for one session (or summed across sessions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct IngressStats {
    /// Events admitted to the queue.
    pub enqueued: u64,
    /// Oldest-event evictions under pressure.
    pub dropped: u64,
    /// Same-signal merges under pressure.
    pub coalesced: u64,
    /// Events on undeclared inputs.
    pub ignored: u64,
    /// Pump cycles executed.
    pub pumps: u64,
    /// Output changes produced.
    pub events_out: u64,
    /// Current queue depth.
    pub queue_len: u64,
    /// Live subscribers.
    pub subscribers: u64,
}

impl IngressStats {
    /// Counter-wise sum, mirroring [`StatsSnapshot::merged`].
    pub fn merged(&self, other: &IngressStats) -> IngressStats {
        IngressStats {
            enqueued: self.enqueued + other.enqueued,
            dropped: self.dropped + other.dropped,
            coalesced: self.coalesced + other.coalesced,
            ignored: self.ignored + other.ignored,
            pumps: self.pumps + other.pumps,
            events_out: self.events_out + other.events_out,
            queue_len: self.queue_len + other.queue_len,
            subscribers: self.subscribers + other.subscribers,
        }
    }
}

/// Ingest-to-output latency percentiles, in microseconds.
///
/// Computed over a window: each session keeps only its most recent
/// [`crate::session::LATENCY_WINDOW`] samples (1024), so a summary
/// describes recent traffic, and a server-wide summary covers at most
/// that many samples per live session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct LatencySummary {
    /// Samples in the window (at most `LATENCY_WINDOW` per session).
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst in the window.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a sample set (sorts `samples` in place).
    ///
    /// Degenerate sets are well-defined: an empty set yields the all-zero
    /// default (not a panic), and a single-sample set reports that sample
    /// for every percentile and the max.
    pub fn compute(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        // `(len-1) * p` rounds to at most len-1 for p ≤ 1, so `pick` can
        // never index out of bounds — including the single-sample case,
        // where every percentile is samples[0].
        let pick = |p: f64| {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_us: pick(0.50),
            p90_us: pick(0.90),
            p99_us: pick(0.99),
            max_us: samples[samples.len() - 1],
        }
    }
}

/// Crash-recovery counters for one session (or summed across sessions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RecoveryStats {
    /// Supervised restarts performed (crash → snapshot + replay).
    pub restarts: u64,
    /// Journal entries re-applied across all recoveries.
    pub replayed_events: u64,
    /// Longest single-recovery replay — bounded by the snapshot interval.
    pub max_replay: u64,
    /// Snapshots taken.
    pub snapshot_count: u64,
    /// Journal entries currently retained (after snapshot truncation).
    pub journal_len: u64,
    /// Journal appends performed.
    pub journal_appends: u64,
    /// Journal truncations (each snapshot truncates the journal it covers).
    pub journal_truncations: u64,
    /// Journal appends that failed (event applied anyway; an immediate
    /// snapshot re-covers the gap).
    pub journal_failures: u64,
}

impl RecoveryStats {
    /// Counter-wise sum (`max_replay` takes the max), mirroring
    /// [`StatsSnapshot::merged`].
    pub fn merged(&self, other: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            restarts: self.restarts + other.restarts,
            replayed_events: self.replayed_events + other.replayed_events,
            max_replay: self.max_replay.max(other.max_replay),
            snapshot_count: self.snapshot_count + other.snapshot_count,
            journal_len: self.journal_len + other.journal_len,
            journal_appends: self.journal_appends + other.journal_appends,
            journal_truncations: self.journal_truncations + other.journal_truncations,
            journal_failures: self.journal_failures + other.journal_failures,
        }
    }
}

/// Per-kind tally of resource traps: events stopped by the evaluation
/// governor (fuel, allocation, depth, or deadline) and rolled back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct TrapStats {
    /// Events that exhausted their fuel budget.
    pub out_of_fuel: u64,
    /// Events that exhausted their allocation budget.
    pub out_of_memory: u64,
    /// Events that exceeded the evaluation depth budget.
    pub depth_exceeded: u64,
    /// Events that blew their wall-clock deadline.
    pub deadline_exceeded: u64,
}

impl TrapStats {
    /// Folds one trap into the tally.
    pub fn record(&mut self, kind: TrapKind) {
        match kind {
            TrapKind::OutOfFuel => self.out_of_fuel += 1,
            TrapKind::OutOfMemory => self.out_of_memory += 1,
            TrapKind::DepthExceeded => self.depth_exceeded += 1,
            TrapKind::DeadlineExceeded => self.deadline_exceeded += 1,
        }
    }

    /// The tally for one kind.
    pub fn count(&self, kind: TrapKind) -> u64 {
        match kind {
            TrapKind::OutOfFuel => self.out_of_fuel,
            TrapKind::OutOfMemory => self.out_of_memory,
            TrapKind::DepthExceeded => self.depth_exceeded,
            TrapKind::DeadlineExceeded => self.deadline_exceeded,
        }
    }

    /// Traps of any kind.
    pub fn total(&self) -> u64 {
        self.out_of_fuel + self.out_of_memory + self.depth_exceeded + self.deadline_exceeded
    }

    /// Counter-wise sum, mirroring [`StatsSnapshot::merged`].
    pub fn merged(&self, other: &TrapStats) -> TrapStats {
        TrapStats {
            out_of_fuel: self.out_of_fuel + other.out_of_fuel,
            out_of_memory: self.out_of_memory + other.out_of_memory,
            depth_exceeded: self.depth_exceeded + other.depth_exceeded,
            deadline_exceeded: self.deadline_exceeded + other.deadline_exceeded,
        }
    }
}

/// Admission-control counters (per shard, summed for the server view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct AdmissionStats {
    /// Data-plane events offered for admission (`event` + `batch` items).
    pub offered: u64,
    /// Events admitted past the controller.
    pub admitted: u64,
    /// Events shed with a typed `overloaded` reply.
    pub shed: u64,
}

impl AdmissionStats {
    /// Counter-wise sum.
    pub fn merged(&self, other: &AdmissionStats) -> AdmissionStats {
        AdmissionStats {
            offered: self.offered + other.offered,
            admitted: self.admitted + other.admitted,
            shed: self.shed + other.shed,
        }
    }
}

/// Everything the server knows about one session's execution.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct SessionStats {
    /// The session id.
    pub session: u64,
    /// Resolved program name.
    pub program: String,
    /// Scheduler counters from the session's runtime.
    pub runtime: StatsSnapshot,
    /// Ingress-queue counters.
    pub ingress: IngressStats,
    /// Ingest-to-output latency.
    pub latency: LatencySummary,
    /// Mergeable log2 histogram of ingest-to-output latency in
    /// microseconds — the federation-side form of `latency`: snapshots
    /// from different sessions (or different peers) sum bucket-wise,
    /// which percentile summaries cannot. Also feeds the `elm_slo_*`
    /// burn-rate families.
    pub ingest_hist: HistogramSnapshot,
    /// Crash-recovery counters.
    pub recovery: RecoveryStats,
    /// True once a node ever panicked in this session (panicked nodes stay
    /// poisoned across recoveries, per the paper's semantics).
    pub poisoned: bool,
    /// Per-node compute / queue-wait timings, if the session was opened
    /// with `"observe":true` (empty otherwise).
    pub nodes: Vec<NodeTimingSnapshot>,
    /// Trace spans lost to ring-buffer overflow (drop-oldest policy).
    pub spans_dropped: u64,
    /// Resource traps by kind: events governed off (and rolled back)
    /// without poisoning the session.
    pub traps: TrapStats,
}

/// Aggregated view across the whole server.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct ServerStats {
    /// Sessions currently hosted.
    pub sessions_live: u64,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Sessions evicted for idling past the timeout.
    pub evicted_idle: u64,
    /// Sessions evicted after exhausting their restart budget.
    pub recovery_failed: u64,
    /// Supervised restarts summed over live sessions.
    pub restarts: u64,
    /// Journal entries re-applied during recovery, summed over live
    /// sessions.
    pub replayed_events: u64,
    /// Snapshots taken, summed over live sessions.
    pub snapshot_count: u64,
    /// Runtime counters summed over live sessions.
    pub runtime: StatsSnapshot,
    /// Ingress counters summed over live sessions.
    pub ingress: IngressStats,
    /// Recovery counters summed over live sessions.
    pub recovery: RecoveryStats,
    /// Latency over all live sessions' samples.
    pub latency: LatencySummary,
    /// Resource traps summed over live sessions.
    pub traps: TrapStats,
    /// Admission-control counters summed over shards.
    pub admission: AdmissionStats,
}

/// One server → subscriber push.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// The session's output signal changed.
    Changed {
        /// Which session.
        session: u64,
        /// Monotonic per-session change counter.
        seq: u64,
        /// The new output value.
        value: PlainValue,
    },
    /// The session is gone; no further updates will arrive. Always the
    /// final message on a subscription stream.
    Closed {
        /// Which session.
        session: u64,
        /// `"closed"`, `"idle"`, `"recovery_failed"`, or `"shutdown"`.
        reason: String,
    },
    /// The session now lives on another cluster peer (failover or
    /// split-brain resolution). Rendered as a `closed` update with
    /// `reason:"moved"` plus the new peer's address, so pre-cluster
    /// subscribers still terminate cleanly while cluster-aware ones
    /// reconnect to `peer` and resubscribe. Final, like `Closed`.
    Moved {
        /// Which session.
        session: u64,
        /// Address of the peer now hosting the session.
        peer: String,
    },
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn as_u64(j: &Json) -> Option<u64> {
    match j {
        Json::U64(n) => Some(*n),
        Json::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn req_u64(json: &Json, name: &str) -> Result<u64, String> {
    json.get(name)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{name}\""))
}

fn opt_str(json: &Json, name: &str) -> Option<String> {
    json.get(name).and_then(Json::as_str).map(str::to_string)
}

fn opt_u64(json: &Json, name: &str) -> u64 {
    json.get(name).and_then(as_u64).unwrap_or(0)
}

fn plain_value(json: &Json, name: &str) -> Result<PlainValue, String> {
    let v = json
        .get(name)
        .ok_or_else(|| format!("missing field \"{name}\""))?;
    serde_json::from_value(v.clone()).map_err(|e| format!("bad \"{name}\": {e}"))
}

impl Request {
    /// Decodes one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, an unknown
    /// `cmd`, or missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json: Json = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing string field \"cmd\"")?;
        match cmd {
            "open" => {
                let policy = match opt_str(&json, "policy") {
                    None => None,
                    Some(p) => Some(BackpressurePolicy::parse(&p).ok_or_else(|| {
                        format!("unknown policy '{p}' (block | drop-oldest | coalesce)")
                    })?),
                };
                Ok(Request::Open {
                    program: opt_str(&json, "program"),
                    source: opt_str(&json, "source"),
                    queue: json.get("queue").and_then(as_u64).map(|n| n as usize),
                    policy,
                    observe: matches!(json.get("observe"), Some(Json::Bool(true))),
                    session: json.get("session").and_then(as_u64),
                })
            }
            "event" => Ok(Request::Event {
                session: req_u64(&json, "session")?,
                input: opt_str(&json, "input").ok_or("missing string field \"input\"")?,
                value: plain_value(&json, "value")?,
                trace: opt_u64(&json, "trace"),
            }),
            "batch" => {
                let session = req_u64(&json, "session")?;
                let raw = json
                    .get("events")
                    .and_then(Json::as_seq)
                    .ok_or("missing array field \"events\"")?;
                let mut events = Vec::with_capacity(raw.len());
                for e in raw {
                    events.push((
                        opt_str(e, "input").ok_or("batch event missing \"input\"")?,
                        plain_value(e, "value")?,
                    ));
                }
                Ok(Request::Batch { session, events })
            }
            "query" => Ok(Request::Query {
                session: req_u64(&json, "session")?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                session: req_u64(&json, "session")?,
            }),
            "stats" => Ok(Request::Stats {
                session: json.get("session").and_then(as_u64),
            }),
            "metrics" => Ok(Request::Metrics {
                cluster: opt_str(&json, "scope").as_deref() == Some("cluster"),
            }),
            "blackbox" => Ok(Request::Blackbox),
            "trace" => Ok(Request::Trace {
                session: req_u64(&json, "session")?,
            }),
            "describe" => Ok(Request::Describe {
                session: req_u64(&json, "session")?,
            }),
            "close" => Ok(Request::Close {
                session: req_u64(&json, "session")?,
            }),
            "hello" => Ok(Request::Hello {
                from: req_u64(&json, "from")? as usize,
                addr: opt_str(&json, "addr").ok_or("missing string field \"addr\"")?,
            }),
            "place" => Ok(Request::Place {
                key: req_u64(&json, "key")?,
            }),
            "journal-append" => Ok(Request::JournalAppend {
                from: req_u64(&json, "from")? as usize,
                session: req_u64(&json, "session")?,
                entry: JournalEntry {
                    seq: req_u64(&json, "seq")?,
                    input: opt_str(&json, "input").ok_or("missing string field \"input\"")?,
                    value: plain_value(&json, "value")?,
                    trace: opt_u64(&json, "trace"),
                },
                epoch: opt_u64(&json, "epoch"),
            }),
            "snapshot-ship" => {
                let dropped = matches!(json.get("dropped"), Some(Json::Bool(true)));
                let meta = if dropped {
                    // A drop only needs the session id; the metadata is
                    // about to be forgotten anyway.
                    SessionMeta {
                        program: String::new(),
                        source: None,
                        queue: 0,
                        policy: BackpressurePolicy::Block,
                    }
                } else {
                    let policy = opt_str(&json, "policy")
                        .ok_or("missing string field \"policy\"")
                        .and_then(|p| {
                            BackpressurePolicy::parse(&p).ok_or("unknown backpressure policy")
                        })?;
                    SessionMeta {
                        program: opt_str(&json, "program")
                            .ok_or("missing string field \"program\"")?,
                        source: opt_str(&json, "source"),
                        queue: req_u64(&json, "queue")? as usize,
                        policy,
                    }
                };
                let snapshot = match json.get("snapshot") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(Box::new(
                        serde_json::from_value::<WireSnapshot>(v.clone())
                            .map_err(|e| format!("bad \"snapshot\": {e}"))?,
                    )),
                };
                Ok(Request::SnapshotShip {
                    from: req_u64(&json, "from")? as usize,
                    session: req_u64(&json, "session")?,
                    meta,
                    snapshot,
                    through: req_u64(&json, "through")?,
                    dropped,
                    trace: opt_u64(&json, "trace"),
                    epoch: opt_u64(&json, "epoch"),
                })
            }
            "heartbeat" => Ok(Request::Heartbeat {
                from: req_u64(&json, "from")? as usize,
            }),
            "takeover" => {
                let sessions = json
                    .get("sessions")
                    .and_then(Json::as_seq)
                    .ok_or("missing array field \"sessions\"")?
                    .iter()
                    .map(|s| as_u64(s).ok_or("non-integer session id in \"sessions\""))
                    .collect::<Result<Vec<u64>, _>>()?;
                // Optional parallel trace/epoch arrays (absent from older
                // senders): pad/truncate to the session list's length.
                let mut traces: Vec<u64> = json
                    .get("traces")
                    .and_then(Json::as_seq)
                    .map(|seq| seq.iter().map(|t| as_u64(t).unwrap_or(0)).collect())
                    .unwrap_or_default();
                traces.resize(sessions.len(), 0);
                let mut epochs: Vec<u64> = json
                    .get("epochs")
                    .and_then(Json::as_seq)
                    .map(|seq| seq.iter().map(|t| as_u64(t).unwrap_or(0)).collect())
                    .unwrap_or_default();
                epochs.resize(sessions.len(), 0);
                Ok(Request::Takeover {
                    from: req_u64(&json, "from")? as usize,
                    addr: opt_str(&json, "addr").ok_or("missing string field \"addr\"")?,
                    sessions,
                    traces,
                    epochs,
                })
            }
            other => Err(format!("unknown cmd '{other}'")),
        }
    }
}

fn line(json: Json) -> String {
    serde_json::to_string(&json).expect("response serialization is infallible")
}

/// `{"ok":false,"error":…}` — the reply for any failed request.
pub fn err_line(msg: &str) -> String {
    line(obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.to_string())),
    ]))
}

/// `{"ok":false,"error":"overloaded","retry_after_ms":…}` — the typed
/// load-shedding reply. Machine-parseable: clients match on the `error`
/// string and honor `retry_after_ms` as a minimum backoff.
pub fn overloaded_line(retry_after_ms: u64) -> String {
    line(obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("overloaded".to_string())),
        ("retry_after_ms", Json::U64(retry_after_ms)),
    ]))
}

/// `{"ok":false,"error":"protocol_error","detail":…}` — the typed reply
/// for framing violations (oversized line, invalid UTF-8). The connection
/// stays usable: the offending line is discarded, not the stream.
pub fn protocol_error_line(detail: &str) -> String {
    line(obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("protocol_error".to_string())),
        ("detail", Json::Str(detail.to_string())),
    ]))
}

fn ok_with(mut fields: Vec<(&str, Json)>) -> String {
    fields.insert(0, ("ok", Json::Bool(true)));
    line(obj(fields))
}

fn to_json<T: serde::Serialize>(v: &T) -> Json {
    serde_json::to_value(v).expect("response serialization is infallible")
}

/// Reply for `open`.
pub fn opened_line(info: &OpenInfo) -> String {
    ok_with(vec![
        ("session", Json::U64(info.session)),
        ("program", Json::Str(info.program.clone())),
        (
            "inputs",
            Json::Seq(info.inputs.iter().cloned().map(Json::Str).collect()),
        ),
        ("initial", to_json(&info.initial)),
    ])
}

/// Reply for `event`.
pub fn event_line(outcome: EnqueueOutcome) -> String {
    ok_with(vec![("outcome", Json::Str(outcome.label().to_string()))])
}

/// Reply for `batch`.
pub fn batch_line(outcome: &BatchOutcome) -> String {
    ok_with(vec![("outcome", to_json(outcome))])
}

/// Reply for `query`.
pub fn query_line(info: &QueryInfo) -> String {
    ok_with(vec![
        ("session", Json::U64(info.session)),
        ("program", Json::Str(info.program.clone())),
        ("value", to_json(&info.value)),
        ("queue_len", Json::U64(info.queue_len)),
        ("last_seq", Json::U64(info.last_seq)),
        ("poisoned", Json::Bool(info.poisoned)),
        ("epoch", Json::U64(info.epoch)),
    ])
}

/// Reply for `describe`.
pub fn describe_line(info: &DescribeInfo) -> String {
    ok_with(vec![
        ("session", Json::U64(info.session)),
        ("program", Json::Str(info.program.clone())),
        (
            "source",
            match &info.source {
                Some(src) => Json::Str(src.clone()),
                None => Json::Null,
            },
        ),
        ("fingerprint", Json::U64(info.fingerprint)),
        (
            "inputs",
            Json::Seq(info.inputs.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// Reply for `subscribe` (updates then stream separately).
pub fn subscribed_line(session: u64) -> String {
    ok_with(vec![("subscribed", Json::U64(session))])
}

/// Reply for `close`.
pub fn closed_line(session: u64) -> String {
    ok_with(vec![("closed", Json::U64(session))])
}

/// Reply for global `stats`.
pub fn stats_line(global: &ServerStats, sessions: &[SessionStats]) -> String {
    ok_with(vec![
        ("global", to_json(global)),
        (
            "sessions",
            Json::Seq(sessions.iter().map(to_json).collect()),
        ),
    ])
}

/// Reply for per-session `stats`.
pub fn session_stats_line(stats: &SessionStats) -> String {
    ok_with(vec![("stats", to_json(stats))])
}

/// Reply for `metrics`: the Prometheus exposition text, JSON-escaped.
pub fn metrics_line(text: &str) -> String {
    ok_with(vec![("metrics", Json::Str(text.to_string()))])
}

/// Reply for `blackbox`: the flight recorder's NDJSON dump, JSON-escaped.
pub fn blackbox_line(ndjson: &str) -> String {
    ok_with(vec![("blackbox", Json::Str(ndjson.to_string()))])
}

/// Reply for `trace` (span trees then stream separately).
pub fn trace_subscribed_line(session: u64) -> String {
    ok_with(vec![("trace_subscribed", Json::U64(session))])
}

/// An asynchronous `{"trace":…}` push line carrying one completed span
/// tree: one ingress event's full propagation through the session's graph.
pub fn trace_line(session: u64, tree: &PlainSpanTree) -> String {
    line(obj(vec![
        ("trace", Json::U64(tree.trace)),
        ("session", Json::U64(session)),
        ("spans", to_json(&tree.spans)),
    ]))
}

/// An asynchronous `{"update":…}` push line.
pub fn update_line(update: &Update) -> String {
    match update {
        Update::Changed {
            session,
            seq,
            value,
        } => line(obj(vec![
            ("update", Json::Str("changed".to_string())),
            ("session", Json::U64(*session)),
            ("seq", Json::U64(*seq)),
            ("value", to_json(value)),
        ])),
        Update::Closed { session, reason } => line(obj(vec![
            ("update", Json::Str("closed".to_string())),
            ("session", Json::U64(*session)),
            ("reason", Json::Str(reason.clone())),
        ])),
        Update::Moved { session, peer } => line(obj(vec![
            ("update", Json::Str("closed".to_string())),
            ("session", Json::U64(*session)),
            ("reason", Json::Str("moved".to_string())),
            ("peer", Json::Str(peer.clone())),
        ])),
    }
}

/// `{"ok":false,"error":"moved","session":…,"peer":…,"trace":…,"epoch":…}`
/// — the typed redirect for a request that reached the wrong cluster
/// peer. Clients reconnect to `peer` and repeat the request there.
/// `trace` is the takeover's last-replicated trace id for the session (0
/// when unknown), tying the redirect hop into the same causal story.
/// `epoch` is the owner's ownership epoch where the redirecting peer
/// knows it (0 otherwise): an epoch above what the client has witnessed
/// marks a genuine ownership handoff, not a mere wrong-peer bounce, so
/// epoch-aware clients resynchronize before resending non-idempotent
/// requests.
pub fn moved_line(session: u64, peer: &str, trace: u64, epoch: u64) -> String {
    line(obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("moved".to_string())),
        ("session", Json::U64(session)),
        ("peer", Json::Str(peer.to_string())),
        ("trace", Json::U64(trace)),
        ("epoch", Json::U64(epoch)),
    ]))
}

/// Reply for a peer `hello`: confirms the link and names the receiver.
pub fn hello_line(me: usize) -> String {
    ok_with(vec![("peer", Json::U64(me as u64))])
}

/// Reply for `place`: where `key` lives and who backs it up.
pub fn place_line(key: u64, primary: (usize, &str), replica: (usize, &str)) -> String {
    let peer = |(index, addr): (usize, &str)| {
        obj(vec![
            ("peer", Json::U64(index as u64)),
            ("addr", Json::Str(addr.to_string())),
        ])
    };
    ok_with(vec![
        ("key", Json::U64(key)),
        ("primary", peer(primary)),
        ("replica", peer(replica)),
    ])
}

/// Reply for a peer `takeover`: how many route updates were recorded.
pub fn takeover_ack_line(noted: usize) -> String {
    ok_with(vec![("noted", Json::U64(noted as u64))])
}

/// Renders an outbound peer `hello` request line.
pub fn hello_request(from: usize, addr: &str) -> String {
    line(obj(vec![
        ("cmd", Json::Str("hello".to_string())),
        ("from", Json::U64(from as u64)),
        ("addr", Json::Str(addr.to_string())),
    ]))
}

/// Renders an outbound peer `journal-append` request line. `epoch` is
/// the sender's ownership epoch for the session.
pub fn journal_append_request(
    from: usize,
    session: u64,
    entry: &JournalEntry,
    epoch: u64,
) -> String {
    line(obj(vec![
        ("cmd", Json::Str("journal-append".to_string())),
        ("from", Json::U64(from as u64)),
        ("session", Json::U64(session)),
        ("seq", Json::U64(entry.seq)),
        ("input", Json::Str(entry.input.clone())),
        ("value", to_json(&entry.value)),
        ("trace", Json::U64(entry.trace)),
        ("epoch", Json::U64(epoch)),
    ]))
}

/// Renders an outbound peer `snapshot-ship` request line. `epoch` is
/// the sender's ownership epoch for the session.
pub fn snapshot_ship_request(
    from: usize,
    session: u64,
    meta: &SessionMeta,
    snapshot: Option<&WireSnapshot>,
    through: u64,
    trace: u64,
    epoch: u64,
) -> String {
    let mut fields = vec![
        ("cmd", Json::Str("snapshot-ship".to_string())),
        ("from", Json::U64(from as u64)),
        ("session", Json::U64(session)),
        ("program", Json::Str(meta.program.clone())),
        ("queue", Json::U64(meta.queue as u64)),
        ("policy", Json::Str(meta.policy.label().to_string())),
        ("through", Json::U64(through)),
        ("trace", Json::U64(trace)),
        ("epoch", Json::U64(epoch)),
    ];
    if let Some(src) = &meta.source {
        fields.push(("source", Json::Str(src.clone())));
    }
    if let Some(snap) = snapshot {
        fields.push(("snapshot", to_json(snap)));
    }
    line(obj(fields))
}

/// Renders an outbound peer `snapshot-ship` drop line (`dropped:true`).
/// `epoch` fences stale drops: a zombie primary's close must not erase
/// the adopter's replica state.
pub fn snapshot_drop_request(from: usize, session: u64, epoch: u64) -> String {
    line(obj(vec![
        ("cmd", Json::Str("snapshot-ship".to_string())),
        ("from", Json::U64(from as u64)),
        ("session", Json::U64(session)),
        ("through", Json::U64(0)),
        ("dropped", Json::Bool(true)),
        ("epoch", Json::U64(epoch)),
    ]))
}

/// Renders an outbound peer `heartbeat` request line.
pub fn heartbeat_request(from: usize) -> String {
    line(obj(vec![
        ("cmd", Json::Str("heartbeat".to_string())),
        ("from", Json::U64(from as u64)),
    ]))
}

/// Renders an outbound peer `takeover` broadcast line. `traces` is the
/// per-session last-replicated trace id and `epochs` the per-session
/// ownership epoch the adopter now serves under, both parallel to
/// `sessions`.
pub fn takeover_request(
    from: usize,
    addr: &str,
    sessions: &[u64],
    traces: &[u64],
    epochs: &[u64],
) -> String {
    line(obj(vec![
        ("cmd", Json::Str("takeover".to_string())),
        ("from", Json::U64(from as u64)),
        ("addr", Json::Str(addr.to_string())),
        (
            "sessions",
            Json::Seq(sessions.iter().map(|&s| Json::U64(s)).collect()),
        ),
        (
            "traces",
            Json::Seq(traces.iter().map(|&t| Json::U64(t)).collect()),
        ),
        (
            "epochs",
            Json::Seq(epochs.iter().map(|&e| Json::U64(e)).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_command_set() {
        let open =
            Request::parse(r#"{"cmd":"open","program":"counter","queue":8,"policy":"coalesce"}"#)
                .unwrap();
        assert_eq!(
            open,
            Request::Open {
                program: Some("counter".to_string()),
                source: None,
                queue: Some(8),
                policy: Some(BackpressurePolicy::Coalesce),
                observe: false,
                session: None,
            }
        );

        let keyed = Request::parse(r#"{"cmd":"open","program":"counter","session":41}"#).unwrap();
        assert!(matches!(
            keyed,
            Request::Open {
                session: Some(41),
                ..
            }
        ));

        let observed =
            Request::parse(r#"{"cmd":"open","program":"counter","observe":true}"#).unwrap();
        assert!(matches!(observed, Request::Open { observe: true, .. }));

        let event =
            Request::parse(r#"{"cmd":"event","session":3,"input":"Mouse.x","value":{"Int":7}}"#)
                .unwrap();
        assert_eq!(
            event,
            Request::Event {
                session: 3,
                input: "Mouse.x".to_string(),
                value: PlainValue::Int(7),
                trace: 0,
            }
        );

        let traced = Request::parse(
            r#"{"cmd":"event","session":3,"input":"Mouse.x","value":{"Int":7},"trace":99}"#,
        )
        .unwrap();
        assert!(matches!(traced, Request::Event { trace: 99, .. }));

        let batch = Request::parse(
            r#"{"cmd":"batch","session":1,"events":[{"input":"Mouse.clicks","value":"Unit"}]}"#,
        )
        .unwrap();
        assert_eq!(
            batch,
            Request::Batch {
                session: 1,
                events: vec![("Mouse.clicks".to_string(), PlainValue::Unit)],
            }
        );

        assert_eq!(
            Request::parse(r#"{"cmd":"stats"}"#).unwrap(),
            Request::Stats { session: None }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics { cluster: false }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"metrics","scope":"cluster"}"#).unwrap(),
            Request::Metrics { cluster: true }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"blackbox"}"#).unwrap(),
            Request::Blackbox
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"trace","session":7}"#).unwrap(),
            Request::Trace { session: 7 }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"describe","session":4}"#).unwrap(),
            Request::Describe { session: 4 }
        );
        assert!(Request::parse(r#"{"cmd":"describe"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"trace"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"nope"}"#).is_err());
        assert!(Request::parse("{").is_err());
        assert!(Request::parse(r#"{"cmd":"event","session":1,"input":"x"}"#).is_err());
    }

    #[test]
    fn reply_lines_are_json_objects() {
        let l = opened_line(&OpenInfo {
            session: 2,
            program: "counter".to_string(),
            inputs: vec!["Mouse.clicks".to_string()],
            initial: PlainValue::Int(0),
        });
        let parsed: Json = serde_json::from_str(&l).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        // The JSON parser reads small integers back as i64.
        assert_eq!(parsed.get("session"), Some(&Json::I64(2)));
        assert_eq!(
            parsed.get("initial"),
            Some(&Json::Map(vec![("Int".to_string(), Json::I64(0))]))
        );

        let e = err_line("boom");
        let parsed: Json = serde_json::from_str(&e).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn describe_line_carries_source_fingerprint_and_inputs() {
        let l = describe_line(&DescribeInfo {
            session: 9,
            program: "<source>".to_string(),
            source: Some("main = lift (\\x -> x) Mouse.x\n".to_string()),
            fingerprint: 0xdead_beef,
            inputs: vec!["Mouse.x".to_string()],
        });
        let parsed: Json = serde_json::from_str(&l).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("session"), Some(&Json::I64(9)));
        assert_eq!(
            parsed.get("source").and_then(Json::as_str),
            Some("main = lift (\\x -> x) Mouse.x\n")
        );
        assert_eq!(parsed.get("fingerprint"), Some(&Json::I64(0xdead_beef)));

        // Native graphs have no source: the field is null, not absent.
        let l = describe_line(&DescribeInfo {
            session: 1,
            program: "crashy".to_string(),
            source: None,
            fingerprint: 1,
            inputs: vec!["Mouse.x".to_string()],
        });
        let parsed: Json = serde_json::from_str(&l).unwrap();
        assert_eq!(parsed.get("source"), Some(&Json::Null));
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::compute(&mut samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn latency_summary_empty_set_is_the_zero_default() {
        assert_eq!(LatencySummary::compute(&mut []), LatencySummary::default());
        assert_eq!(
            LatencySummary::compute(&mut Vec::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn latency_summary_single_sample_reports_it_everywhere() {
        let mut one = [42u64];
        let s = LatencySummary::compute(&mut one);
        assert_eq!(
            s,
            LatencySummary {
                count: 1,
                p50_us: 42,
                p90_us: 42,
                p99_us: 42,
                max_us: 42,
            }
        );
    }

    #[test]
    fn metrics_and_trace_lines_are_json_objects() {
        let m = metrics_line("# HELP elm_events_total x\nelm_events_total 3\n");
        let parsed: Json = serde_json::from_str(&m).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert!(parsed
            .get("metrics")
            .and_then(Json::as_str)
            .unwrap()
            .contains("elm_events_total 3"));

        let tree = PlainSpanTree {
            trace: 9,
            spans: vec![elm_runtime::PlainSpan {
                node: 0,
                label: "Mouse.clicks".to_string(),
                kind: "input".to_string(),
                seq: 0,
                start_ns: 10,
                end_ns: 20,
                queue_ns: 0,
                changed: true,
                panicked: false,
                parent: None,
            }],
        };
        let t = trace_line(4, &tree);
        let parsed: Json = serde_json::from_str(&t).unwrap();
        assert_eq!(parsed.get("trace"), Some(&Json::I64(9)));
        assert_eq!(parsed.get("session"), Some(&Json::I64(4)));
        assert_eq!(parsed.get("spans").and_then(Json::as_seq).unwrap().len(), 1);
    }

    #[test]
    fn batch_outcome_tallies() {
        let mut b = BatchOutcome::default();
        b.record(EnqueueOutcome::Accepted);
        b.record(EnqueueOutcome::DroppedOldest);
        b.record(EnqueueOutcome::Coalesced);
        b.record(EnqueueOutcome::Ignored);
        b.record(EnqueueOutcome::Shed { retry_after_ms: 25 });
        assert_eq!(
            b,
            BatchOutcome {
                accepted: 2,
                dropped: 1,
                coalesced: 1,
                ignored: 1,
                shed: 1,
                retry_after_ms: 0,
            }
        );
    }

    #[test]
    fn overload_and_protocol_error_lines_are_typed() {
        let o = overloaded_line(40);
        let parsed: Json = serde_json::from_str(&o).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(parsed.get("retry_after_ms"), Some(&Json::I64(40)));

        let p = protocol_error_line("line exceeds 1048576 bytes");
        let parsed: Json = serde_json::from_str(&p).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("protocol_error")
        );
        assert!(parsed
            .get("detail")
            .and_then(Json::as_str)
            .unwrap()
            .contains("1048576"));
    }

    #[test]
    fn peer_verbs_round_trip_through_their_request_renderers() {
        assert_eq!(
            Request::parse(&hello_request(2, "127.0.0.1:7001")).unwrap(),
            Request::Hello {
                from: 2,
                addr: "127.0.0.1:7001".to_string(),
            }
        );
        assert_eq!(
            Request::parse(&heartbeat_request(1)).unwrap(),
            Request::Heartbeat { from: 1 }
        );

        let entry = JournalEntry {
            seq: 9,
            input: "Mouse.x".to_string(),
            value: PlainValue::Int(-4),
            trace: 77,
        };
        assert_eq!(
            Request::parse(&journal_append_request(0, 5, &entry, 3)).unwrap(),
            Request::JournalAppend {
                from: 0,
                session: 5,
                entry,
                epoch: 3,
            }
        );

        let meta = SessionMeta {
            program: "<source>".to_string(),
            source: Some("main = Mouse.x\n".to_string()),
            queue: 64,
            policy: BackpressurePolicy::Coalesce,
        };
        let shipped = Request::parse(&snapshot_ship_request(1, 5, &meta, None, 0, 42, 2)).unwrap();
        assert_eq!(
            shipped,
            Request::SnapshotShip {
                from: 1,
                session: 5,
                meta,
                snapshot: None,
                through: 0,
                dropped: false,
                trace: 42,
                epoch: 2,
            }
        );

        let dropped = Request::parse(&snapshot_drop_request(1, 5, 4)).unwrap();
        assert!(matches!(
            dropped,
            Request::SnapshotShip {
                session: 5,
                dropped: true,
                epoch: 4,
                ..
            }
        ));

        assert_eq!(
            Request::parse(&takeover_request(
                2,
                "127.0.0.1:7002",
                &[3, 8],
                &[91, 0],
                &[2, 2]
            ))
            .unwrap(),
            Request::Takeover {
                from: 2,
                addr: "127.0.0.1:7002".to_string(),
                sessions: vec![3, 8],
                traces: vec![91, 0],
                epochs: vec![2, 2],
            }
        );
        // A pre-trace/pre-epoch sender omits the parallel arrays: pad
        // with zeros (0 = unknown trace / unfenced epoch).
        let legacy = Request::parse(
            r#"{"cmd":"takeover","from":2,"addr":"127.0.0.1:7002","sessions":[3,8]}"#,
        )
        .unwrap();
        assert!(matches!(
            legacy,
            Request::Takeover { ref traces, ref epochs, .. }
                if traces == &vec![0, 0] && epochs == &vec![0, 0]
        ));
        // Likewise a pre-epoch journal-append parses with epoch 0.
        let legacy_append = Request::parse(
            r#"{"cmd":"journal-append","from":0,"session":5,"seq":9,"input":"Mouse.x","value":{"Int":1}}"#,
        )
        .unwrap();
        assert!(matches!(
            legacy_append,
            Request::JournalAppend { epoch: 0, .. }
        ));
        assert_eq!(
            Request::parse(r#"{"cmd":"place","key":12}"#).unwrap(),
            Request::Place { key: 12 }
        );
    }

    #[test]
    fn moved_redirects_are_typed_on_both_planes() {
        // Request plane: a typed error with the new peer's address, the
        // takeover's trace id, and the owner's epoch.
        let parsed: Json = serde_json::from_str(&moved_line(7, "127.0.0.1:7002", 55, 3)).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("moved"));
        assert_eq!(
            parsed.get("peer").and_then(Json::as_str),
            Some("127.0.0.1:7002")
        );
        assert_eq!(parsed.get("trace"), Some(&Json::I64(55)));
        assert_eq!(parsed.get("epoch"), Some(&Json::I64(3)));

        // Subscription plane: a final closed update with reason "moved",
        // so pre-cluster subscribers still terminate cleanly.
        let update = update_line(&Update::Moved {
            session: 7,
            peer: "127.0.0.1:7002".to_string(),
        });
        let parsed: Json = serde_json::from_str(&update).unwrap();
        assert_eq!(parsed.get("update").and_then(Json::as_str), Some("closed"));
        assert_eq!(parsed.get("reason").and_then(Json::as_str), Some("moved"));
        assert_eq!(
            parsed.get("peer").and_then(Json::as_str),
            Some("127.0.0.1:7002")
        );
    }

    #[test]
    fn place_and_query_lines_carry_cluster_fields() {
        let parsed: Json = serde_json::from_str(&place_line(
            12,
            (0, "127.0.0.1:7000"),
            (2, "127.0.0.1:7002"),
        ))
        .unwrap();
        assert_eq!(parsed.get("key"), Some(&Json::I64(12)));
        let primary = parsed.get("primary").unwrap();
        assert_eq!(primary.get("peer"), Some(&Json::I64(0)));
        assert_eq!(
            primary.get("addr").and_then(Json::as_str),
            Some("127.0.0.1:7000")
        );

        let q = query_line(&QueryInfo {
            session: 3,
            program: "counter".to_string(),
            value: PlainValue::Int(17),
            queue_len: 0,
            last_seq: 17,
            poisoned: false,
            epoch: 2,
        });
        let parsed: Json = serde_json::from_str(&q).unwrap();
        assert_eq!(parsed.get("last_seq"), Some(&Json::I64(17)));
        assert_eq!(parsed.get("epoch"), Some(&Json::I64(2)));
    }

    #[test]
    fn trap_stats_record_and_merge() {
        let mut t = TrapStats::default();
        t.record(TrapKind::OutOfFuel);
        t.record(TrapKind::OutOfFuel);
        t.record(TrapKind::DeadlineExceeded);
        assert_eq!(t.total(), 3);
        assert_eq!(t.count(TrapKind::OutOfFuel), 2);
        let merged = t.merged(&TrapStats {
            out_of_memory: 4,
            ..TrapStats::default()
        });
        assert_eq!(merged.total(), 7);
        assert_eq!(merged.out_of_memory, 4);
    }
}
