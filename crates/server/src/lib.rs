//! elm-server — a multi-session signal server.
//!
//! The paper's runtime executes *one* FRP program against *one* event
//! stream. This crate scales that out: a [`server::Server`] hosts many
//! concurrent program instances (sessions), each an isolated signal
//! graph on the deterministic synchronous engine, pinned actor-style to
//! a shard worker thread. A newline-delimited JSON protocol
//! ([`protocol`]) exposes the whole lifecycle over TCP ([`net`]):
//! `open` (builtin from the [`registry::Registry`] or ad-hoc FElm source
//! compiled by `felm`), `event` / `batch` ingress with configurable
//! backpressure ([`protocol::BackpressurePolicy`]), `query`,
//! `subscribe` (streamed output changes), `stats`, and `close`.
//!
//! Isolation is the core guarantee: a session's outputs depend only on
//! its own event stream, so N sessions fed concurrently produce exactly
//! what N single-program synchronous replays would — the property
//! `tests/multi_session.rs` and every `loadgen` mode check. Sessions
//! that idle past the configured timeout are evicted gracefully rather
//! than wedging their shard.
//!
//! Sessions are additionally *crash-recoverable*: every applied event is
//! write-ahead journaled ([`elm_runtime::EventJournal`]), the runtime is
//! snapshotted on a configurable cadence, and when a session's runtime
//! dies (a node panic, an injected fault, an engine error) the shard
//! restores the last snapshot and replays the journal suffix under a
//! supervised restart budget ([`supervisor`]) — the session keeps its
//! id and subscribers. Only budget exhaustion evicts, with the
//! `recovery_failed` close reason. A deterministic fault-injection
//! layer ([`elm_environment::FaultPlan`]) drives the seeded chaos test
//! in `tests/recovery.rs`, which checks recovered outputs byte-for-byte
//! against an uninterrupted synchronous replay.
//!
//! The server is also *overload-protected* against both hostile load
//! and hostile programs: untrusted FElm sessions run under an
//! [`elm_runtime::EventLimits`] fuel/allocation/depth budget plus a
//! per-event deadline (a runaway evaluation traps, rolls back, and the
//! session lives on), shard-level token-bucket [`admission`] control
//! sheds excess data-plane traffic with a typed `overloaded` reply and
//! `retry_after_ms` hint while control-plane verbs stay answerable, and
//! the TCP front end isolates slow subscribers behind bounded write
//! queues ([`net::NetConfig`]). The cooperating [`client`] retries shed
//! requests with jittered exponential backoff.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod blackbox;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod net;
pub mod netfault;
mod ownership;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod shard;
pub mod supervisor;
#[allow(unsafe_code)]
#[warn(clippy::undocumented_unsafe_blocks)]
mod sys;

pub use admission::{Admission, AdmissionConfig, AdmissionController, MemoryGauge};
pub use blackbox::{blackbox, Blackbox, BlackboxRecord};
pub use client::{Client, ClusterClient, RetryStats};
pub use cluster::{place, Cluster, ClusterConfig, ReplicationTap};
pub use net::{NetConfig, NetCounters};
pub use netfault::{Delivery, NetFault, NetFaultConfig, PartitionWindow};
pub use protocol::{
    AdmissionStats, BackpressurePolicy, BatchOutcome, EnqueueOutcome, IngressStats, LatencySummary,
    OpenInfo, QueryInfo, RecoveryStats, Request, ServerStats, SessionMeta, SessionStats, TrapStats,
    Update,
};
pub use registry::{ProgramSpec, Registry};
pub use server::{Server, ServerConfig};
pub use session::{Session, SessionConfig, SessionId, TraceMailbox, TracePop, UpdateSink};
pub use shard::{Command, ShardCounters, ShardHandle, ShardSender, ShardStats};
pub use supervisor::{RestartBudget, RestartDecision, RestartPolicy};
