//! Concurrent pipelined signal-graph runtime for asynchronous FRP.
//!
//! This crate is the execution substrate of a from-scratch reproduction of
//! *Asynchronous Functional Reactive Programming for GUIs* (Czaplicki &
//! Chong, PLDI 2013) — the Elm paper. It implements the paper's signal
//! evaluation semantics (§3.3.2):
//!
//! * a scheduler-agnostic [`SignalGraph`] IR whose nodes are input signals,
//!   `liftn`/`foldp`/library combinators, and `async` sources;
//! * [`ConcurrentRuntime`] — the paper's semantics, a faithful Rust
//!   rendition of the translation to Concurrent ML (Figs. 9–11): thread per
//!   node, unbounded FIFO edge queues, a global event dispatcher totally
//!   ordering events, `Change`/`NoChange` propagation, and `async` nodes
//!   that re-enter the dispatcher as fresh event sources;
//! * [`SyncRuntime`] — the conceptual synchronous semantics, used as the
//!   deterministic oracle and the non-pipelined baseline;
//! * [`PullRuntime`] — the continuous-sampling baseline of traditional FRP.
//!
//! Most users want the typed `elm-signals` crate instead; this crate is the
//! shared machine underneath it, the FElm interpreter, and the compiler.
//!
//! # Example
//!
//! ```
//! use elm_runtime::{ConcurrentRuntime, GraphBuilder, Occurrence, Value};
//!
//! // lift2 (y ÷ z) Mouse.x Window.width   (paper Fig. 7)
//! let mut g = GraphBuilder::new();
//! let mouse_x = g.input("Mouse.x", 0i64);
//! let width = g.input("Window.width", 100i64);
//! let rel = g.lift2(
//!     "ratio",
//!     |y, z| Value::Int(y.as_int().unwrap() / z.as_int().unwrap().max(1)),
//!     mouse_x,
//!     width,
//! );
//! let graph = g.finish(rel).unwrap();
//!
//! let mut rt = ConcurrentRuntime::start(&graph);
//! rt.feed(Occurrence::input(mouse_x, 300i64)).unwrap();
//! let outs = rt.drain().unwrap();
//! assert_eq!(outs[0].value(), Some(&Value::Int(3)));
//! rt.stop();
//! ```

#![warn(missing_docs)]

pub mod behavior;
pub mod dot;
pub mod error;
pub mod event;
pub mod governor;
pub mod graph;
pub mod journal;
pub mod metrics;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod tracing;
mod value;

pub use behavior::{
    BehaviorSpec, Custom, DropRepeats, Foldp, KeepIf, KeepWhen, Lift, Merge, NodeBehavior,
    SampleOn, StepInputs,
};
pub use error::{GraphError, RunError};
pub use event::{changed_values, Occurrence, OutputEvent, Propagated};
pub use governor::{EventLimits, GovernorScope, TrapKind};
pub use graph::{GraphBuilder, Node, NodeId, NodeKind, SignalGraph};
pub use journal::{EventJournal, JournalEntry, JournalError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use sched::concurrent::ConcurrentRuntime;
pub use sched::pull::PullRuntime;
pub use sched::sync::{RuntimeSnapshot, SyncRuntime, WireOccurrence, WireSnapshot};
pub use stats::{Stats, StatsSnapshot};
pub use trace::{PlainValue, Trace, TraceEvent};
pub use tracing::{
    assemble, assemble_cluster, reachable_from, ClusterPhase, ClusterSpan, ClusterSpanTree,
    NodeSpan, NodeTimingSnapshot, PlainSpan, PlainSpanTree, SpanKind, SpanRing, SpanTree, TraceId,
    Tracer,
};
pub use value::{FnCode, Value};
