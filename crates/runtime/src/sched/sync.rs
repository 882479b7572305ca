//! The synchronous scheduler: the paper's *conceptual* semantics.
//!
//! §3.3.2: "Conceptually, signal computation is synchronous: when an event
//! occurs … it is as if the new value propagates completely through the
//! signal graph before the next event is processed." This scheduler does
//! exactly that, single-threaded, one event at a time in global order. It is
//!
//! * the deterministic reference that the concurrent scheduler is tested
//!   against (they must agree on async-free graphs, and per-subgraph order
//!   must be preserved in general), and
//! * the **non-pipelined baseline** for experiment E6 — an event cannot
//!   begin processing until the previous one has fully propagated.
//!
//! `async` nodes still work here: changes of the inner signal are queued and
//! re-enter the event queue as fresh occurrences (FIFO, like the `newEvent`
//! mailbox of Fig. 11), so programs behave identically — only pipelining and
//! wall-clock concurrency are absent.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::behavior::{NodeBehavior, StepInputs};
use crate::error::RunError;
use crate::event::{Occurrence, OutputEvent, Propagated};
use crate::governor::{self, EventLimits, TrapKind};
use crate::graph::{NodeId, NodeKind, SignalGraph};
use crate::stats::Stats;
use crate::tracing::{NodeSpan, SpanKind, TraceId, Tracer};
use crate::value::Value;

/// Single-threaded, globally-ordered executor of a [`SignalGraph`].
///
/// ```
/// use elm_runtime::{GraphBuilder, Occurrence, SyncRuntime, Value};
///
/// let mut g = GraphBuilder::new();
/// let clicks = g.input("Mouse.clicks", Value::Unit);
/// let count = g.foldp("count", |_, acc| Value::Int(acc.as_int().unwrap() + 1), 0i64, clicks);
/// let graph = g.finish(count).unwrap();
///
/// let mut rt = SyncRuntime::new(&graph);
/// rt.feed(Occurrence::input(clicks, Value::Unit)).unwrap();
/// rt.feed(Occurrence::input(clicks, Value::Unit)).unwrap();
/// let outs = rt.run_to_quiescence();
/// assert_eq!(outs.last().unwrap().value(), Some(&Value::Int(2)));
/// ```
pub struct SyncRuntime {
    graph: SignalGraph,
    values: Vec<Value>,
    behaviors: Vec<Option<Box<dyn NodeBehavior>>>,
    pending_async: Vec<VecDeque<(Value, TraceId)>>,
    queue: VecDeque<Occurrence>,
    next_seq: u64,
    stats: Arc<Stats>,
    memoize: bool,
    /// Nodes whose behavior panicked: they emit `NoChange` from then on,
    /// matching the concurrent scheduler's poisoning semantics so hosts
    /// (e.g. the multi-session server) can detect and evict them.
    poisoned: Vec<bool>,
    /// Optional tracing hub. `None` (the default) keeps dispatch on the
    /// untraced fast path.
    tracer: Option<Arc<Tracer>>,
    /// Per-event resource limits; `None` (the default) dispatches
    /// ungoverned with zero overhead.
    limits: Option<EventLimits>,
    /// Default per-event wall-clock deadline, applied when an occurrence
    /// does not carry its own.
    event_timeout: Option<Duration>,
    /// Traps since the last [`SyncRuntime::take_traps`], as
    /// `(seq, kind)` — one entry per trapped (and rolled-back) event.
    trap_log: Vec<(u64, TrapKind)>,
    /// Per-event buffers, emptied after each event and kept for the next
    /// so dispatch does not allocate them again.
    scratch: Scratch,
}

/// Buffers [`SyncRuntime::dispatch`] reuses from event to event.
#[derive(Default)]
struct Scratch {
    /// Did each node change this event?
    changed: Vec<bool>,
    /// Governed events: `(node, previous value)` for every overwritten
    /// value, in overwrite order.
    undo_values: Vec<(usize, Value)>,
    /// Governed events: `async` nodes that buffered a value.
    undo_async_pushes: Vec<usize>,
}

/// A point-in-time copy of a [`SyncRuntime`]'s mutable state, sufficient
/// to reconstruct it exactly on a fresh runtime over the same graph.
///
/// Built-in node behaviors are stateless — a `foldp`'s accumulator *is*
/// the node's previous output value — so capturing every node's latest
/// value, the poison flags, the buffered `async` values, and the event
/// queue captures the whole machine. (Only [`crate::Custom`] behaviors
/// can hold hidden state; programs using them get a best-effort restore
/// that re-instantiates the behavior fresh.)
#[derive(Clone, Debug)]
pub struct RuntimeSnapshot {
    fingerprint: u64,
    next_seq: u64,
    values: Vec<Value>,
    poisoned: Vec<bool>,
    pending_async: Vec<VecDeque<(Value, TraceId)>>,
    queue: VecDeque<Occurrence>,
}

impl RuntimeSnapshot {
    /// The structural hash of the graph this snapshot was taken from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The sequence number the runtime would assign to its next event.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Events that were queued but not yet dispatched at snapshot time.
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Converts to the serializable wire form, or `None` if any captured
    /// value is an opaque [`Value::Ext`] (which has no wire encoding —
    /// the shipper then falls back to full-journal replication, which is
    /// still correct, just unbounded by snapshots).
    ///
    /// Trace ids and per-event deadlines are *not* shipped: both are
    /// observability/governance concerns local to the process that
    /// accepted the event, and a replica restoring this snapshot replays
    /// silently (no spans are re-emitted), so dropping them cannot change
    /// any output value.
    pub fn to_wire(&self) -> Option<WireSnapshot> {
        let values = self
            .values
            .iter()
            .map(crate::trace::PlainValue::from_value)
            .collect::<Option<Vec<_>>>()?;
        let pending_async = self
            .pending_async
            .iter()
            .map(|q| {
                q.iter()
                    .map(|(v, _)| crate::trace::PlainValue::from_value(v))
                    .collect::<Option<Vec<_>>>()
            })
            .collect::<Option<Vec<_>>>()?;
        let queue = self
            .queue
            .iter()
            .map(|occ| {
                let payload = match &occ.payload {
                    None => None,
                    Some(v) => Some(crate::trace::PlainValue::from_value(v)?),
                };
                Some(WireOccurrence {
                    source: occ.source.0,
                    payload,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(WireSnapshot {
            fingerprint: self.fingerprint,
            next_seq: self.next_seq,
            values,
            poisoned: self.poisoned.clone(),
            pending_async,
            queue,
        })
    }

    /// Rebuilds a restorable snapshot from its wire form. The inverse of
    /// [`RuntimeSnapshot::to_wire`] up to the documented loss: trace ids
    /// come back as [`TraceId::NONE`] and deadlines as `None`.
    pub fn from_wire(wire: &WireSnapshot) -> RuntimeSnapshot {
        RuntimeSnapshot {
            fingerprint: wire.fingerprint,
            next_seq: wire.next_seq,
            values: wire.values.iter().map(|v| v.to_value()).collect(),
            poisoned: wire.poisoned.clone(),
            pending_async: wire
                .pending_async
                .iter()
                .map(|q| q.iter().map(|v| (v.to_value(), TraceId::NONE)).collect())
                .collect(),
            queue: wire
                .queue
                .iter()
                .map(|occ| Occurrence {
                    source: NodeId(occ.source),
                    payload: occ.payload.as_ref().map(|v| v.to_value()),
                    trace: TraceId::NONE,
                    deadline: None,
                })
                .collect(),
        }
    }
}

/// The serde-serializable form of a [`RuntimeSnapshot`]: values flattened
/// to [`crate::PlainValue`], node ids to raw indices. This is what
/// cluster replication ships to a replica peer — together with the graph
/// fingerprint it carries everything a fresh runtime over the same
/// compiled graph needs to resume byte-identically.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireSnapshot {
    /// Structural hash of the source graph; a restoring peer must check
    /// it against its own compilation of the same program.
    pub fingerprint: u64,
    /// The sequence number the runtime would assign to its next event.
    pub next_seq: u64,
    /// Every node's latest output value, graph order.
    pub values: Vec<crate::trace::PlainValue>,
    /// Per-node poison flags (panicked nodes emit `NoChange` forever).
    pub poisoned: Vec<bool>,
    /// Buffered `async`-node values awaiting re-entry, graph order.
    pub pending_async: Vec<Vec<crate::trace::PlainValue>>,
    /// Events queued but not yet dispatched at snapshot time.
    pub queue: Vec<WireOccurrence>,
}

/// One queued event in a [`WireSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireOccurrence {
    /// Raw index of the source node.
    pub source: u32,
    /// The payload for input events; `None` for an `async`-ready poke
    /// (whose value is buffered in `pending_async`).
    pub payload: Option<crate::trace::PlainValue>,
}

impl SyncRuntime {
    /// Instantiates runtime state for `graph` with memoization enabled.
    pub fn new(graph: &SignalGraph) -> Self {
        Self::with_memoization(graph, true)
    }

    /// Like [`SyncRuntime::new`], but allows disabling `NoChange`
    /// memoization. Without memoization every node recomputes on every
    /// event and cannot tell whether its inputs changed — the ablation of
    /// experiment E11, which demonstrates both the wasted work *and* the
    /// `foldp` incorrectness the paper warns about (§3.3.2: a key-press
    /// counter must not increment on mouse events).
    pub fn with_memoization(graph: &SignalGraph, memoize: bool) -> Self {
        let values: Vec<Value> = graph.nodes().iter().map(|n| n.default.clone()).collect();
        let behaviors = graph
            .nodes()
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Compute { spec } => Some(spec.instantiate()),
                _ => None,
            })
            .collect();
        let pending_async = graph.nodes().iter().map(|_| VecDeque::new()).collect();
        SyncRuntime {
            graph: graph.clone(),
            values,
            behaviors,
            pending_async,
            queue: VecDeque::new(),
            next_seq: 0,
            stats: Stats::new(),
            memoize,
            poisoned: vec![false; graph.len()],
            tracer: None,
            limits: None,
            event_timeout: None,
            trap_log: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Installs (or clears) per-event resource governance: `limits`
    /// bounds fuel/allocation/depth shared across all nodes of one
    /// event, and `event_timeout` gives every occurrence without its own
    /// deadline a wall-clock budget. A trapped event is rolled back
    /// completely — values, buffered `async` payloads, and queued
    /// follow-ups are restored, the node is *not* poisoned, and the round
    /// reports `NoChange` — so governance never diverges replayed state.
    pub fn set_governor(&mut self, limits: Option<EventLimits>, event_timeout: Option<Duration>) {
        self.limits = limits;
        self.event_timeout = event_timeout;
    }

    /// Drains the `(seq, kind)` log of events trapped since the last
    /// call.
    pub fn take_traps(&mut self) -> Vec<(u64, TrapKind)> {
        std::mem::take(&mut self.trap_log)
    }

    /// The execution counters for this run.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Attaches a tracing hub: every subsequently dispatched event gets a
    /// trace id and per-node spans.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The attached tracing hub, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Current value of any node.
    pub fn value(&self, id: NodeId) -> &Value {
        &self.values[id.index()]
    }

    /// Current value of the output (`main`) node.
    pub fn output_value(&self) -> &Value {
        self.value(self.graph.output())
    }

    /// Number of occurrences waiting in the event queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues an external occurrence.
    ///
    /// # Errors
    ///
    /// Fails if the occurrence does not target an input source of this
    /// graph or carries no payload.
    pub fn feed(&mut self, occ: Occurrence) -> Result<(), RunError> {
        match &self.graph.nodes().get(occ.source.index()).map(|n| &n.kind) {
            Some(NodeKind::Input { .. }) => {
                if occ.payload.is_none() {
                    return Err(RunError::MissingPayload(occ.source));
                }
                self.queue.push_back(occ);
                Ok(())
            }
            _ => Err(RunError::NotASource(occ.source)),
        }
    }

    /// Processes the next queued occurrence, if any, propagating it
    /// completely through the graph. Returns the resulting output event.
    pub fn step(&mut self) -> Option<OutputEvent> {
        let occ = self.queue.pop_front()?;
        Some(self.dispatch(occ))
    }

    /// Processes queued events (including any `async`-generated follow-ups)
    /// until the queue is empty, returning one output event per round.
    pub fn run_to_quiescence(&mut self) -> Vec<OutputEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.step() {
            out.push(ev);
        }
        out
    }

    /// Convenience: runs a whole input trace on a fresh runtime.
    ///
    /// # Errors
    ///
    /// Fails if any occurrence is invalid for `graph`.
    pub fn run_trace(
        graph: &SignalGraph,
        trace: impl IntoIterator<Item = Occurrence>,
    ) -> Result<Vec<OutputEvent>, RunError> {
        let mut rt = SyncRuntime::new(graph);
        let mut out = Vec::new();
        for occ in trace {
            rt.feed(occ)?;
            // Drain after each external event so async-generated events
            // interleave in FIFO order exactly as the dispatcher would.
            out.extend(rt.run_to_quiescence());
        }
        Ok(out)
    }

    /// Captures the runtime's complete mutable state (cheap: values are
    /// structurally shared, so this is mostly `Arc` bumps).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            fingerprint: self.graph.fingerprint(),
            next_seq: self.next_seq,
            values: self.values.clone(),
            poisoned: self.poisoned.clone(),
            pending_async: self.pending_async.clone(),
            queue: self.queue.clone(),
        }
    }

    /// Overwrites this runtime's state with `snap`, as if every event the
    /// snapshot had seen had just been replayed here. Behaviors are
    /// re-instantiated fresh (built-ins are stateless; see
    /// [`RuntimeSnapshot`]). Stats counters are *not* restored — they
    /// describe this runtime's own work, and a recovery host adds the
    /// replayed suffix on top.
    ///
    /// # Errors
    ///
    /// Fails with [`RunError::WorkerLost`] if the snapshot was taken from
    /// a structurally different graph.
    pub fn restore(&mut self, snap: &RuntimeSnapshot) -> Result<(), RunError> {
        if snap.fingerprint != self.graph.fingerprint() {
            return Err(RunError::WorkerLost(
                "snapshot does not match this signal graph".to_string(),
            ));
        }
        self.values = snap.values.clone();
        self.poisoned = snap.poisoned.clone();
        self.pending_async = snap.pending_async.clone();
        self.queue = snap.queue.clone();
        self.next_seq = snap.next_seq;
        self.behaviors = self
            .graph
            .nodes()
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Compute { spec } => Some(spec.instantiate()),
                _ => None,
            })
            .collect();
        Ok(())
    }

    fn dispatch(&mut self, occ: Occurrence) -> OutputEvent {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.record_event();

        let n = self.graph.len();
        let Scratch {
            mut changed,
            mut undo_values,
            mut undo_async_pushes,
        } = std::mem::take(&mut self.scratch);
        changed.clear();
        changed.resize(n, false);

        // Resource governance. Ungoverned dispatch (the default) pays one
        // bool check; governed dispatch activates a thread-local governor
        // that metered node functions draw fuel/allocation from, and keeps
        // an undo log so a trapped event rolls back to a no-op.
        let deadline = occ
            .deadline
            .or_else(|| self.event_timeout.map(|t| Instant::now() + t));
        let governed = self.limits.is_some() || deadline.is_some();
        let _scope = governed
            .then(|| governor::enter(self.limits.unwrap_or_else(EventLimits::unlimited), deadline));
        let mut undo_async_pop: Option<(usize, (Value, TraceId))> = None;
        let mut undo_queue_pushes = 0usize;

        // Tracing fast path: `tracer` is None (or disabled) in the default
        // configuration, so untraced dispatch pays one Option check.
        let tracer = self.tracer.as_ref().filter(|t| t.is_enabled()).cloned();
        let mut trace = match &tracer {
            Some(t) => t.ensure_trace(occ.trace),
            None => occ.trace,
        };
        let dispatch_ns = tracer.as_ref().map_or(0, |t| t.now_ns());

        // Stage 1: exactly one source is "relevant" to this event; all other
        // sources implicitly emit NoChange (paper §3.3.2).
        let src = occ.source;
        match &self.graph.node(src).kind {
            NodeKind::Input { .. } => {
                let v = occ
                    .payload
                    .clone()
                    .expect("feed() guarantees input occurrences carry payloads");
                if governed {
                    undo_values.push((src.index(), self.values[src.index()].clone()));
                }
                self.values[src.index()] = v;
                changed[src.index()] = true;
                if let Some(t) = &tracer {
                    let now = t.now_ns();
                    t.record(NodeSpan {
                        trace,
                        seq,
                        node: src.0,
                        kind: SpanKind::Input,
                        start_ns: dispatch_ns,
                        end_ns: now,
                        queue_ns: 0,
                        changed: true,
                        panicked: false,
                    });
                }
            }
            NodeKind::Async { .. } => {
                if let Some((v, buffered_trace)) = self.pending_async[src.index()].pop_front() {
                    if governed {
                        undo_async_pop = Some((src.index(), (v.clone(), buffered_trace)));
                        undo_values.push((src.index(), self.values[src.index()].clone()));
                    }
                    self.values[src.index()] = v;
                    changed[src.index()] = true;
                    // The async re-entry continues the trace of the event
                    // whose propagation buffered this value.
                    if !buffered_trace.is_none() {
                        trace = buffered_trace;
                    }
                    if let Some(t) = &tracer {
                        let now = t.now_ns();
                        t.record(NodeSpan {
                            trace,
                            seq,
                            node: src.0,
                            kind: SpanKind::Async,
                            start_ns: dispatch_ns,
                            end_ns: now,
                            queue_ns: 0,
                            changed: true,
                            panicked: false,
                        });
                    }
                }
            }
            NodeKind::Compute { .. } => {
                unreachable!("compute nodes never appear as occurrence sources")
            }
        }

        // Stage 2: propagate in topological (= id) order. Node ids are a
        // topological order by construction, so a single left-to-right pass
        // is a complete synchronous propagation.
        for idx in 0..n {
            if governed && governor::trapped().is_some() {
                // A node function trapped; stop propagating — the whole
                // round is rolled back below.
                break;
            }
            let node = &self.graph.nodes()[idx];
            match &node.kind {
                NodeKind::Input { .. } => {}
                NodeKind::Async { inner } => {
                    // The secondary subgraph produced a change this round:
                    // buffer it and schedule a fresh global event (FIFO).
                    // The buffered value keeps this round's trace id so the
                    // handoff lands in the same causal trace.
                    if changed[inner.index()] {
                        self.pending_async[idx]
                            .push_back((self.values[inner.index()].clone(), trace));
                        self.queue
                            .push_back(Occurrence::async_ready(node.id).with_trace(trace));
                        self.stats.record_async_event();
                        if governed {
                            undo_async_pushes.push(idx);
                            undo_queue_pushes += 1;
                        }
                    }
                }
                NodeKind::Compute { .. } => {
                    self.stats.record_message();
                    if self.poisoned[idx] {
                        // A previous panic poisoned this node; it emits
                        // NoChange forever (same as the concurrent
                        // scheduler, which must keep its message protocol
                        // alive).
                        continue;
                    }
                    let any_changed = node.parents.iter().any(|p| changed[p.index()]);
                    if self.memoize && !any_changed {
                        self.stats.record_memo_skip();
                        continue;
                    }
                    if deadline.is_some() && governor::deadline_blown(Instant::now()) {
                        // Check between node computations so even
                        // non-metered (native Rust) node functions cannot
                        // extend an event past its deadline unobserved.
                        // Events without a deadline skip reading the clock.
                        governor::record_trap(TrapKind::DeadlineExceeded);
                        break;
                    }
                    let prev = self.values[idx].clone();
                    self.stats.record_computation();
                    let behavior = self.behaviors[idx]
                        .as_mut()
                        .expect("compute nodes always have behaviors");
                    let start_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
                    // A panicking node function poisons the node rather
                    // than tearing down the whole runtime — single-threaded
                    // parity with the concurrent scheduler's behavior.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        with_parent_inputs(
                            &node.parents,
                            // Ablation: without NoChange tracking a node
                            // cannot know which inputs changed; everything
                            // looks new.
                            self.memoize.then_some(&changed[..]),
                            &self.values,
                            |flags, values| {
                                behavior.step(StepInputs {
                                    changed: flags,
                                    values,
                                    prev: &prev,
                                })
                            },
                        )
                    }));
                    let panicked = out.is_err();
                    match out {
                        Ok(Some(v)) => {
                            if governed {
                                undo_values.push((idx, prev.clone()));
                            }
                            self.values[idx] = v;
                            changed[idx] = true;
                        }
                        Ok(None) => {}
                        Err(_) => {
                            self.poisoned[idx] = true;
                            self.stats.record_node_panic();
                        }
                    }
                    if let Some(t) = &tracer {
                        let end_ns = t.now_ns();
                        t.record(NodeSpan {
                            trace,
                            seq,
                            node: idx as u32,
                            kind: SpanKind::Compute,
                            start_ns,
                            end_ns,
                            queue_ns: start_ns.saturating_sub(dispatch_ns),
                            changed: changed[idx],
                            panicked,
                        });
                    }
                }
            }
        }

        let trapped = if governed {
            governor::take_trap()
        } else {
            None
        };
        let out_id = self.graph.output();
        let output = match trapped {
            Some(kind) => {
                // Roll the whole round back: the trapped event becomes a
                // deterministic no-op. Values are restored, the async pop
                // is un-popped, and this round's async/queue pushes are
                // removed, so replaying the surviving suffix of events on
                // a fresh runtime reproduces this state exactly.
                for (idx, v) in undo_values.drain(..).rev() {
                    self.values[idx] = v;
                }
                for idx in undo_async_pushes.iter().rev() {
                    self.pending_async[*idx].pop_back();
                }
                for _ in 0..undo_queue_pushes {
                    self.queue.pop_back();
                }
                if let Some((idx, entry)) = undo_async_pop {
                    self.pending_async[idx].push_front(entry);
                }
                self.stats.record_trap();
                self.trap_log.push((seq, kind));
                Propagated::NoChange
            }
            None if changed[out_id.index()] => {
                Propagated::Change(self.values[out_id.index()].clone())
            }
            None => Propagated::NoChange,
        };
        undo_values.clear();
        undo_async_pushes.clear();
        self.scratch = Scratch {
            changed,
            undo_values,
            undo_async_pushes,
        };
        OutputEvent {
            seq,
            source: src,
            output,
        }
    }
}

/// Calls `f` with one node's per-parent change flags (all `true` when
/// `changed` is `None`, the no-memoization ablation) and current parent
/// values. Up to [`INLINE_PARENTS`] parents are gathered on the stack, so
/// the common node computation allocates nothing here.
fn with_parent_inputs<R>(
    parents: &[NodeId],
    changed: Option<&[bool]>,
    values: &[Value],
    f: impl FnOnce(&[bool], &[&Value]) -> R,
) -> R {
    let flag = |p: &NodeId| changed.is_none_or(|c| c[p.index()]);
    let k = parents.len();
    if k > INLINE_PARENTS {
        let flags: Vec<bool> = parents.iter().map(flag).collect();
        let vals: Vec<&Value> = parents.iter().map(|p| &values[p.index()]).collect();
        return f(&flags, &vals);
    }
    let mut flags = [true; INLINE_PARENTS];
    let mut vals = [&values[parents[0].index()]; INLINE_PARENTS];
    for (i, p) in parents.iter().enumerate() {
        flags[i] = flag(p);
        vals[i] = &values[p.index()];
    }
    f(&flags[..k], &vals[..k])
}

/// Parents gathered on the stack by [`with_parent_inputs`]; nodes with
/// more fall back to heap buffers.
const INLINE_PARENTS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::changed_values;
    use crate::graph::GraphBuilder;

    fn int(v: &Value) -> i64 {
        v.as_int().unwrap()
    }

    #[test]
    fn lift_recomputes_only_on_relevant_events() {
        // Fig. 7 graph: relative mouse position.
        let mut g = GraphBuilder::new();
        let mouse_x = g.input("Mouse.x", 0i64);
        let width = g.input("Window.width", 100i64);
        let rel = g.lift2(
            "ratio",
            |y, z| Value::Int(100 * int(y) / int(z).max(1)),
            mouse_x,
            width,
        );
        let graph = g.finish(rel).unwrap();

        let outs = SyncRuntime::run_trace(
            &graph,
            [
                Occurrence::input(mouse_x, 50i64),
                Occurrence::input(width, 200i64),
                Occurrence::input(mouse_x, 100i64),
            ],
        )
        .unwrap();
        assert_eq!(
            changed_values(&outs),
            vec![Value::Int(50), Value::Int(25), Value::Int(50)]
        );
    }

    #[test]
    fn foldp_counts_only_its_own_events() {
        // §3.3.2: the key-press counter must ignore mouse events.
        let mut g = GraphBuilder::new();
        let keys = g.input("Keyboard.lastPressed", 0i64);
        let mouse = g.input("Mouse.x", 0i64);
        let count = g.foldp("count", |_k, acc| Value::Int(int(acc) + 1), 0i64, keys);
        let both = g.lift2(
            "pair",
            |c, m| Value::pair(c.clone(), m.clone()),
            count,
            mouse,
        );
        let graph = g.finish(both).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        rt.feed(Occurrence::input(keys, 65i64)).unwrap();
        rt.feed(Occurrence::input(mouse, 10i64)).unwrap();
        rt.feed(Occurrence::input(mouse, 20i64)).unwrap();
        rt.feed(Occurrence::input(keys, 66i64)).unwrap();
        rt.run_to_quiescence();
        assert_eq!(int(rt.value(count)), 2);
    }

    #[test]
    fn without_memoization_foldp_is_wrong() {
        // The ablation demonstrates why NoChange is "critical to ensure
        // correct execution" (§3.3.2).
        let mut g = GraphBuilder::new();
        let keys = g.input("keys", 0i64);
        let mouse = g.input("mouse", 0i64);
        let count = g.foldp("count", |_k, acc| Value::Int(int(acc) + 1), 0i64, keys);
        let both = g.lift2(
            "pair",
            |c, m| Value::pair(c.clone(), m.clone()),
            count,
            mouse,
        );
        let graph = g.finish(both).unwrap();

        let mut rt = SyncRuntime::with_memoization(&graph, false);
        for occ in [
            Occurrence::input(keys, 65i64),
            Occurrence::input(mouse, 1i64),
            Occurrence::input(mouse, 2i64),
        ] {
            rt.feed(occ).unwrap();
        }
        rt.run_to_quiescence();
        // One key press, but the broken counter saw all three events.
        assert_eq!(int(rt.value(count)), 3);
    }

    #[test]
    fn memoization_skips_unchanged_subgraphs() {
        let mut g = GraphBuilder::new();
        let a = g.input("a", 0i64);
        let b = g.input("b", 0i64);
        let fa = g.lift1("fa", |v| v.clone(), a);
        let fb = g.lift1("fb", |v| v.clone(), b);
        let join = g.lift2("join", |x, y| Value::pair(x.clone(), y.clone()), fa, fb);
        let graph = g.finish(join).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        rt.feed(Occurrence::input(a, 1i64)).unwrap();
        rt.run_to_quiescence();
        let snap = rt.stats().snapshot();
        // fa and join recomputed; fb was skipped.
        assert_eq!(snap.computations, 2);
        assert_eq!(snap.memo_skips, 1);
    }

    #[test]
    fn async_events_are_queued_fifo_and_processed_later() {
        // Fig. 8(c): primary graph pairs async word-pairs with the mouse.
        let mut g = GraphBuilder::new();
        let words = g.input("words", Value::str(""));
        let translated = g.lift1(
            "toFrench",
            |w| Value::str(format!("fr:{}", w.as_str().unwrap_or(""))),
            words,
        );
        let a = g.async_source(translated);
        let mouse = g.input("mouse", 0i64);
        let main = g.lift2("scene", |t, m| Value::pair(t.clone(), m.clone()), a, mouse);
        let graph = g.finish(main).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        rt.feed(Occurrence::input(words, "cat")).unwrap();
        rt.feed(Occurrence::input(mouse, 5i64)).unwrap();
        let outs = rt.run_to_quiescence();

        // Round 0: words event — secondary subgraph computes, async queues a
        // new event; main does NOT change yet (async emitted NoChange).
        assert_eq!(outs[0].output, Propagated::NoChange);
        // Round 1: mouse event (was queued before the async-generated one).
        assert_eq!(
            outs[1].value().unwrap().as_pair().unwrap().1,
            &Value::Int(5)
        );
        // Round 2: the async event delivers the translation.
        assert_eq!(
            outs[2].value().unwrap().as_pair().unwrap().0,
            &Value::str("fr:cat")
        );
        assert_eq!(rt.stats().async_events(), 1);
        assert_eq!(rt.stats().events(), 3);
    }

    #[test]
    fn async_default_value_is_inner_default() {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 7i64);
        let a = g.async_source(i);
        let graph = g.finish(a).unwrap();
        let rt = SyncRuntime::new(&graph);
        assert_eq!(rt.value(a), &Value::Int(7));
    }

    #[test]
    fn feed_rejects_non_sources_and_missing_payloads() {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        let l = g.lift1("id", |v| v.clone(), i);
        let graph = g.finish(l).unwrap();
        let mut rt = SyncRuntime::new(&graph);
        assert_eq!(
            rt.feed(Occurrence::input(l, 0i64)),
            Err(RunError::NotASource(l))
        );
        assert_eq!(
            rt.feed(Occurrence {
                source: i,
                payload: None,
                trace: TraceId::NONE,
                deadline: None,
            }),
            Err(RunError::MissingPayload(i))
        );
    }

    #[test]
    fn panicking_node_is_poisoned_not_fatal() {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        let risky = g.lift1(
            "risky",
            |v| match v {
                Value::Int(n) if *n < 0 => panic!("negative"),
                v => v.clone(),
            },
            i,
        );
        let graph = g.finish(risky).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        rt.feed(Occurrence::input(i, 3i64)).unwrap();
        rt.feed(Occurrence::input(i, -1i64)).unwrap();
        rt.feed(Occurrence::input(i, 9i64)).unwrap();
        let outs = rt.run_to_quiescence();
        // The panic becomes NoChange; the node never computes again.
        assert_eq!(changed_values(&outs), vec![Value::Int(3)]);
        assert_eq!(rt.stats().node_panics(), 1);
        assert_eq!(rt.value(risky), &Value::Int(3));
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        // foldp state lives in the node's prev value, so restore + resume
        // must continue the fold where the snapshot left it.
        let mut g = GraphBuilder::new();
        let clicks = g.input("clicks", Value::Unit);
        let count = g.foldp("count", |_, acc| Value::Int(int(acc) + 1), 0i64, clicks);
        let graph = g.finish(count).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        for _ in 0..3 {
            rt.feed(Occurrence::input(clicks, Value::Unit)).unwrap();
        }
        rt.run_to_quiescence();
        let snap = rt.snapshot();
        assert_eq!(snap.next_seq(), 3);

        let mut fresh = SyncRuntime::new(&graph);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.value(count), &Value::Int(3));
        fresh.feed(Occurrence::input(clicks, Value::Unit)).unwrap();
        fresh.run_to_quiescence();
        assert_eq!(fresh.value(count), &Value::Int(4));
    }

    #[test]
    fn snapshot_preserves_poisoning_and_queued_events() {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        let risky = g.lift1(
            "risky",
            |v| match v {
                Value::Int(n) if *n < 0 => panic!("negative"),
                v => v.clone(),
            },
            i,
        );
        let graph = g.finish(risky).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        rt.feed(Occurrence::input(i, 3i64)).unwrap();
        rt.feed(Occurrence::input(i, -1i64)).unwrap();
        rt.run_to_quiescence();
        // Queue one event but do not dispatch it before snapshotting.
        rt.feed(Occurrence::input(i, 7i64)).unwrap();
        let snap = rt.snapshot();
        assert_eq!(snap.queued_events(), 1);

        let mut fresh = SyncRuntime::new(&graph);
        fresh.restore(&snap).unwrap();
        let outs = fresh.run_to_quiescence();
        // The poisoned node stays poisoned: the queued event is dispatched
        // but produces NoChange, and no new panic is counted.
        assert_eq!(changed_values(&outs), Vec::<Value>::new());
        assert_eq!(fresh.stats().node_panics(), 0);
        assert_eq!(fresh.value(risky), &Value::Int(3));
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let mut g1 = GraphBuilder::new();
        let a = g1.input("a", 0i64);
        let graph1 = g1.finish(a).unwrap();

        let mut g2 = GraphBuilder::new();
        let b = g2.input("b", 0i64);
        let graph2 = g2.finish(b).unwrap();

        let rt1 = SyncRuntime::new(&graph1);
        let mut rt2 = SyncRuntime::new(&graph2);
        assert!(rt2.restore(&rt1.snapshot()).is_err());
        assert_ne!(graph1.fingerprint(), graph2.fingerprint());
    }

    #[test]
    fn tracer_spans_cover_async_handoff_in_one_trace() {
        let mut g = GraphBuilder::new();
        let words = g.input("words", Value::str(""));
        let slow = g.lift1("slow", |v| v.clone(), words);
        let a = g.async_source(slow);
        let main = g.lift1("render", |v| v.clone(), a);
        let graph = g.finish(main).unwrap();

        let mut rt = SyncRuntime::new(&graph);
        let tracer = Tracer::for_graph(&graph);
        rt.set_tracer(Arc::clone(&tracer));
        rt.feed(Occurrence::input(words, "cat")).unwrap();
        rt.run_to_quiescence();

        let spans = tracer.drain_spans();
        let trees = crate::tracing::assemble(&spans, &graph);
        // One ingress event, two rounds (ingress + async handoff), one trace.
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(
            tree.node_set(),
            crate::tracing::reachable_from(&graph, words)
        );
        let seqs: Vec<u64> = tree.spans.iter().map(|s| s.seq).collect();
        assert!(seqs.contains(&0) && seqs.contains(&1));
        // The async span's parent is the wrapped inner node's span.
        let async_idx = tree
            .spans
            .iter()
            .position(|s| s.kind == SpanKind::Async)
            .unwrap();
        let parent = tree.parent[async_idx].unwrap();
        assert_eq!(tree.spans[parent].node, slow.0);
    }

    /// A node reporting what dispatch hands it: one `(changed, value)` pair
    /// per parent. Run with 3 parents (gathered on the stack) and 6 (heap
    /// fallback), with and without memoization.
    #[test]
    fn nodes_see_each_parents_flag_and_value() {
        use crate::behavior::Custom;
        struct Report;
        impl NodeBehavior for Report {
            fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
                Some(Value::list(
                    inputs
                        .changed
                        .iter()
                        .zip(inputs.values)
                        .map(|(c, v)| Value::pair(Value::Bool(*c), (*v).clone())),
                ))
            }
        }
        for width in [3usize, 6] {
            for memoize in [true, false] {
                let mut g = GraphBuilder::new();
                let inputs: Vec<NodeId> = (0..width)
                    .map(|k| g.input(format!("in{k}"), k as i64))
                    .collect();
                let report = g.compute(
                    "report",
                    Custom::new("report", Value::Unit, || Box::new(Report)),
                    inputs.clone(),
                );
                let graph = g.finish(report).unwrap();
                let mut rt = SyncRuntime::with_memoization(&graph, memoize);
                rt.feed(Occurrence::input(inputs[1], 40i64)).unwrap();
                rt.run_to_quiescence();
                let want = Value::list((0..width).map(|k| {
                    let v = if k == 1 { 40 } else { k as i64 };
                    Value::pair(Value::Bool(k == 1 || !memoize), Value::Int(v))
                }));
                assert_eq!(rt.value(report), &want, "width {width}, memoize {memoize}");
            }
        }
    }

    #[test]
    fn drop_repeats_and_keep_if_interact_with_memoization() {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        let dr = g.drop_repeats(i);
        let even = g.keep_if(|v| int(v) % 2 == 0, 0i64, dr);
        let count = g.foldp("count", |_v, acc| Value::Int(int(acc) + 1), 0i64, even);
        let graph = g.finish(count).unwrap();

        let trace = [2i64, 2, 4, 5, 5, 6].map(|v| Occurrence::input(i, v));
        let outs = SyncRuntime::run_trace(&graph, trace).unwrap();
        // Changes reaching the counter: 2, 4, 6  (dup 2 and 5s filtered).
        assert_eq!(changed_values(&outs).last(), Some(&Value::Int(3)));
    }
}
