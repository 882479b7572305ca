//! Compiled reactive programs and their execution.
//!
//! [`Program`] is the result of finalizing a [`crate::SignalNetwork`]: an
//! immutable signal graph with a typed `main` output. It can be executed on
//! either scheduler:
//!
//! * [`Engine::Concurrent`] — the paper's pipelined thread-per-node
//!   semantics,
//! * [`Engine::Synchronous`] — the deterministic one-event-at-a-time
//!   reference (no pipelining, no wall-clock concurrency).
//!
//! Programs behave identically on both engines up to the interleaving
//! freedom that `async` deliberately introduces.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use elm_runtime::{
    ConcurrentRuntime, NodeId, Occurrence, OutputEvent, RunError, RuntimeSnapshot, SignalGraph,
    StatsSnapshot, SyncRuntime, Trace, Tracer, Value,
};

use crate::convert::SignalValue;
use crate::network::InputHandle;

/// Which scheduler executes the program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Thread-per-node pipelined execution (paper §3.3.2).
    #[default]
    Concurrent,
    /// Single-threaded globally-ordered execution (the conceptual
    /// semantics; deterministic).
    Synchronous,
}

/// A finalized reactive program whose output signal carries `T`.
#[derive(Clone, Debug)]
pub struct Program<T> {
    graph: SignalGraph,
    _marker: PhantomData<fn() -> T>,
}

impl Program<Value> {
    /// Wraps an already-built signal graph (e.g. compiled by `felm`) as a
    /// dynamically-typed program: the output signal carries raw [`Value`]s.
    ///
    /// This is the entry point for hosts that receive graphs at runtime —
    /// like the multi-session server — rather than building them through
    /// [`crate::SignalNetwork`]'s typed combinators.
    pub fn from_dynamic_graph(graph: SignalGraph) -> Self {
        Program::from_graph(graph)
    }
}

impl<T: SignalValue> Program<T> {
    pub(crate) fn from_graph(graph: SignalGraph) -> Self {
        Program {
            graph,
            _marker: PhantomData,
        }
    }

    /// The underlying signal graph.
    pub fn graph(&self) -> &SignalGraph {
        &self.graph
    }

    /// Renders the signal graph as Graphviz DOT (paper Figs. 7–8).
    pub fn to_dot(&self) -> String {
        elm_runtime::dot::to_dot(&self.graph)
    }

    /// The output's default value — what the screen shows before any event.
    pub fn initial_value(&self) -> T {
        T::from_value_unwrap(&self.graph.node(self.graph.output()).default)
    }

    /// Starts executing on `engine`.
    pub fn start(&self, engine: Engine) -> Running<T> {
        self.start_observed(engine, None)
    }

    /// Starts executing on `engine` with an optional causal [`Tracer`]
    /// attached: every ingress event gets a trace id and each node that
    /// computes records a span, so the propagation of a single event can be
    /// reconstructed as a span tree afterwards.
    ///
    /// Passing `None` is exactly [`Program::start`] — no tracing overhead.
    pub fn start_observed(&self, engine: Engine, tracer: Option<Arc<Tracer>>) -> Running<T> {
        let inner = match engine {
            Engine::Concurrent => {
                Inner::Concurrent(ConcurrentRuntime::start_with_tracer(&self.graph, tracer))
            }
            Engine::Synchronous => {
                let mut rt = SyncRuntime::new(&self.graph);
                if let Some(t) = tracer {
                    rt.set_tracer(t);
                }
                Inner::Synchronous(Box::new(rt))
            }
        };
        Running {
            inner,
            graph: self.graph.clone(),
            current: self.initial_value(),
            _marker: PhantomData,
        }
    }
}

enum Inner {
    Concurrent(ConcurrentRuntime),
    // Boxed: the synchronous engine carries its per-event scratch buffers
    // inline and is several times the concurrent handle's size.
    Synchronous(Box<SyncRuntime>),
}

/// A running program: feed inputs, observe outputs.
pub struct Running<T> {
    inner: Inner,
    graph: SignalGraph,
    current: T,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SignalValue> Running<T> {
    /// Sends a typed event to an input.
    ///
    /// # Errors
    ///
    /// Fails if the handle belongs to a different graph or the runtime has
    /// stopped.
    pub fn send<U: SignalValue>(
        &mut self,
        input: &InputHandle<U>,
        value: U,
    ) -> Result<(), RunError> {
        let occ = Occurrence::input(input.node_id(), value.into_value());
        match &mut self.inner {
            Inner::Concurrent(rt) => rt.feed(occ),
            Inner::Synchronous(rt) => rt.feed(occ),
        }
    }

    /// Sends a dynamic event to an input identified by its environment
    /// name (e.g. `"Mouse.position"`).
    ///
    /// # Errors
    ///
    /// Fails if no input with that name exists.
    pub fn send_named(&mut self, name: &str, value: Value) -> Result<(), RunError> {
        let id = self
            .graph
            .input_named(name)
            .ok_or_else(|| RunError::WorkerLost(format!("unknown input '{name}'")))?;
        self.send_input(id, value)
    }

    /// Sends a dynamic event to an input node, for callers that already
    /// resolved its name with [`SignalGraph::input_named`].
    ///
    /// # Errors
    ///
    /// Fails if `id` is not an input of this program's graph or the
    /// runtime has stopped.
    pub fn send_input(&mut self, id: NodeId, value: Value) -> Result<(), RunError> {
        let occ = Occurrence::input(id, value);
        match &mut self.inner {
            Inner::Concurrent(rt) => rt.feed(occ),
            Inner::Synchronous(rt) => rt.feed(occ),
        }
    }

    /// Sends a batch of dynamic events, each addressed by input name, in
    /// order. One name resolution error aborts the batch at that point:
    /// earlier events are already queued, the failing one and everything
    /// after it are not.
    ///
    /// This is the bulk ingress path used by the multi-session server —
    /// resolving names once per event but making only one pass over the
    /// engine dispatch.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown input name or if the runtime has
    /// stopped.
    pub fn feed_batch(&mut self, events: &[(&str, Value)]) -> Result<(), RunError> {
        for (name, value) in events {
            let id = self
                .graph
                .input_named(name)
                .ok_or_else(|| RunError::WorkerLost(format!("unknown input '{name}'")))?;
            self.send_input(id, value.clone())?;
        }
        Ok(())
    }

    /// Feeds every event of a recorded trace (ignoring its timestamps).
    ///
    /// # Errors
    ///
    /// Fails if the trace references inputs this program does not declare.
    pub fn send_trace(&mut self, trace: &Trace) -> Result<(), RunError> {
        for occ in trace.to_occurrences(&self.graph)? {
            match &mut self.inner {
                Inner::Concurrent(rt) => rt.feed(occ)?,
                Inner::Synchronous(rt) => rt.feed(occ)?,
            }
        }
        Ok(())
    }

    /// Processes all in-flight events (including `async` follow-ups) and
    /// returns the raw per-event output log.
    ///
    /// # Errors
    ///
    /// Fails if worker threads died.
    pub fn drain_raw(&mut self) -> Result<Vec<OutputEvent>, RunError> {
        let events = match &mut self.inner {
            Inner::Concurrent(rt) => rt.drain()?,
            Inner::Synchronous(rt) => rt.run_to_quiescence(),
        };
        if let Some(v) = events.iter().rev().find_map(|e| e.value()) {
            self.current = T::from_value_unwrap(v);
        }
        Ok(events)
    }

    /// Processes all in-flight events and returns the sequence of values
    /// the output signal took — what a user would see rendered.
    ///
    /// # Errors
    ///
    /// Fails if worker threads died.
    pub fn drain_changes(&mut self) -> Result<Vec<T>, RunError> {
        Ok(self
            .drain_raw()?
            .iter()
            .filter_map(|e| e.value())
            .map(T::from_value_unwrap)
            .collect())
    }

    /// The most recent output value (the default before any change).
    pub fn current(&self) -> &T {
        &self.current
    }

    /// Waits up to `timeout` for the next *changed* output, without a full
    /// drain. Only meaningful on the concurrent engine, where outputs
    /// stream in as they are computed; on the synchronous engine this
    /// processes queued events one at a time.
    pub fn next_change(&mut self, timeout: Duration) -> Option<T> {
        match &mut self.inner {
            Inner::Concurrent(rt) => {
                let deadline = std::time::Instant::now() + timeout;
                loop {
                    let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
                    let ev = rt.next_output(remaining)?;
                    if let Some(v) = ev.value() {
                        let t = T::from_value_unwrap(v);
                        self.current = t.clone();
                        return Some(t);
                    }
                }
            }
            Inner::Synchronous(rt) => {
                while let Some(ev) = rt.step() {
                    if let Some(v) = ev.value() {
                        let t = T::from_value_unwrap(v);
                        self.current = t.clone();
                        return Some(t);
                    }
                }
                None
            }
        }
    }

    /// Captures the runtime's mutable state for crash recovery. Only the
    /// deterministic synchronous engine supports this (the concurrent
    /// engine's state is spread across worker threads); returns `None`
    /// there.
    pub fn snapshot(&self) -> Option<RuntimeSnapshot> {
        match &self.inner {
            Inner::Concurrent(_) => None,
            Inner::Synchronous(rt) => Some(rt.snapshot()),
        }
    }

    /// Restores state captured by [`Running::snapshot`], refreshing the
    /// cached current output value. Synchronous engine only.
    ///
    /// # Errors
    ///
    /// Fails on the concurrent engine or if the snapshot belongs to a
    /// structurally different graph.
    pub fn restore(&mut self, snap: &RuntimeSnapshot) -> Result<(), RunError> {
        match &mut self.inner {
            Inner::Concurrent(_) => Err(RunError::WorkerLost(
                "snapshot/restore requires the synchronous engine".to_string(),
            )),
            Inner::Synchronous(rt) => {
                rt.restore(snap)?;
                self.current = T::from_value_unwrap(rt.output_value());
                Ok(())
            }
        }
    }

    /// Installs per-event resource governance on the synchronous engine:
    /// `limits` bounds fuel/allocation/depth per event, `event_timeout`
    /// gives every event a wall-clock deadline. A no-op on the concurrent
    /// engine (whose node computations run on worker threads outside the
    /// governor's thread-local scope).
    pub fn set_governor(
        &mut self,
        limits: Option<elm_runtime::EventLimits>,
        event_timeout: Option<Duration>,
    ) {
        if let Inner::Synchronous(rt) = &mut self.inner {
            rt.set_governor(limits, event_timeout);
        }
    }

    /// Drains the `(seq, kind)` log of governor-trapped events.
    /// Always empty on the concurrent engine.
    pub fn take_traps(&mut self) -> Vec<(u64, elm_runtime::TrapKind)> {
        match &mut self.inner {
            Inner::Concurrent(_) => Vec::new(),
            Inner::Synchronous(rt) => rt.take_traps(),
        }
    }

    /// The tracer attached at [`Program::start_observed`] time, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        match &self.inner {
            Inner::Concurrent(rt) => rt.tracer(),
            Inner::Synchronous(rt) => rt.tracer(),
        }
    }

    /// Execution counters.
    pub fn stats(&self) -> StatsSnapshot {
        match &self.inner {
            Inner::Concurrent(rt) => rt.stats().snapshot(),
            Inner::Synchronous(rt) => rt.stats().snapshot(),
        }
    }

    /// Stops the program (joins worker threads on the concurrent engine).
    pub fn stop(self) {
        if let Inner::Concurrent(rt) = self.inner {
            rt.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{lift2, SignalNetwork};

    fn counter_program() -> (Program<i64>, InputHandle<()>) {
        let mut net = SignalNetwork::new();
        let (clicks, h) = net.input::<()>("Mouse.clicks", ());
        let count = clicks.count();
        (net.program(&count).unwrap(), h)
    }

    #[test]
    fn both_engines_agree_on_counter() {
        let (prog, h) = counter_program();
        for engine in [Engine::Synchronous, Engine::Concurrent] {
            let mut run = prog.start(engine);
            assert_eq!(run.current(), &0);
            for _ in 0..5 {
                run.send(&h, ()).unwrap();
            }
            let outs = run.drain_changes().unwrap();
            assert_eq!(outs, vec![1, 2, 3, 4, 5], "{engine:?}");
            assert_eq!(run.current(), &5);
            run.stop();
        }
    }

    #[test]
    fn initial_value_is_the_induced_default() {
        let mut net = SignalNetwork::new();
        let (w, _h) = net.input::<i64>("Window.width", 800);
        let half = w.map(|v| v / 2);
        let prog = net.program(&half).unwrap();
        assert_eq!(prog.initial_value(), 400);
    }

    #[test]
    fn send_named_resolves_inputs() {
        let (prog, _h) = counter_program();
        let mut run = prog.start(Engine::Synchronous);
        run.send_named("Mouse.clicks", Value::Unit).unwrap();
        assert!(run.send_named("Nope", Value::Unit).is_err());
        assert_eq!(run.drain_changes().unwrap(), vec![1]);
    }

    #[test]
    fn feed_batch_queues_in_order_and_stops_at_first_error() {
        let (prog, _h) = counter_program();
        let mut run = prog.start(Engine::Synchronous);
        run.feed_batch(&[("Mouse.clicks", Value::Unit), ("Mouse.clicks", Value::Unit)])
            .unwrap();
        assert_eq!(run.drain_changes().unwrap(), vec![1, 2]);

        // Unknown name aborts mid-batch: the first event still lands.
        let err = run.feed_batch(&[
            ("Mouse.clicks", Value::Unit),
            ("No.such.input", Value::Unit),
            ("Mouse.clicks", Value::Unit),
        ]);
        assert!(err.is_err());
        assert_eq!(run.drain_changes().unwrap(), vec![3]);
    }

    #[test]
    fn send_trace_replays_recordings() {
        use elm_runtime::PlainValue;
        let mut net = SignalNetwork::new();
        let (x, _h) = net.input::<i64>("x", 0);
        let (y, _h2) = net.input::<i64>("y", 0);
        let main = lift2(|a, b| a + b, &x, &y);
        let prog = net.program(&main).unwrap();

        let mut trace = Trace::new();
        trace.push(0, "x", PlainValue::Int(1));
        trace.push(5, "y", PlainValue::Int(10));
        trace.push(9, "x", PlainValue::Int(2));

        let mut run = prog.start(Engine::Synchronous);
        run.send_trace(&trace).unwrap();
        assert_eq!(run.drain_changes().unwrap(), vec![1, 11, 12]);
    }

    #[test]
    fn next_change_streams_individual_updates() {
        let (prog, h) = counter_program();
        let mut run = prog.start(Engine::Concurrent);
        run.send(&h, ()).unwrap();
        run.send(&h, ()).unwrap();
        assert_eq!(run.next_change(Duration::from_secs(5)), Some(1));
        assert_eq!(run.next_change(Duration::from_secs(5)), Some(2));
        assert_eq!(run.next_change(Duration::from_millis(50)), None);
        run.stop();
    }

    #[test]
    fn snapshot_restore_round_trips_on_the_sync_engine() {
        let (prog, h) = counter_program();
        let mut run = prog.start(Engine::Synchronous);
        for _ in 0..3 {
            run.send(&h, ()).unwrap();
        }
        run.drain_changes().unwrap();
        let snap = run.snapshot().expect("sync engine snapshots");

        let mut restored = prog.start(Engine::Synchronous);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.current(), &3);
        restored.send(&h, ()).unwrap();
        assert_eq!(restored.drain_changes().unwrap(), vec![4]);

        // The concurrent engine refuses both directions.
        let mut conc = prog.start(Engine::Concurrent);
        assert!(conc.snapshot().is_none());
        assert!(conc.restore(&snap).is_err());
        conc.stop();
    }

    #[test]
    fn start_observed_records_spans_on_both_engines() {
        let (prog, h) = counter_program();
        for engine in [Engine::Synchronous, Engine::Concurrent] {
            let tracer = Tracer::for_graph(prog.graph());
            tracer.set_enabled(true);
            let mut run = prog.start_observed(engine, Some(tracer.clone()));
            run.send(&h, ()).unwrap();
            run.drain_changes().unwrap();
            run.stop();
            let spans = tracer.drain_spans();
            assert!(!spans.is_empty(), "{engine:?} recorded no spans");
            assert!(spans.iter().all(|s| !s.trace.is_none()), "{engine:?}");
        }
        // Plain start attaches no tracer.
        let run = prog.start(Engine::Synchronous);
        assert!(run.tracer().is_none());
    }

    #[test]
    fn dot_rendering_is_exposed() {
        let (prog, _h) = counter_program();
        let dot = prog.to_dot();
        assert!(dot.contains("Mouse.clicks"));
        assert!(dot.contains("foldp"));
    }
}
