//! Building typed signal networks.
//!
//! A [`SignalNetwork`] is the construction scope of one reactive program:
//! Elm's top level, or the first evaluation stage of FElm (which reduces a
//! program to a signal term — here, you build the signal term directly with
//! typed combinators). Finish with [`SignalNetwork::program`], naming the
//! `main` signal, then execute on any scheduler via
//! [`crate::program::Program`].
//!
//! The combinators mirror the paper: `lift`/`lift2`/`lift3` (§2),
//! `foldp` (§3.1), `async` (§3.3.2), and the full-language library signals
//! of §4.2 (`merge`, `sampleOn`, `keepIf`, `dropRepeats`, `count`, …).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use elm_runtime::{GraphBuilder, GraphError, NodeId, Value};

use crate::convert::SignalValue;
use crate::program::Program;

type SharedBuilder = Rc<RefCell<GraphBuilder>>;

/// The construction scope for one reactive program.
///
/// ```
/// use elm_signals::SignalNetwork;
///
/// let mut net = SignalNetwork::new();
/// let (mouse, mouse_in) = net.input::<(i64, i64)>("Mouse.position", (0, 0));
/// let shown = mouse.map(|(x, y)| format!("({x}, {y})"));
/// let program = net.program(&shown).unwrap();
/// # let _ = (program, mouse_in);
/// ```
pub struct SignalNetwork {
    builder: SharedBuilder,
}

impl Default for SignalNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        SignalNetwork {
            builder: Rc::new(RefCell::new(GraphBuilder::new())),
        }
    }

    /// Declares an input signal with its required default value (§3.1),
    /// returning the signal and a typed handle for feeding events to it.
    pub fn input<T: SignalValue>(
        &mut self,
        name: impl Into<String>,
        default: T,
    ) -> (Signal<T>, InputHandle<T>) {
        let name = name.into();
        let id = self
            .builder
            .borrow_mut()
            .input(name.clone(), default.into_value());
        (
            Signal {
                id,
                net: self.builder.clone(),
                _marker: PhantomData,
            },
            InputHandle {
                id,
                name,
                _marker: PhantomData,
            },
        )
    }

    /// A signal that always holds `value` and never fires — Elm's
    /// `constant`. Implemented as an input that is never fed.
    pub fn constant<T: SignalValue>(&mut self, value: T) -> Signal<T> {
        let (s, _handle) = self.input("constant", value);
        s
    }

    /// Finalizes the network with `main` as the displayed signal.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the graph is malformed (cannot happen for
    /// graphs built purely through this API).
    pub fn program<T: SignalValue>(self, main: &Signal<T>) -> Result<Program<T>, GraphError> {
        let builder = Rc::try_unwrap(self.builder)
            .map(RefCell::into_inner)
            .unwrap_or_else(|rc| rc.borrow().clone());
        let graph = builder.finish(main.id)?;
        Ok(Program::from_graph(graph))
    }
}

/// A typed, time-varying value: Elm's `Signal a` (paper §2).
///
/// `Signal<T>` is a *description* — a node in a signal graph under
/// construction. Nothing computes until the network is compiled into a
/// [`Program`] and run on a scheduler.
pub struct Signal<T> {
    id: NodeId,
    net: SharedBuilder,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal {
            id: self.id,
            net: self.net.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signal<{}>({})", std::any::type_name::<T>(), self.id)
    }
}

/// A typed handle for delivering external events to an input signal.
#[derive(Clone, Debug)]
pub struct InputHandle<T> {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    _marker: PhantomData<fn(T)>,
}

impl<T> InputHandle<T> {
    /// The environment name this input was declared with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying graph node.
    pub fn node_id(&self) -> NodeId {
        self.id
    }
}

impl<T: SignalValue> Signal<T> {
    /// The underlying graph node (for interop with `elm-runtime`).
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    fn derive<U: SignalValue>(&self, id: NodeId) -> Signal<U> {
        Signal {
            id,
            net: self.net.clone(),
            _marker: PhantomData,
        }
    }

    /// `lift : (a -> b) -> Signal a -> Signal b` (paper §2, Example 2).
    pub fn map<U: SignalValue>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Signal<U> {
        let id = self.net.borrow_mut().lift1(
            "lift",
            move |v| f(T::from_value_unwrap(v)).into_value(),
            self.id,
        );
        self.derive(id)
    }

    /// `foldp : (a -> b -> b) -> b -> Signal a -> Signal b` (paper §3.1):
    /// fold from the past. The fold steps **only** when this signal fires —
    /// the memoization-critical property of §3.3.2.
    pub fn foldp<A: SignalValue>(
        &self,
        init: A,
        f: impl Fn(T, A) -> A + Send + Sync + 'static,
    ) -> Signal<A> {
        let id = self.net.borrow_mut().foldp(
            "foldp",
            move |new, acc| f(T::from_value_unwrap(new), A::from_value_unwrap(acc)).into_value(),
            init.into_value(),
            self.id,
        );
        self.derive(id)
    }

    /// `async : Signal a -> Signal a` (paper §3.3.2) — the paper's key
    /// novelty. Marks this signal's subgraph as a *secondary* subgraph
    /// whose updates re-enter the program as fresh events, decoupled from
    /// the global event order, so long-running computation upstream cannot
    /// delay the rest of the program.
    pub fn async_(&self) -> Signal<T> {
        let id = self.net.borrow_mut().async_source(self.id);
        self.derive(id)
    }

    /// `merge : Signal a -> Signal a -> Signal a`, left-biased on
    /// simultaneous events (§4.2 library).
    pub fn merge(&self, other: &Signal<T>) -> Signal<T> {
        let id = self.net.borrow_mut().merge(self.id, other.id);
        self.derive(id)
    }

    /// `sampleOn : Signal a -> Signal b -> Signal b`: the value of `data`
    /// sampled whenever `self` fires.
    pub fn sample_on<U: SignalValue>(&self, data: &Signal<U>) -> Signal<U> {
        let id = self.net.borrow_mut().sample_on(self.id, data.id);
        self.derive(id)
    }

    /// `keepIf : (a -> Bool) -> a -> Signal a -> Signal a`.
    pub fn keep_if(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static, base: T) -> Signal<T> {
        let id = self.net.borrow_mut().keep_if(
            move |v| pred(&T::from_value_unwrap(v)),
            base.into_value(),
            self.id,
        );
        self.derive(id)
    }

    /// `dropIf : (a -> Bool) -> a -> Signal a -> Signal a`.
    pub fn drop_if(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static, base: T) -> Signal<T> {
        let id = self.net.borrow_mut().drop_if(
            move |v| pred(&T::from_value_unwrap(v)),
            base.into_value(),
            self.id,
        );
        self.derive(id)
    }

    /// `keepWhen : Signal Bool -> a -> Signal a -> Signal a`: passes this
    /// signal's events only while `gate` is true.
    pub fn keep_when(&self, gate: &Signal<bool>, base: T) -> Signal<T> {
        let id = self
            .net
            .borrow_mut()
            .keep_when(gate.id, base.into_value(), self.id);
        self.derive(id)
    }

    /// `dropWhen : Signal Bool -> a -> Signal a -> Signal a`: passes this
    /// signal's events only while `gate` is **false**.
    pub fn drop_when(&self, gate: &Signal<bool>, base: T) -> Signal<T> {
        let inverted = gate.map(|b| !b);
        self.keep_when(&inverted, base)
    }

    /// Remembers the previous value: emits `(previous, current)` pairs —
    /// a common Elm idiom built on `foldp` (useful for deltas/velocity).
    pub fn with_previous(&self, initial: T) -> Signal<(T, T)> {
        let init_pair = (initial.clone(), initial);
        self.foldp(init_pair, |new, (_, prev)| (prev, new))
    }

    /// `dropRepeats : Signal a -> Signal a`: suppresses consecutive equal
    /// values (structural equality of the encoded value).
    pub fn drop_repeats(&self) -> Signal<T> {
        let id = self.net.borrow_mut().drop_repeats(self.id);
        self.derive(id)
    }

    /// `count : Signal a -> Signal Int`: number of events so far
    /// (paper §3.1's key-press counter; Fig. 14's slide-show index).
    pub fn count(&self) -> Signal<i64> {
        self.foldp(0i64, |_, n| n + 1)
    }

    /// `countIf : (a -> Bool) -> Signal a -> Signal Int`.
    pub fn count_if(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Signal<i64> {
        self.foldp(0i64, move |v, n| if pred(&v) { n + 1 } else { n })
    }

    /// Erases the static type, yielding the raw dynamic signal.
    pub fn erased(&self) -> Signal<Value> {
        self.derive(self.id)
    }
}

/// `lift2 : (a -> b -> c) -> Signal a -> Signal b -> Signal c` (paper §3.1).
pub fn lift2<A: SignalValue, B: SignalValue, C: SignalValue>(
    f: impl Fn(A, B) -> C + Send + Sync + 'static,
    a: &Signal<A>,
    b: &Signal<B>,
) -> Signal<C> {
    let id = a.net.borrow_mut().lift2(
        "lift2",
        move |x, y| f(A::from_value_unwrap(x), B::from_value_unwrap(y)).into_value(),
        a.id,
        b.id,
    );
    a.derive(id)
}

/// `lift3 : (a -> b -> c -> d) -> …` (paper §2, Example 3).
pub fn lift3<A: SignalValue, B: SignalValue, C: SignalValue, D: SignalValue>(
    f: impl Fn(A, B, C) -> D + Send + Sync + 'static,
    a: &Signal<A>,
    b: &Signal<B>,
    c: &Signal<C>,
) -> Signal<D> {
    let id = a.net.borrow_mut().lift3(
        "lift3",
        move |x, y, z| {
            f(
                A::from_value_unwrap(x),
                B::from_value_unwrap(y),
                C::from_value_unwrap(z),
            )
            .into_value()
        },
        a.id,
        b.id,
        c.id,
    );
    a.derive(id)
}

/// `lift4`, for completeness with Elm's `Signal` library.
pub fn lift4<A, B, C, D, E>(
    f: impl Fn(A, B, C, D) -> E + Send + Sync + 'static,
    a: &Signal<A>,
    b: &Signal<B>,
    c: &Signal<C>,
    d: &Signal<D>,
) -> Signal<E>
where
    A: SignalValue,
    B: SignalValue,
    C: SignalValue,
    D: SignalValue,
    E: SignalValue,
{
    let id = a.net.borrow_mut().lift_n(
        "lift4",
        move |vs| {
            f(
                A::from_value_unwrap(vs[0]),
                B::from_value_unwrap(vs[1]),
                C::from_value_unwrap(vs[2]),
                D::from_value_unwrap(vs[3]),
            )
            .into_value()
        },
        vec![a.id, b.id, c.id, d.id],
    );
    a.derive(id)
}

/// `zip`: pairs two signals — `lift2 (,)`.
pub fn zip<A: SignalValue, B: SignalValue>(a: &Signal<A>, b: &Signal<B>) -> Signal<(A, B)> {
    lift2(|x, y| (x, y), a, b)
}

/// `merges : [Signal a] -> Signal a`: left-biased n-way merge.
///
/// # Panics
///
/// Panics if `signals` is empty.
pub fn merges<T: SignalValue>(signals: &[Signal<T>]) -> Signal<T> {
    let (first, rest) = signals
        .split_first()
        .expect("merges requires at least one signal");
    rest.iter().fold(first.clone(), |acc, s| acc.merge(s))
}

/// `combine : [Signal a] -> Signal [a]`: the current values of all the
/// signals, updated whenever any of them fires.
///
/// # Panics
///
/// Panics if `signals` is empty.
pub fn combine<T: SignalValue>(signals: &[Signal<T>]) -> Signal<Vec<T>> {
    let first = signals
        .first()
        .expect("combine requires at least one signal");
    let ids: Vec<_> = signals.iter().map(|s| s.id).collect();
    let id = first.net.borrow_mut().lift_n(
        "combine",
        |vs| Value::list(vs.iter().map(|v| (*v).clone())),
        ids,
    );
    first.derive(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Engine;

    #[test]
    fn mouse_tracker_one_liner() {
        // Paper Example 2: main = lift asText Mouse.position
        let mut net = SignalNetwork::new();
        let (mouse, h) = net.input::<(i64, i64)>("Mouse.position", (0, 0));
        let main = mouse.map(|p| format!("{p:?}"));
        let prog = net.program(&main).unwrap();

        let mut run = prog.start(Engine::Synchronous);
        run.send(&h, (3, 4)).unwrap();
        run.send(&h, (5, 6)).unwrap();
        let outs = run.drain_changes().unwrap();
        assert_eq!(outs, vec!["(3, 4)".to_string(), "(5, 6)".to_string()]);
    }

    #[test]
    fn count_counts_only_its_signal() {
        let mut net = SignalNetwork::new();
        let (keys, hk) = net.input::<i64>("Keyboard.lastPressed", 0);
        let (mouse, hm) = net.input::<(i64, i64)>("Mouse.position", (0, 0));
        let count = keys.count();
        let main = lift2(|c, m| (c, m), &count, &mouse);
        let prog = net.program(&main).unwrap();

        let mut run = prog.start(Engine::Synchronous);
        run.send(&hk, 65).unwrap();
        run.send(&hm, (1, 1)).unwrap();
        run.send(&hm, (2, 2)).unwrap();
        run.send(&hk, 66).unwrap();
        let outs = run.drain_changes().unwrap();
        assert_eq!(outs.last(), Some(&(2, (2i64, 2i64))));
    }

    #[test]
    fn merge_and_merges_are_left_biased() {
        let mut net = SignalNetwork::new();
        let (a, ha) = net.input::<i64>("a", 0);
        let (b, hb) = net.input::<i64>("b", 0);
        let (c, hc) = net.input::<i64>("c", 0);
        let main = merges(&[a, b, c]);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hb, 2).unwrap();
        run.send(&ha, 1).unwrap();
        run.send(&hc, 3).unwrap();
        assert_eq!(run.drain_changes().unwrap(), vec![2, 1, 3]);
    }

    #[test]
    fn sample_keep_drop_combinators() {
        let mut net = SignalNetwork::new();
        let (ticks, ht) = net.input::<()>("tick", ());
        let (data, hd) = net.input::<i64>("data", 0);
        let sampled = ticks.sample_on(&data);
        let gated = sampled.keep_if(|v| v % 2 == 0, 0);
        let deduped = gated.drop_repeats();
        let prog = net.program(&deduped).unwrap();

        let mut run = prog.start(Engine::Synchronous);
        run.send(&hd, 4).unwrap();
        run.send(&ht, ()).unwrap(); // samples 4 (even, new) -> out
        run.send(&ht, ()).unwrap(); // samples 4 again -> deduped
        run.send(&hd, 5).unwrap();
        run.send(&ht, ()).unwrap(); // samples 5 (odd) -> filtered
        run.send(&hd, 6).unwrap();
        run.send(&ht, ()).unwrap(); // samples 6 -> out
        assert_eq!(run.drain_changes().unwrap(), vec![4, 6]);
    }

    #[test]
    fn keep_when_gates_by_boolean_signal() {
        let mut net = SignalNetwork::new();
        let (gate, hg) = net.input::<bool>("shift", false);
        let (data, hd) = net.input::<i64>("data", 0);
        let main = data.keep_when(&gate, -1);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hd, 1).unwrap(); // gate false: dropped
        run.send(&hg, true).unwrap();
        run.send(&hd, 2).unwrap(); // passes
        run.send(&hg, false).unwrap();
        run.send(&hd, 3).unwrap(); // dropped
        assert_eq!(run.drain_changes().unwrap(), vec![2]);
    }

    #[test]
    fn constant_signals_never_fire_but_combine() {
        let mut net = SignalNetwork::new();
        let k = net.constant(100i64);
        let (x, hx) = net.input::<i64>("x", 0);
        let main = lift2(|a, b| a + b, &k, &x);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hx, 7).unwrap();
        assert_eq!(run.drain_changes().unwrap(), vec![107]);
    }

    #[test]
    fn drop_when_inverts_the_gate() {
        let mut net = SignalNetwork::new();
        let (gate, hg) = net.input::<bool>("busy", false);
        let (data, hd) = net.input::<i64>("data", 0);
        let main = data.drop_when(&gate, -1);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hd, 1).unwrap(); // gate false: passes
        run.send(&hg, true).unwrap();
        run.send(&hd, 2).unwrap(); // dropped
        run.send(&hg, false).unwrap();
        run.send(&hd, 3).unwrap(); // passes
        assert_eq!(run.drain_changes().unwrap(), vec![1, 3]);
    }

    #[test]
    fn with_previous_pairs_consecutive_values() {
        let mut net = SignalNetwork::new();
        let (x, hx) = net.input::<i64>("x", 0);
        let main = x.with_previous(0);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        for v in [10, 20, 30] {
            run.send(&hx, v).unwrap();
        }
        assert_eq!(
            run.drain_changes().unwrap(),
            vec![(0, 10), (10, 20), (20, 30)]
        );
    }

    #[test]
    fn combine_collects_current_values() {
        let mut net = SignalNetwork::new();
        let (a, ha) = net.input::<i64>("a", 1);
        let (b, hb) = net.input::<i64>("b", 2);
        let (c, hc) = net.input::<i64>("c", 3);
        let main = combine(&[a, b, c]);
        let prog = net.program(&main).unwrap();
        assert_eq!(prog.initial_value(), vec![1, 2, 3]);
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hb, 20).unwrap();
        run.send(&ha, 10).unwrap();
        let _ = hc;
        assert_eq!(
            run.drain_changes().unwrap(),
            vec![vec![1, 20, 3], vec![10, 20, 3]]
        );
    }

    #[test]
    fn signals_are_shareable_multicast() {
        // One signal consumed twice = multicast node (the `let` translation).
        let mut net = SignalNetwork::new();
        let (x, hx) = net.input::<i64>("x", 0);
        let doubled = x.map(|v| v * 2);
        let squared = x.map(|v| v * v);
        let main = lift2(|a, b| (a, b), &doubled, &squared);
        let prog = net.program(&main).unwrap();
        let mut run = prog.start(Engine::Synchronous);
        run.send(&hx, 5).unwrap();
        assert_eq!(run.drain_changes().unwrap(), vec![(10i64, 25i64)]);
    }
}
