//! Node behaviors: the computation performed at each signal-graph node.
//!
//! The paper gives three computing node kinds — `liftn`, `foldp`, and the
//! structural `async` — plus, in the full language (§4.2), a family of
//! signal combinators (`merge`, `sampleOn`, `keepIf`, `dropRepeats`, …).
//! All except `async` share one execution discipline: per globally-ordered
//! event they consume one message from every incoming edge and emit exactly
//! one message, either `Change v` or `NoChange` (§3.3.2). That discipline is
//! captured by [`NodeBehavior::step`].
//!
//! Behaviors can be *stateful* (`foldp` owns its accumulator), so a graph
//! stores cloneable [`BehaviorSpec`] factories and each scheduler
//! instantiates fresh behavior state when it starts executing — the same
//! [`crate::graph::SignalGraph`] can be run on the concurrent, synchronous,
//! and pull schedulers without cross-contamination.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A pure n-ary function suitable for a `liftn` node. It borrows the
/// parents' current values, so applying it copies none of them.
pub type LiftFn = Arc<dyn Fn(&[&Value]) -> Value + Send + Sync>;

/// A fold function for `foldp`: `(new_input, accumulator) -> accumulator`.
/// Argument order follows the paper's `foldp f`: `f : τ → τ' → τ'`.
pub type FoldFn = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;

/// A predicate over values, for `keepIf` / `dropIf`.
pub type PredFn = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// The inputs available to a node when processing one event.
#[derive(Debug)]
pub struct StepInputs<'a> {
    /// For each parent edge: did that parent change this event?
    pub changed: &'a [bool],
    /// Current (post-event) value of each parent.
    pub values: &'a [&'a Value],
    /// This node's own previous output value.
    pub prev: &'a Value,
}

impl StepInputs<'_> {
    /// True if any incoming edge carried a `Change`.
    pub fn any_changed(&self) -> bool {
        self.changed.iter().any(|c| *c)
    }
}

/// Per-run mutable computation state of a node.
///
/// `step` is invoked once per global event *in which at least one parent
/// changed* (schedulers short-circuit the all-`NoChange` case, the
/// memoization of §3.3.2). Returning `None` emits `NoChange`, letting
/// combinators like `keepIf` suppress propagation even when inputs changed.
pub trait NodeBehavior: Send {
    /// Processes one event round. See the trait docs for the contract.
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value>;
}

/// A factory producing fresh [`NodeBehavior`] state, stored in the graph IR.
pub trait BehaviorSpec: Send + Sync {
    /// Creates this node's mutable per-run state.
    fn instantiate(&self) -> Box<dyn NodeBehavior>;

    /// The default (pre-first-event) output, induced from parent defaults
    /// (§3.1: "every input signal is required to have a default value, which
    /// then induces default values for other signals").
    fn default_value(&self, parent_defaults: &[Value]) -> Value;

    /// Short operator name for diagnostics and DOT rendering.
    fn op_name(&self) -> &'static str;
}

impl fmt::Debug for dyn BehaviorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op_name())
    }
}

// ---------------------------------------------------------------------------
// liftn
// ---------------------------------------------------------------------------

/// `liftn f s1 … sn`: applies a pure function to the current values of `n`
/// signals whenever any of them changes (paper Fig. 10, `liftn` case).
pub struct Lift {
    f: LiftFn,
}

impl Lift {
    /// Wraps a pure function of the parents' current values.
    pub fn new(f: impl Fn(&[&Value]) -> Value + Send + Sync + 'static) -> Self {
        Lift { f: Arc::new(f) }
    }
}

impl BehaviorSpec for Lift {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(LiftState { f: self.f.clone() })
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        let refs: Vec<&Value> = parent_defaults.iter().collect();
        (self.f)(&refs)
    }

    fn op_name(&self) -> &'static str {
        "lift"
    }
}

struct LiftState {
    f: LiftFn,
}

impl NodeBehavior for LiftState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        Some((self.f)(inputs.values))
    }
}

// ---------------------------------------------------------------------------
// foldp
// ---------------------------------------------------------------------------

/// `foldp f b s`: folds over a signal's history (paper §3.1). The node's
/// output *is* the accumulator; the scheduler's memoization guarantees the
/// fold steps only when `s` actually changed — the correctness-critical
/// property of §3.3.2 (a key-press counter must not bump on mouse events).
pub struct Foldp {
    f: FoldFn,
    init: Value,
}

impl Foldp {
    /// `f(new_input, acc) -> acc`, starting from `init`.
    pub fn new(
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
        init: impl Into<Value>,
    ) -> Self {
        Foldp {
            f: Arc::new(f),
            init: init.into(),
        }
    }
}

impl BehaviorSpec for Foldp {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(FoldpState { f: self.f.clone() })
    }

    fn default_value(&self, _parent_defaults: &[Value]) -> Value {
        self.init.clone()
    }

    fn op_name(&self) -> &'static str {
        "foldp"
    }
}

struct FoldpState {
    f: FoldFn,
}

impl NodeBehavior for FoldpState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        if inputs.changed[0] {
            Some((self.f)(inputs.values[0], inputs.prev))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Full-language combinators (§4.2 library signals)
// ---------------------------------------------------------------------------

/// `merge s1 s2`: interleaves two signals of the same type. When both change
/// on the same event the left signal wins (Elm's documented left bias).
pub struct Merge;

impl BehaviorSpec for Merge {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(MergeState)
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        parent_defaults[0].clone()
    }

    fn op_name(&self) -> &'static str {
        "merge"
    }
}

struct MergeState;

impl NodeBehavior for MergeState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        if inputs.changed[0] {
            Some(inputs.values[0].clone())
        } else if inputs.changed[1] {
            Some(inputs.values[1].clone())
        } else {
            None
        }
    }
}

/// `sampleOn ticker data`: emits the current value of `data` whenever
/// `ticker` changes; changes of `data` alone are swallowed.
pub struct SampleOn;

impl BehaviorSpec for SampleOn {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(SampleOnState)
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        parent_defaults[1].clone()
    }

    fn op_name(&self) -> &'static str {
        "sampleOn"
    }
}

struct SampleOnState;

impl NodeBehavior for SampleOnState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        if inputs.changed[0] {
            Some(inputs.values[1].clone())
        } else {
            None
        }
    }
}

/// `keepIf pred base s`: propagates only changes satisfying `pred`. `base`
/// is the default when the underlying signal's default fails the predicate.
pub struct KeepIf {
    pred: PredFn,
    base: Value,
    /// When true the predicate is negated, yielding `dropIf`.
    negate: bool,
}

impl KeepIf {
    /// Keeps changes where `pred` holds.
    pub fn keep(
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
        base: impl Into<Value>,
    ) -> Self {
        KeepIf {
            pred: Arc::new(pred),
            base: base.into(),
            negate: false,
        }
    }

    /// Drops changes where `pred` holds (`dropIf`).
    pub fn drop(
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
        base: impl Into<Value>,
    ) -> Self {
        KeepIf {
            pred: Arc::new(pred),
            base: base.into(),
            negate: true,
        }
    }

    fn admits(&self, v: &Value) -> bool {
        (self.pred)(v) != self.negate
    }
}

impl BehaviorSpec for KeepIf {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(KeepIfState {
            pred: self.pred.clone(),
            negate: self.negate,
        })
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        if self.admits(&parent_defaults[0]) {
            parent_defaults[0].clone()
        } else {
            self.base.clone()
        }
    }

    fn op_name(&self) -> &'static str {
        "keepIf"
    }
}

struct KeepIfState {
    pred: PredFn,
    negate: bool,
}

impl NodeBehavior for KeepIfState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        let v = inputs.values[0];
        if (self.pred)(v) != self.negate {
            Some(v.clone())
        } else {
            None
        }
    }
}

/// `keepWhen gate base s`: propagates changes of `s` only while the boolean
/// signal `gate` is currently true.
pub struct KeepWhen {
    base: Value,
}

impl KeepWhen {
    /// `base` is the default used when the gate starts out false.
    pub fn new(base: impl Into<Value>) -> Self {
        KeepWhen { base: base.into() }
    }
}

impl BehaviorSpec for KeepWhen {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(KeepWhenState)
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        if parent_defaults[0].is_truthy() {
            parent_defaults[1].clone()
        } else {
            self.base.clone()
        }
    }

    fn op_name(&self) -> &'static str {
        "keepWhen"
    }
}

struct KeepWhenState;

impl NodeBehavior for KeepWhenState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        if inputs.changed[1] && inputs.values[0].is_truthy() {
            Some(inputs.values[1].clone())
        } else {
            None
        }
    }
}

/// `dropRepeats s`: suppresses changes whose value equals the previous
/// output, using structural equality on [`Value`].
pub struct DropRepeats;

impl BehaviorSpec for DropRepeats {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        Box::new(DropRepeatsState)
    }

    fn default_value(&self, parent_defaults: &[Value]) -> Value {
        parent_defaults[0].clone()
    }

    fn op_name(&self) -> &'static str {
        "dropRepeats"
    }
}

struct DropRepeatsState;

impl NodeBehavior for DropRepeatsState {
    fn step(&mut self, inputs: StepInputs<'_>) -> Option<Value> {
        if inputs.values[0] != inputs.prev {
            Some(inputs.values[0].clone())
        } else {
            None
        }
    }
}

/// An arbitrary user-defined stateful behavior, for combinators not covered
/// by the built-ins (used by the typed DSL's `custom` escape hatch and by
/// tests).
pub struct Custom {
    name: &'static str,
    default: Value,
    make: Arc<dyn Fn() -> Box<dyn NodeBehavior> + Send + Sync>,
}

impl Custom {
    /// Creates a custom spec with an explicit default output value.
    pub fn new(
        name: &'static str,
        default: impl Into<Value>,
        make: impl Fn() -> Box<dyn NodeBehavior> + Send + Sync + 'static,
    ) -> Self {
        Custom {
            name,
            default: default.into(),
            make: Arc::new(make),
        }
    }
}

impl BehaviorSpec for Custom {
    fn instantiate(&self) -> Box<dyn NodeBehavior> {
        (self.make)()
    }

    fn default_value(&self, _parent_defaults: &[Value]) -> Value {
        self.default.clone()
    }

    fn op_name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_of(
        spec: &dyn BehaviorSpec,
        changed: &[bool],
        values: &[&Value],
        prev: &Value,
    ) -> Option<Value> {
        let mut b = spec.instantiate();
        b.step(StepInputs {
            changed,
            values,
            prev,
        })
    }

    #[test]
    fn lift_applies_function_and_induces_default() {
        let spec = Lift::new(|vs| Value::Int(vs[0].as_int().unwrap() * 2));
        assert_eq!(spec.default_value(&[Value::Int(21)]), Value::Int(42));
        let out = step_of(&spec, &[true], &[&Value::Int(5)], &Value::Int(0));
        assert_eq!(out, Some(Value::Int(10)));
    }

    #[test]
    fn foldp_steps_only_on_changed_input() {
        let spec = Foldp::new(|_new, acc| Value::Int(acc.as_int().unwrap() + 1), 0i64);
        assert_eq!(spec.default_value(&[Value::Unit]), Value::Int(0));
        let stepped = step_of(&spec, &[true], &[&Value::Unit], &Value::Int(4));
        assert_eq!(stepped, Some(Value::Int(5)));
        let skipped = step_of(&spec, &[false], &[&Value::Unit], &Value::Int(4));
        assert_eq!(skipped, None);
    }

    #[test]
    fn merge_is_left_biased() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        assert_eq!(
            step_of(&Merge, &[true, true], &[&a, &b], &Value::Unit),
            Some(Value::Int(1))
        );
        assert_eq!(
            step_of(&Merge, &[false, true], &[&a, &b], &Value::Unit),
            Some(Value::Int(2))
        );
        assert_eq!(
            step_of(&Merge, &[false, false], &[&a, &b], &Value::Unit),
            None
        );
    }

    #[test]
    fn sample_on_fires_only_on_ticker() {
        let tick = Value::Unit;
        let data = Value::Int(9);
        assert_eq!(
            step_of(&SampleOn, &[true, false], &[&tick, &data], &Value::Int(0)),
            Some(Value::Int(9))
        );
        assert_eq!(
            step_of(&SampleOn, &[false, true], &[&tick, &data], &Value::Int(0)),
            None
        );
        assert_eq!(
            SampleOn.default_value(&[Value::Unit, Value::Int(7)]),
            Value::Int(7)
        );
    }

    #[test]
    fn keep_if_filters_and_falls_back_to_base_default() {
        let keep = KeepIf::keep(|v| v.as_int().unwrap_or(0) > 0, -1i64);
        assert_eq!(
            step_of(&keep, &[true], &[&Value::Int(3)], &Value::Int(0)),
            Some(Value::Int(3))
        );
        assert_eq!(
            step_of(&keep, &[true], &[&Value::Int(-3)], &Value::Int(0)),
            None
        );
        assert_eq!(keep.default_value(&[Value::Int(-5)]), Value::Int(-1));
        assert_eq!(keep.default_value(&[Value::Int(5)]), Value::Int(5));

        let drop = KeepIf::drop(|v| v.as_int().unwrap_or(0) > 0, 0i64);
        assert_eq!(
            step_of(&drop, &[true], &[&Value::Int(3)], &Value::Int(0)),
            None
        );
        assert_eq!(
            step_of(&drop, &[true], &[&Value::Int(-3)], &Value::Int(0)),
            Some(Value::Int(-3))
        );
    }

    #[test]
    fn keep_when_gates_data_changes() {
        let spec = KeepWhen::new(0i64);
        let open = Value::Bool(true);
        let shut = Value::Bool(false);
        let data = Value::Int(5);
        assert_eq!(
            step_of(&spec, &[false, true], &[&open, &data], &Value::Int(0)),
            Some(Value::Int(5))
        );
        assert_eq!(
            step_of(&spec, &[false, true], &[&shut, &data], &Value::Int(0)),
            None
        );
        // Gate toggling alone does not re-emit.
        assert_eq!(
            step_of(&spec, &[true, false], &[&open, &data], &Value::Int(0)),
            None
        );
        assert_eq!(
            spec.default_value(&[Value::Bool(false), Value::Int(9)]),
            Value::Int(0)
        );
    }

    #[test]
    fn drop_repeats_suppresses_equal_values() {
        assert_eq!(
            step_of(&DropRepeats, &[true], &[&Value::Int(5)], &Value::Int(5)),
            None
        );
        assert_eq!(
            step_of(&DropRepeats, &[true], &[&Value::Int(6)], &Value::Int(5)),
            Some(Value::Int(6))
        );
    }

    #[test]
    fn custom_behavior_runs_user_state() {
        let spec = Custom::new("toggle", false, || {
            struct Toggle(bool);
            impl NodeBehavior for Toggle {
                fn step(&mut self, _i: StepInputs<'_>) -> Option<Value> {
                    self.0 = !self.0;
                    Some(Value::Bool(self.0))
                }
            }
            Box::new(Toggle(false))
        });
        let mut b = spec.instantiate();
        let v = Value::Unit;
        let mk = |prev: &Value, b: &mut Box<dyn NodeBehavior>| {
            b.step(StepInputs {
                changed: &[true],
                values: &[&v],
                prev,
            })
        };
        assert_eq!(mk(&Value::Bool(false), &mut b), Some(Value::Bool(true)));
        assert_eq!(mk(&Value::Bool(true), &mut b), Some(Value::Bool(false)));
        assert_eq!(spec.op_name(), "toggle");
    }
}
