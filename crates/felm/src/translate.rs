//! Stage two: translating signal terms to signal graphs.
//!
//! The paper defines signal evaluation by translating signal terms to
//! Concurrent ML (Fig. 10): each node becomes a thread, each edge a
//! channel, `let` a multicast station, `async` a fresh event source. Our
//! Rust analogue of "CML" is the `elm-runtime` crate, so the translation
//! here maps a validated [`SignalTerm`] onto a
//! [`elm_runtime::SignalGraph`]; the runtime's schedulers then provide the
//! threads/channels/dispatcher of Figs. 9–11.
//!
//! Functions embedded in `lift`/`foldp`/`keepIf` nodes are FElm values;
//! each node compiles its function once, when the graph is built
//! ([`crate::eval_big::compile`]), into slot-resolved code, and applies
//! that code at event time ([`apply_compiled`]) — the moral equivalent of
//! the paper's `⟦f⟧V` application inside each node's CML loop. The
//! application is uncurried: the k parent values of a `\p1 … pk -> body`
//! node fill one reused frame, and an int-closed body over `Int` parents
//! runs on unboxed `i64`s, allocating nothing.

use std::collections::HashMap;
use std::fmt;

use elm_runtime::{GraphBuilder, NodeId, SignalGraph, Value};

use crate::ast::{Expr, ExprKind};
use crate::env::InputEnv;
use crate::eval::{normalize, DEFAULT_FUEL};
use crate::eval_big::{apply_node, compile, Code};
use crate::intermediate::{FinalTerm, SignalTerm};

/// Errors raised while building the graph.
#[derive(Clone, Debug, PartialEq)]
pub enum TranslateError {
    /// The term references an input absent from the [`InputEnv`].
    UnknownInput(String),
    /// A signal variable is unbound (cannot happen for validated terms
    /// produced from closed programs).
    UnboundVar(String),
    /// The finished graph failed validation.
    Graph(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownInput(i) => write!(f, "unknown input signal `{i}`"),
            TranslateError::UnboundVar(x) => write!(f, "unbound signal variable `{x}`"),
            TranslateError::Graph(msg) => write!(f, "graph construction failed: {msg}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Converts a runtime value to a literal FElm expression, for feeding
/// runtime values into embedded FElm functions.
///
/// Returns `None` for values outside FElm's data universe (lists, records,
/// opaque host values).
pub fn value_to_expr(v: &Value) -> Option<Expr> {
    Some(Expr::synth(match v {
        Value::Unit => ExprKind::Unit,
        Value::Int(n) => ExprKind::Int(*n),
        Value::Float(x) => ExprKind::Float(*x),
        Value::Bool(b) => ExprKind::Int(*b as i64),
        Value::Str(s) => ExprKind::Str(s.to_string()),
        Value::Pair(p) => ExprKind::Pair(
            Box::new(value_to_expr(&p.0)?),
            Box::new(value_to_expr(&p.1)?),
        ),
        Value::List(items) => ExprKind::List(
            items
                .iter()
                .map(value_to_expr)
                .collect::<Option<Vec<_>>>()?,
        ),
        Value::Record(fields) => ExprKind::Record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), value_to_expr(v)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        Value::Tagged(tag, args) => ExprKind::CtorApp(
            tag.to_string(),
            args.iter().map(value_to_expr).collect::<Option<Vec<_>>>()?,
        ),
        _ => return None,
    }))
}

/// Converts an FElm value expression back to a runtime value.
///
/// Returns `None` for non-data values (functions).
pub fn expr_to_value(e: &Expr) -> Option<Value> {
    Some(match &e.kind {
        ExprKind::Unit => Value::Unit,
        ExprKind::Int(n) => Value::Int(*n),
        ExprKind::Float(x) => Value::Float(*x),
        ExprKind::Str(s) => Value::str(s),
        ExprKind::Pair(a, b) => Value::pair(expr_to_value(a)?, expr_to_value(b)?),
        ExprKind::List(items) => Value::list(
            items
                .iter()
                .map(expr_to_value)
                .collect::<Option<Vec<_>>>()?,
        ),
        ExprKind::Record(fields) => Value::record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), expr_to_value(v)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        ExprKind::CtorApp(tag, args) => Value::tagged(
            tag,
            args.iter().map(expr_to_value).collect::<Option<Vec<_>>>()?,
        ),
        _ => return None,
    })
}

/// Applies an FElm function value to runtime values: [`compile`], then
/// [`apply_compiled`]. Graph nodes compile their function once when the
/// graph is built and call [`apply_compiled`] per event; this wrapper
/// serves one-off applications (tests, the `interpreter` bench).
///
/// # Panics
///
/// Same conditions as [`apply_compiled`].
pub fn apply_function(func: &Expr, args: &[Value]) -> Value {
    let args: Vec<&Value> = args.iter().collect();
    apply_compiled(&compile(func), &args)
}

/// Applies compiled FElm function code to runtime values: the node entry
/// point, run on every event at every `lift`, `foldp` and `keepIf` node.
///
/// Runs [`crate::eval_big::apply_node`]: the parent values are bound into
/// one frame of the slot-resolved code, on the unboxed Int lane when the
/// function's body is int-closed and the parents it reads are Ints.
/// Agreement with the Fig. 6 small-step machine is property-tested, and
/// [`apply_function_small_step`] keeps the specification path available
/// (the `interpreter` bench compares them).
///
/// When the hosting scheduler has activated a per-event resource
/// governor ([`elm_runtime::governor`]), the application runs metered
/// against the event's remaining fuel/allocation pools and deadline; a
/// budget trap is recorded on the governor (the scheduler rolls the
/// event back) and a `Unit` sentinel is returned instead of panicking.
/// Ungoverned applications run under an unlimited meter and report
/// nothing.
///
/// # Panics
///
/// Panics if application gets stuck or produces a non-data value — both
/// impossible for nodes built from well-typed programs; a panic here
/// indicates translation of an unchecked term.
pub fn apply_compiled(code: &Code, args: &[&Value]) -> Value {
    use crate::budget::{Budget, Meter, Trap};
    use crate::eval::EvalError;
    use elm_runtime::governor;

    // Governed applications evaluate against the event's *remaining*
    // pools so a budget bounds the total work of the event, not of each
    // node.
    let view = governor::active();
    let mut meter = match view {
        Some(view) => Meter::new(Budget {
            fuel: view.fuel_left,
            max_alloc_cells: view.alloc_left,
            max_depth: view.max_depth,
        })
        .with_deadline(view.deadline),
        None => Meter::unlimited(),
    };
    let result = apply_node(code, args, &mut meter);
    if view.is_some() {
        governor::consume(meter.fuel_used(), meter.alloc_cells());
    }
    match result {
        Ok(value) => value,
        Err(EvalError::Trap(t)) => {
            governor::record_trap(match t {
                Trap::OutOfFuel => governor::TrapKind::OutOfFuel,
                Trap::OutOfMemory => governor::TrapKind::OutOfMemory,
                Trap::DepthExceeded => governor::TrapKind::DepthExceeded,
                Trap::DeadlineExceeded => governor::TrapKind::DeadlineExceeded,
            });
            // Sentinel; the scheduler sees the recorded trap and rolls
            // the whole event back, so this value is never observed.
            Value::Unit
        }
        Err(err) => panic!("embedded FElm function got stuck: {err}"),
    }
}

/// [`apply_function`] by literal Fig. 6 β-reduction — the specification
/// path, kept for differential testing and the interpreter benchmark.
///
/// # Panics
///
/// Same conditions as [`apply_function`].
pub fn apply_function_small_step(func: &Expr, args: &[Value]) -> Value {
    let mut e = func.clone();
    for a in args {
        let lit = value_to_expr(a)
            .unwrap_or_else(|| panic!("runtime value {a:?} is outside FElm's data universe"));
        e = Expr::synth(ExprKind::App(Box::new(e), Box::new(lit)));
    }
    let normal = normalize(&e, DEFAULT_FUEL)
        .unwrap_or_else(|err| panic!("embedded FElm function got stuck: {err}"));
    expr_to_value(&normal)
        .unwrap_or_else(|| panic!("embedded FElm function returned a non-data value"))
}

/// Translates a validated signal term to a runnable signal graph.
///
/// Input occurrences are deduplicated by name, so a program mentioning
/// `Mouse.x` twice shares one source node — matching the signal-graph
/// drawings of Figs. 7–8 and the multicast semantics of the CML
/// translation.
///
/// # Errors
///
/// Fails on inputs missing from `env` or (for hand-built terms) unbound
/// signal variables.
pub fn translate(term: &SignalTerm, env: &InputEnv) -> Result<SignalGraph, TranslateError> {
    let mut tr = Translator {
        env,
        builder: GraphBuilder::new(),
        scope: HashMap::new(),
        inputs: HashMap::new(),
    };
    let out = tr.walk(term)?;
    tr.builder
        .finish(out)
        .map_err(|e| TranslateError::Graph(e.to_string()))
}

struct Translator<'a> {
    env: &'a InputEnv,
    builder: GraphBuilder,
    scope: HashMap<String, Vec<NodeId>>,
    inputs: HashMap<String, NodeId>,
}

impl Translator<'_> {
    fn walk(&mut self, term: &SignalTerm) -> Result<NodeId, TranslateError> {
        match term {
            SignalTerm::Var(x) => self
                .scope
                .get(x)
                .and_then(|s| s.last())
                .copied()
                .ok_or_else(|| TranslateError::UnboundVar(x.clone())),
            SignalTerm::Input(i) => {
                if let Some(id) = self.inputs.get(i) {
                    return Ok(*id);
                }
                let decl = self
                    .env
                    .get(i)
                    .ok_or_else(|| TranslateError::UnknownInput(i.clone()))?;
                let id = self.builder.input(i.clone(), decl.default.clone());
                self.inputs.insert(i.clone(), id);
                Ok(id)
            }
            SignalTerm::Let { name, value, body } => {
                let shared = self.walk(value)?;
                self.scope.entry(name.clone()).or_default().push(shared);
                let out = match &**body {
                    FinalTerm::Signal(s) => self.walk(s),
                    FinalTerm::Value(v) => {
                        // `let x = s in v`: a constant display over a live
                        // signal — output v regardless of events.
                        let constant = expr_to_value(v).unwrap_or(Value::Unit);
                        Ok(self
                            .builder
                            .lift1("const", move |_| constant.clone(), shared))
                    }
                };
                if let Some(stack) = self.scope.get_mut(name) {
                    stack.pop();
                }
                out
            }
            SignalTerm::Lift { func, args } => {
                let parents = args
                    .iter()
                    .map(|a| self.walk(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let code = compile(func);
                let label = format!("lift{}", parents.len());
                Ok(self
                    .builder
                    .lift_n(label, move |vs| apply_compiled(&code, vs), parents))
            }
            SignalTerm::Foldp { func, init, signal } => {
                let parent = self.walk(signal)?;
                let code = compile(func);
                let init_value = expr_to_value(init)
                    .unwrap_or_else(|| panic!("foldp base value is outside FElm's data universe"));
                Ok(self.builder.foldp(
                    "foldp",
                    move |new, acc| apply_compiled(&code, &[new, acc]),
                    init_value,
                    parent,
                ))
            }
            SignalTerm::Async(inner) => {
                let parent = self.walk(inner)?;
                Ok(self.builder.async_source(parent))
            }
            SignalTerm::Prim {
                op,
                values,
                signals,
            } => {
                use crate::ast::SignalPrimOp;
                let parents = signals
                    .iter()
                    .map(|s| self.walk(s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(match op {
                    SignalPrimOp::Merge => self.builder.merge(parents[0], parents[1]),
                    SignalPrimOp::SampleOn => self.builder.sample_on(parents[0], parents[1]),
                    SignalPrimOp::DropRepeats => self.builder.drop_repeats(parents[0]),
                    SignalPrimOp::KeepIf => {
                        let pred = compile(&values[0]);
                        let base = expr_to_value(&values[1]).unwrap_or_else(|| {
                            panic!("keepIf base value is outside FElm's data universe")
                        });
                        self.builder.keep_if(
                            move |v| apply_compiled(&pred, &[v]).is_truthy(),
                            base,
                            parents[0],
                        )
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elm_runtime::{changed_values, Occurrence, SyncRuntime};

    use crate::eval::DEFAULT_FUEL;
    use crate::parser::parse_expr;

    fn graph_of(src: &str) -> SignalGraph {
        let env = InputEnv::standard();
        let e = parse_expr(src).unwrap();
        let n = normalize(&e, DEFAULT_FUEL).unwrap();
        let FinalTerm::Signal(s) = FinalTerm::from_expr(&n).unwrap() else {
            panic!("not a signal program")
        };
        translate(&s, &env).unwrap()
    }

    #[test]
    fn fig7_graph_runs() {
        let g = graph_of("lift2 (\\y z -> (100 * y) / z) Mouse.x Window.width");
        let mx = g.input_named("Mouse.x").unwrap();
        let ww = g.input_named("Window.width").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [
                Occurrence::input(mx, 512i64),
                Occurrence::input(ww, 2048i64),
            ],
        )
        .unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(50), Value::Int(25)]);
    }

    #[test]
    fn foldp_counter_runs() {
        let g = graph_of("foldp (\\k c -> c + 1) 0 Keyboard.lastPressed");
        let keys = g.input_named("Keyboard.lastPressed").unwrap();
        let outs =
            SyncRuntime::run_trace(&g, (0..4).map(|k| Occurrence::input(keys, 65 + k as i64)))
                .unwrap();
        assert_eq!(changed_values(&outs).last(), Some(&Value::Int(4)));
    }

    #[test]
    fn shared_inputs_are_deduplicated() {
        let g = graph_of("lift2 (\\a b -> a + b) Mouse.x Mouse.x");
        assert_eq!(g.sources().len(), 1);
        let mx = g.input_named("Mouse.x").unwrap();
        let outs = SyncRuntime::run_trace(&g, [Occurrence::input(mx, 21i64)]).unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(42)]);
    }

    #[test]
    fn let_multicast_shares_nodes() {
        let g = graph_of("let s = lift (\\x -> x * 2) Mouse.x in lift2 (\\a b -> a + b) s s");
        // Mouse.x, the shared lift, and the combining lift: 3 nodes.
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn async_programs_split_and_run() {
        let g = graph_of(
            "lift2 (\\a b -> (a, b)) Mouse.x (async (lift (\\w -> w ++ \"!\") Words.input))",
        );
        assert_eq!(g.async_sources().len(), 1);
        let mx = g.input_named("Mouse.x").unwrap();
        let words = g.input_named("Words.input").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [Occurrence::input(words, "hey"), Occurrence::input(mx, 3i64)],
        )
        .unwrap();
        let finals = changed_values(&outs);
        let last = finals.last().unwrap().as_pair().unwrap();
        assert_eq!(last.0, &Value::Int(3));
        assert_eq!(last.1, &Value::str("hey!"));
    }

    #[test]
    fn pairs_and_strings_cross_the_boundary() {
        let g = graph_of("lift (\\p -> fst p + snd p) Mouse.position");
        let mp = g.input_named("Mouse.position").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [Occurrence::input(
                mp,
                Value::pair(Value::Int(3), Value::Int(4)),
            )],
        )
        .unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(7)]);
    }

    #[test]
    fn unknown_inputs_error() {
        let env = InputEnv::standard();
        let term = SignalTerm::Input("Nope.nothing".into());
        assert_eq!(
            translate(&term, &env).err(),
            Some(TranslateError::UnknownInput("Nope.nothing".into()))
        );
        let term = SignalTerm::Var("ghost".into());
        assert_eq!(
            translate(&term, &env).err(),
            Some(TranslateError::UnboundVar("ghost".into()))
        );
    }

    #[test]
    fn value_expr_round_trip() {
        for v in [
            Value::Unit,
            Value::Int(-3),
            Value::Float(2.5),
            Value::str("hi"),
            Value::pair(Value::Int(1), Value::str("x")),
        ] {
            let e = value_to_expr(&v).unwrap();
            assert_eq!(expr_to_value(&e), Some(v));
        }
        let lst = Value::list([Value::Int(1), Value::str("a")]);
        let e = value_to_expr(&lst).unwrap();
        assert_eq!(expr_to_value(&e), Some(lst));
        assert!(value_to_expr(&Value::ext(0u8)).is_none());
        assert_eq!(
            value_to_expr(&Value::Bool(true)).unwrap().kind,
            ExprKind::Int(1)
        );
    }
}
