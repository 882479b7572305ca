//! Big-step evaluation of the *functional* fragment over slot-resolved
//! code.
//!
//! The small-step machine in [`crate::eval`] is the paper's Fig. 6,
//! verbatim — ideal as a specification, quadratic in practice (substitution
//! copies terms). Signal-graph nodes apply their embedded FElm functions on
//! *every event*, so stage two wants a fast interpreter: this module
//! [`compile`]s a simple-typed term once into [`Code`] and evaluates that
//! ([`eval_code`]). Graph nodes compile their function when the graph is
//! built and only evaluate per event ([`apply_node`]).
//!
//! Compilation resolves every variable to a *slot*: a local of the
//! enclosing function's frame (a lambda parameter, a `let` binder or a
//! `case` binder) or one of the enclosing closure's captured values. A
//! lambda `\p1 … pk -> body` compiles to one k-ary function whose frame
//! holds its k parameters and its binders; a closure is the lambda's
//! shared code plus a flat array of just its free variables, and applying
//! it pushes a frame on a reused stack. No environment chain is built and
//! no variable is looked up by name at run time. Curried application
//! stays the semantics: applying a k-ary closure to fewer than k arguments
//! yields a partial application.
//!
//! Node application is uncurried ([`apply_node`]): a node function
//! applied to its k parent values binds them into one frame directly. When
//! its body is *int-closed* — only Int literals, variables, arithmetic and
//! comparison operators, `if` and `let` (decided by [`compile`]) — and
//! every parameter the body reads holds an `Int`, the body runs over
//! unboxed `i64`s in the same frame layout: the Int lane, which builds no
//! [`Value`] at all.
//!
//! Every path charges a [`Meter`] exactly as the curried reading of the
//! term would: one visit per node, one allocation cell per closure a
//! lambda would build, so fuel, allocation and depth traps land on the
//! same events whichever path runs.
//!
//! Scope: values of simple types only (unit, numbers, strings, pairs,
//! lists, records, constructor applications and functions). They are
//! [`elm_runtime::Value`]s, the type graph edges carry, so a node binds
//! its parents' values into its frame as they are and hands its result
//! on as it is. A function is a [`Value::Closure`]: the [`FnCode`] that
//! [`compile`] made once for its lambda, plus the values it captured, so
//! signals may carry functions as Fig. 4 allows. Signal forms are out of
//! scope by construction — stage one has already reduced programs to
//! signal terms whose embedded functions are simple-typed values
//! (Fig. 5), and those are what nodes apply.
//!
//! Agreement with the small-step semantics is property-tested in
//! `tests/theorem1_prop.rs` and `crates/felm/tests/compiled_eval.rs`, and
//! benchmarked (`interpreter` bench).

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use elm_runtime::{FnCode, Value};

use crate::ast::{BinOp, Expr, ExprKind, ListOp, Pattern};
use crate::budget::{Meter, Trap};
use crate::eval::EvalError;

/// Named values for the free variables of a term: they seed the root
/// frame of [`eval_code`]. Evaluation itself never looks a name up.
#[derive(Clone, Default)]
pub struct Env(Vec<(Arc<str>, Value)>);

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(Vec::new())
    }

    /// Extends with one binding, shadowing any earlier one of that name.
    pub fn bind(mut self, name: impl Into<Arc<str>>, value: Value) -> Env {
        self.0.push((name.into(), value));
        self
    }

    /// Looks up a name (innermost binding wins).
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.0.iter().rev().map(|(n, _)| &**n).collect();
        write!(f, "Env{names:?}")
    }
}

fn stuck<T>(reason: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::Stuck {
        reason: reason.into(),
    })
}

/// The compiled form of a simple-typed [`Expr`]: what [`eval_code`] and
/// [`apply_node`] run.
///
/// Compilation is one syntax walk: variables become frame or capture
/// slots, string literals are materialised once, and lambda bodies become
/// shared code, so building a closure copies no syntax. Forms with no
/// value semantics here (signal forms, unresolved constructors) compile to
/// a stuck form, which fails only if evaluation reaches it.
#[derive(Debug)]
pub struct Code {
    /// The term, evaluated in the root frame.
    root: Form,
    /// Slots of the root frame (its `let` and `case` binders).
    frame: usize,
    /// The term's free variables, by capture slot: seeded from an [`Env`].
    globals: Vec<Arc<str>>,
    /// For a closed function whose body is int-closed and whose frame fits
    /// [`INT_FRAME`]: which of its parameters the body reads, bit `i` for
    /// parameter `i`. The Int lane runs when those are Ints.
    int_reads: Option<u16>,
}

impl Code {
    /// Whether this is a closed function `\p1 … pk -> body` with an
    /// int-closed body (and at most 16 parameters and binders live at
    /// once): one that [`apply_node`] runs over `i64`s when the parameters
    /// the body reads are Ints.
    pub fn is_int_closed(&self) -> bool {
        self.int_reads.is_some()
    }

    /// The root lambda when `args` saturate it exactly and it captures
    /// nothing: the uncurried node entry.
    fn node_lambda(&self, args: usize) -> Option<&Lambda> {
        let Form::Lam(code) = &self.root else {
            return None;
        };
        let lam = lambda(code);
        (lam.params.len() == args && self.globals.is_empty()).then_some(lam)
    }
}

/// A slot-resolved form.
#[derive(Debug)]
enum Form {
    Unit,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// A slot of the current frame.
    Local(usize),
    /// A captured value of the current closure.
    Captured(usize),
    /// A lambda: its code, which holds a [`Lambda`].
    Lam(FnCode),
    App(Box<Form>, Box<Form>),
    BinOp(BinOp, Box<Form>, Box<Form>),
    If(Box<Form>, Box<Form>, Box<Form>),
    Let {
        slot: usize,
        value: Box<Form>,
        body: Box<Form>,
    },
    Pair(Box<Form>, Box<Form>),
    Fst(Box<Form>),
    Snd(Box<Form>),
    List(Vec<Form>),
    ListOp(ListOp, Box<Form>),
    Ith(Box<Form>, Box<Form>),
    Record(Vec<(String, Form)>),
    Field(Box<Form>, String),
    CtorApp(Arc<str>, Vec<Form>),
    /// Branches are tried in order.
    Case {
        scrutinee: Box<Form>,
        branches: Vec<(CasePattern, Form)>,
    },
    /// Evaluating this fails with the message.
    Stuck(String),
}

/// A compiled `case` pattern; binders are frame slots.
#[derive(Debug)]
enum CasePattern {
    /// A constructor; `None` binders are `_`.
    Ctor {
        name: Arc<str>,
        binders: Vec<Option<usize>>,
    },
    /// A catch-all variable.
    Bind(usize),
    Wildcard,
}

/// Where a free variable of a lambda lives in the frame that builds it.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Local(usize),
    Captured(usize),
}

/// A lambda `\p1 … pk -> body` with its directly nested parameters merged.
#[derive(Debug)]
struct Lambda {
    params: Vec<Arc<str>>,
    /// Read in the building frame, in capture-slot order.
    captures: Vec<Slot>,
    /// Frame slots: the parameters, then the body's binders.
    frame: usize,
    body: Form,
}

/// One function's scope during compilation.
#[derive(Default)]
struct Scope<'e> {
    /// Names by frame slot; the innermost binding of a name is the last.
    locals: Vec<&'e str>,
    /// Names by capture slot.
    captured: Vec<&'e str>,
    /// Where each capture lives in the enclosing scope.
    from: Vec<Slot>,
    /// Largest number of locals live at once.
    frame: usize,
}

struct Compiler<'e> {
    /// Enclosing functions, outermost (the root frame) first.
    scopes: Vec<Scope<'e>>,
}

impl<'e> Compiler<'e> {
    fn scope(&mut self) -> &mut Scope<'e> {
        self.scopes
            .last_mut()
            .expect("the root scope is never popped")
    }

    /// Resolves `name` in scope `depth`, capturing it through every
    /// enclosing function between its binder and the use. A name bound
    /// nowhere becomes a capture of the root: a global.
    fn resolve(&mut self, depth: usize, name: &'e str) -> Slot {
        let scope = &self.scopes[depth];
        if let Some(i) = scope.locals.iter().rposition(|n| *n == name) {
            return Slot::Local(i);
        }
        if let Some(i) = scope.captured.iter().position(|n| *n == name) {
            return Slot::Captured(i);
        }
        if depth > 0 {
            let outer = self.resolve(depth - 1, name);
            self.scopes[depth].from.push(outer);
        }
        let scope = &mut self.scopes[depth];
        scope.captured.push(name);
        Slot::Captured(scope.captured.len() - 1)
    }

    /// Binds `name` to the next free slot of the current frame.
    fn bind(&mut self, name: &'e str) -> usize {
        let scope = self.scope();
        scope.locals.push(name);
        scope.frame = scope.frame.max(scope.locals.len());
        scope.locals.len() - 1
    }

    /// Ends the scope of every binder from `slot` on.
    fn unbind(&mut self, slot: usize) {
        self.scope().locals.truncate(slot);
    }

    fn boxed(&mut self, e: &'e Expr) -> Box<Form> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'e Expr) -> Form {
        match &e.kind {
            ExprKind::Unit => Form::Unit,
            ExprKind::Int(n) => Form::Int(*n),
            ExprKind::Float(x) => Form::Float(*x),
            ExprKind::Str(s) => Form::Str(Arc::from(s.as_str())),
            ExprKind::Var(x) => match self.resolve(self.scopes.len() - 1, x) {
                Slot::Local(i) => Form::Local(i),
                Slot::Captured(i) => Form::Captured(i),
            },
            ExprKind::Lam { param, body, .. } => {
                // Most node functions take at most four parameters and
                // bind few names: one allocation for the frame's names.
                let mut params = Vec::with_capacity(4);
                params.push(param.as_str());
                let mut body = &**body;
                while let ExprKind::Lam {
                    param, body: inner, ..
                } = &body.kind
                {
                    params.push(param.as_str());
                    body = inner;
                }
                self.scopes.push(Scope {
                    frame: params.len(),
                    locals: params,
                    ..Scope::default()
                });
                let body = self.expr(body);
                // Every binder in the body is unbound again: the locals
                // are the parameters.
                let scope = self.scopes.pop().expect("pushed above");
                Form::Lam(FnCode::new(Lambda {
                    params: scope.locals.into_iter().map(Arc::from).collect(),
                    captures: scope.from,
                    frame: scope.frame,
                    body,
                }))
            }
            ExprKind::App(f, a) => Form::App(self.boxed(f), self.boxed(a)),
            ExprKind::BinOp(op, a, b) => Form::BinOp(*op, self.boxed(a), self.boxed(b)),
            ExprKind::If(c, t, f) => Form::If(self.boxed(c), self.boxed(t), self.boxed(f)),
            ExprKind::Let { name, value, body } => {
                let value = self.boxed(value);
                let slot = self.bind(name);
                let body = self.boxed(body);
                self.unbind(slot);
                Form::Let { slot, value, body }
            }
            ExprKind::Pair(a, b) => Form::Pair(self.boxed(a), self.boxed(b)),
            ExprKind::Fst(p) => Form::Fst(self.boxed(p)),
            ExprKind::Snd(p) => Form::Snd(self.boxed(p)),
            ExprKind::List(items) => Form::List(items.iter().map(|i| self.expr(i)).collect()),
            ExprKind::ListOp(op, l) => Form::ListOp(*op, self.boxed(l)),
            ExprKind::Ith(index, l) => Form::Ith(self.boxed(index), self.boxed(l)),
            ExprKind::Record(fields) => Form::Record(
                fields
                    .iter()
                    .map(|(name, value)| (name.clone(), self.expr(value)))
                    .collect(),
            ),
            ExprKind::Field(rec, name) => Form::Field(self.boxed(rec), name.clone()),
            ExprKind::Ctor(name) => Form::Stuck(format!(
                "unresolved constructor `{name}` (run Adts::resolve first)"
            )),
            ExprKind::CtorApp(name, args) => Form::CtorApp(
                Arc::from(name.as_str()),
                args.iter().map(|a| self.expr(a)).collect(),
            ),
            ExprKind::Case {
                scrutinee,
                branches,
            } => Form::Case {
                scrutinee: self.boxed(scrutinee),
                branches: branches
                    .iter()
                    .map(|b| {
                        let first = self.scope().locals.len();
                        let pattern = match &b.pattern {
                            Pattern::Ctor { name, binders } => CasePattern::Ctor {
                                name: Arc::from(name.as_str()),
                                binders: binders
                                    .iter()
                                    .map(|x| (x != "_").then(|| self.bind(x)))
                                    .collect(),
                            },
                            Pattern::Var(x) => CasePattern::Bind(self.bind(x)),
                            Pattern::Wildcard => CasePattern::Wildcard,
                        };
                        let body = self.expr(&b.body);
                        self.unbind(first);
                        (pattern, body)
                    })
                    .collect(),
            },
            ExprKind::Input(i) => {
                Form::Stuck(format!("signal form in big-step evaluation: input {i}"))
            }
            ExprKind::Lift { .. }
            | ExprKind::Foldp { .. }
            | ExprKind::Async(_)
            | ExprKind::SignalPrim { .. } => {
                Form::Stuck("signal form in big-step evaluation".to_string())
            }
        }
    }
}

/// Compiles a simple-typed expression for [`eval_code`] and
/// [`apply_node`]. Never fails: forms that cannot evaluate fail only if
/// evaluation reaches them.
///
/// ```
/// use felm::budget::Meter;
/// use elm_runtime::Value;
/// use felm::eval_big::{compile, eval_code, Env};
/// use felm::parser::parse_expr;
///
/// let code = compile(&parse_expr("(\\x y -> x * y + 1) 6 7").unwrap());
/// let v = eval_code(&Env::empty(), &code, &mut Meter::unlimited()).unwrap();
/// assert_eq!(v, Value::Int(43));
/// ```
pub fn compile(e: &Expr) -> Code {
    let mut compiler = Compiler {
        scopes: Vec::with_capacity(4),
    };
    compiler.scopes.push(Scope::default());
    let root = compiler.expr(e);
    let scope = compiler.scopes.pop().expect("the root scope");
    let int_reads = match &root {
        Form::Lam(code) if scope.captured.is_empty() && lambda(code).frame <= INT_FRAME => {
            let lam = lambda(code);
            let mut reads = 0;
            int_closed(&lam.body, lam.params.len(), &mut reads).then_some(reads)
        }
        _ => None,
    };
    Code {
        root,
        frame: scope.frame,
        globals: scope.captured.into_iter().map(Arc::from).collect(),
        int_reads,
    }
}

/// Whether `form` uses only Int literals, frame slots, the operators other
/// than `++` and `::`, `if` and `let`; sets bit `i` of `reads` when it
/// reads parameter `i` of `params` (at most [`INT_FRAME`]).
fn int_closed(form: &Form, params: usize, reads: &mut u16) -> bool {
    match form {
        Form::Int(_) => true,
        Form::Local(slot) => {
            if *slot < params {
                *reads |= 1 << slot;
            }
            true
        }
        Form::BinOp(op, a, b) => {
            !matches!(op, BinOp::Append | BinOp::Cons)
                && int_closed(a, params, reads)
                && int_closed(b, params, reads)
        }
        Form::If(c, t, f) => {
            int_closed(c, params, reads)
                && int_closed(t, params, reads)
                && int_closed(f, params, reads)
        }
        Form::Let { value, body, .. } => {
            int_closed(value, params, reads) && int_closed(body, params, reads)
        }
        _ => false,
    }
}

/// Evaluates a simple-typed expression under `env`: [`compile`], then
/// [`eval_code`] with an unlimited meter.
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms or signal forms.
///
/// ```
/// use elm_runtime::Value;
/// use felm::eval_big::{eval, Env};
/// use felm::parser::parse_expr;
///
/// let e = parse_expr("(\\x y -> x * y + 1) 6 7").unwrap();
/// assert_eq!(eval(&Env::empty(), &e).unwrap(), Value::Int(43));
/// ```
pub fn eval(env: &Env, e: &Expr) -> Result<Value, EvalError> {
    eval_metered(env, e, &mut Meter::unlimited())
}

/// [`eval`] under a [`Meter`]: [`compile`], then [`eval_code`].
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms, [`EvalError::Trap`] on budget
/// exhaustion.
pub fn eval_metered(env: &Env, e: &Expr, meter: &mut Meter) -> Result<Value, EvalError> {
    eval_code(env, &compile(e), meter)
}

/// Evaluates compiled code under `meter`, with its free variables taken
/// from `env`: every node visit charges one fuel tick, every value
/// construction charges allocation (strings/lists/records by length), and
/// evaluation nesting counts against the depth budget, so an adversarial
/// term traps with a typed [`crate::budget::Trap`] instead of spinning or
/// exhausting memory. With [`Meter::unlimited`] the meter never traps.
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms or a free variable `env` does
/// not bind, [`EvalError::Trap`] on budget exhaustion.
pub fn eval_code(env: &Env, code: &Code, meter: &mut Meter) -> Result<Value, EvalError> {
    let globals = code
        .globals
        .iter()
        .map(|x| match env.lookup(x) {
            Some(v) => Ok(v.clone()),
            None => stuck(format!("unbound variable {x}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    with_machine(meter, |m| {
        let base = m.push_frame([], code.frame);
        m.eval(&code.root, base, &globals)
    })
}

/// Applies a closure to an argument under a [`Meter`] (see [`eval_code`]).
///
/// # Errors
///
/// [`EvalError::Stuck`] if `f` is not a closure, [`EvalError::Trap`] on
/// budget exhaustion.
pub fn apply_metered(f: Value, arg: Value, meter: &mut Meter) -> Result<Value, EvalError> {
    with_machine(meter, |m| m.apply(f, arg))
}

/// Applies compiled node-function code to its parents' values under
/// `meter` — what a `lift`, `foldp` or `keepIf` node runs per event.
///
/// A function `\p1 … pk -> body` applied to exactly k values binds them
/// into one frame, charging the meter for the k lambda visits the curried
/// reading makes, and runs the body on the Int lane when it can (see
/// [`Code::is_int_closed`]). Any other code is evaluated and applied one
/// argument at a time. The result and every meter reading are those of
/// [`eval_code`] followed by one [`apply_metered`] per argument.
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed code, [`EvalError::Trap`] on budget
/// exhaustion.
pub fn apply_node(code: &Code, args: &[&Value], meter: &mut Meter) -> Result<Value, EvalError> {
    match (code.int_reads, code.node_lambda(args.len())) {
        (Some(reads), Some(lam)) if int_lane_applies(reads, args) => {
            Ok(Value::Int(apply_int_lane(lam, args, meter)?))
        }
        _ => apply_node_boxed(code, args, meter),
    }
}

/// [`apply_node`] without the Int lane: every value is a boxed [`Value`].
/// The Int lane's reference path, kept for differential testing and the
/// `interpreter` bench.
///
/// # Errors
///
/// As [`apply_node`].
pub fn apply_node_boxed(
    code: &Code,
    args: &[&Value],
    meter: &mut Meter,
) -> Result<Value, EvalError> {
    match code.node_lambda(args.len()) {
        Some(lam) => {
            for _ in args {
                visit_lambda(meter)?;
            }
            with_machine(meter, |m| {
                let base = m.push_frame(args.iter().map(|&a| a.clone()), lam.frame);
                m.eval(&lam.body, base, &[])
            })
        }
        None => {
            let mut cur = eval_code(&Env::empty(), code, meter);
            for &a in args {
                let Ok(f) = cur else { break };
                cur = apply_metered(f, a.clone(), meter);
            }
            cur
        }
    }
}

/// The lambda behind a function's code: [`compile`] makes every
/// [`FnCode`] an FElm program can reach, each holding one.
fn lambda(code: &FnCode) -> &Lambda {
    code.downcast()
        .expect("a compiled lambda's code is a `Lambda`")
}

/// What the curried reading charges for evaluating one lambda to a
/// closure: a visit that allocates one cell.
fn visit_lambda(meter: &mut Meter) -> Result<(), Trap> {
    meter.tick()?;
    meter.enter()?;
    let r = meter.alloc(1);
    meter.leave();
    r
}

/// Whether every parameter an int-closed body reads (bit `i` of `reads`
/// for parameter `i`) holds an Int.
fn int_lane_applies(reads: u16, args: &[&Value]) -> bool {
    args.iter()
        .enumerate()
        .all(|(i, a)| reads & (1 << i) == 0 || matches!(a, Value::Int(_)))
}

/// The most frame slots an Int lane function may use: its frame lives on
/// the native stack.
const INT_FRAME: usize = 16;

/// The Int lane: the lambda visits, then the body over an `i64` frame.
fn apply_int_lane(lam: &Lambda, args: &[&Value], meter: &mut Meter) -> Result<i64, Trap> {
    for _ in args {
        visit_lambda(meter)?;
    }
    let mut slots = [0i64; INT_FRAME];
    let frame = &mut slots[..lam.frame];
    for (slot, a) in frame.iter_mut().zip(args) {
        if let Value::Int(n) = a {
            *slot = *n;
        }
    }
    eval_int(&lam.body, frame, meter)
}

/// Evaluates an int-closed body, charging the meter exactly as
/// [`Machine::eval`] does on the same code.
fn eval_int(form: &Form, frame: &mut [i64], meter: &mut Meter) -> Result<i64, Trap> {
    meter.tick()?;
    meter.enter()?;
    let r = int_form(form, frame, meter);
    meter.leave();
    r
}

fn int_form(form: &Form, frame: &mut [i64], meter: &mut Meter) -> Result<i64, Trap> {
    match form {
        Form::Int(n) => Ok(*n),
        Form::Local(slot) => Ok(frame[*slot]),
        Form::BinOp(op, a, b) => {
            let x = eval_int(a, frame, meter)?;
            let y = eval_int(b, frame, meter)?;
            Ok(int_op(*op, x, y).expect("int-closed code has no ++ or ::"))
        }
        Form::If(c, t, f) => {
            if eval_int(c, frame, meter)? != 0 {
                eval_int(t, frame, meter)
            } else {
                eval_int(f, frame, meter)
            }
        }
        Form::Let { slot, value, body } => {
            let v = eval_int(value, frame, meter)?;
            meter.alloc(1)?;
            frame[*slot] = v;
            eval_int(body, frame, meter)
        }
        _ => unreachable!("the Int lane runs int-closed code only"),
    }
}

thread_local! {
    /// The frame stack, reused across evaluations on this thread.
    static STACK: Cell<Vec<Value>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on a machine over this thread's reused frame stack.
fn with_machine<T>(meter: &mut Meter, f: impl FnOnce(&mut Machine<'_>) -> T) -> T {
    let mut m = Machine {
        stack: STACK.with(Cell::take),
        meter,
    };
    let r = f(&mut m);
    let mut stack = m.stack;
    stack.clear();
    STACK.with(|s| s.set(stack));
    r
}

/// The general evaluator: frames are windows of one value stack.
struct Machine<'m> {
    stack: Vec<Value>,
    meter: &'m mut Meter,
}

impl Machine<'_> {
    /// Pushes a frame of `size` slots whose first slots are `args`;
    /// returns its base.
    fn push_frame(&mut self, args: impl IntoIterator<Item = Value>, size: usize) -> usize {
        let base = self.stack.len();
        self.stack.extend(args);
        self.stack.resize(base + size, Value::Unit);
        base
    }

    /// Evaluates `form` in the frame at `base` of a closure that captured
    /// `captured`.
    fn eval(&mut self, form: &Form, base: usize, captured: &[Value]) -> Result<Value, EvalError> {
        self.meter.tick()?;
        self.meter.enter()?;
        let r = self.form(form, base, captured);
        self.meter.leave();
        r
    }

    fn form(&mut self, form: &Form, base: usize, captured: &[Value]) -> Result<Value, EvalError> {
        match form {
            Form::Unit => Ok(Value::Unit),
            Form::Int(n) => Ok(Value::Int(*n)),
            Form::Float(x) => Ok(Value::Float(*x)),
            Form::Str(s) => {
                self.meter.alloc(1 + s.len() as u64)?;
                Ok(Value::Str(s.clone()))
            }
            Form::Local(slot) => Ok(self.stack[base + slot].clone()),
            Form::Captured(slot) => Ok(captured[*slot].clone()),
            Form::Lam(code) => {
                self.meter.alloc(1)?;
                let lam = lambda(code);
                let values = (!lam.captures.is_empty()).then(|| {
                    lam.captures
                        .iter()
                        .map(|slot| match *slot {
                            Slot::Local(i) => self.stack[base + i].clone(),
                            Slot::Captured(i) => captured[i].clone(),
                        })
                        .collect()
                });
                Ok(Value::Closure(code.clone(), values))
            }
            Form::App(f, a) => {
                let fv = self.eval(f, base, captured)?;
                let av = self.eval(a, base, captured)?;
                self.apply(fv, av)
            }
            Form::BinOp(op, a, b) => {
                let av = self.eval(a, base, captured)?;
                let bv = self.eval(b, base, captured)?;
                delta(*op, &av, &bv, self.meter)
            }
            Form::If(c, t, f) => match self.eval(c, base, captured)? {
                Value::Int(n) => {
                    if n != 0 {
                        self.eval(t, base, captured)
                    } else {
                        self.eval(f, base, captured)
                    }
                }
                other => stuck(format!("if-condition is not an integer: {other:?}")),
            },
            Form::Let { slot, value, body } => {
                let v = self.eval(value, base, captured)?;
                self.meter.alloc(1)?;
                self.stack[base + slot] = v;
                self.eval(body, base, captured)
            }
            Form::Pair(a, b) => {
                self.meter.alloc(1)?;
                let a = self.eval(a, base, captured)?;
                let b = self.eval(b, base, captured)?;
                Ok(Value::Pair(Arc::new((a, b))))
            }
            Form::Fst(p) => match self.eval(p, base, captured)? {
                Value::Pair(pr) => Ok(pr.0.clone()),
                other => stuck(format!("fst of a non-pair: {other:?}")),
            },
            Form::Snd(p) => match self.eval(p, base, captured)? {
                Value::Pair(pr) => Ok(pr.1.clone()),
                other => stuck(format!("snd of a non-pair: {other:?}")),
            },
            Form::List(items) => {
                self.meter.alloc(1 + items.len() as u64)?;
                let vals = items
                    .iter()
                    .map(|i| self.eval(i, base, captured))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::List(Arc::new(vals)))
            }
            Form::ListOp(op, l) => match self.eval(l, base, captured)? {
                Value::List(items) => match op {
                    ListOp::Head => match items.first() {
                        Some(h) => Ok(h.clone()),
                        None => stuck("head of the empty list"),
                    },
                    ListOp::Tail => {
                        if items.is_empty() {
                            stuck("tail of the empty list")
                        } else {
                            self.meter.alloc(items.len() as u64)?;
                            Ok(Value::List(Arc::new(items[1..].to_vec())))
                        }
                    }
                    ListOp::IsEmpty => Ok(Value::Int(items.is_empty() as i64)),
                    ListOp::Length => Ok(Value::Int(items.len() as i64)),
                },
                other => stuck(format!("{} of a non-list: {other:?}", op.keyword())),
            },
            Form::Ith(index, l) => {
                let i = match self.eval(index, base, captured)? {
                    Value::Int(n) => n,
                    other => return stuck(format!("ith index is not an int: {other:?}")),
                };
                match self.eval(l, base, captured)? {
                    Value::List(items) => {
                        if i < 0 || i as usize >= items.len() {
                            stuck(format!(
                                "ith index {i} out of bounds for a {}-element list",
                                items.len()
                            ))
                        } else {
                            Ok(items[i as usize].clone())
                        }
                    }
                    other => stuck(format!("ith of a non-list: {other:?}")),
                }
            }
            Form::Record(fields) => {
                self.meter.alloc(1 + fields.len() as u64)?;
                let mut out = std::collections::BTreeMap::new();
                for (name, value) in fields {
                    out.insert(name.clone(), self.eval(value, base, captured)?);
                }
                Ok(Value::Record(Arc::new(out)))
            }
            Form::Field(rec, name) => match self.eval(rec, base, captured)? {
                Value::Record(fields) => match fields.get(name) {
                    Some(v) => Ok(v.clone()),
                    None => stuck(format!("record has no field `{name}`")),
                },
                other => stuck(format!("field access on a non-record: {other:?}")),
            },
            Form::CtorApp(name, args) => {
                self.meter.alloc(1 + args.len() as u64)?;
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, base, captured))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Tagged(name.clone(), Arc::new(vals)))
            }
            Form::Case {
                scrutinee,
                branches,
            } => {
                let value = self.eval(scrutinee, base, captured)?;
                for (pattern, body) in branches {
                    match (pattern, &value) {
                        (CasePattern::Ctor { name, binders }, Value::Tagged(tag, args))
                            if name == tag =>
                        {
                            for (binder, arg) in binders.iter().zip(args.iter()) {
                                if let Some(slot) = binder {
                                    self.stack[base + slot] = arg.clone();
                                }
                            }
                        }
                        (CasePattern::Ctor { .. }, _) => continue,
                        (CasePattern::Bind(slot), _) => self.stack[base + slot] = value.clone(),
                        (CasePattern::Wildcard, _) => {}
                    }
                    return self.eval(body, base, captured);
                }
                stuck(format!("no case branch matched {value:?}"))
            }
            Form::Stuck(reason) => stuck(reason.as_str()),
        }
    }

    /// Applies `f` to one argument. A closure still short of more than
    /// one argument collects it (charged as the visit of the next curried
    /// lambda); otherwise its body runs in a fresh frame.
    fn apply(&mut self, f: Value, arg: Value) -> Result<Value, EvalError> {
        let Value::Closure(code, values) = &f else {
            return stuck(format!("application of a non-function: {f:?}"));
        };
        let lam = lambda(code);
        // The captured values, then the arguments collected so far.
        let values = values.as_deref().unwrap_or_default();
        let (captured, args) = values.split_at(lam.captures.len());
        if args.len() + 1 < lam.params.len() {
            visit_lambda(self.meter)?;
            let values = values.iter().cloned().chain([arg]).collect();
            return Ok(Value::Closure(code.clone(), Some(values)));
        }
        let base = self.push_frame(args.iter().cloned().chain([arg]), lam.frame);
        let r = self.eval(&lam.body, base, captured);
        self.stack.truncate(base);
        r
    }
}

/// `op` on two integers: wrapping arithmetic, division and remainder by
/// zero give 0, comparisons and connectives give 0 or 1. `None` for `++`
/// and `::`.
fn int_op(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Mod => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::And => ((x != 0) && (y != 0)) as i64,
        BinOp::Or => ((x != 0) || (y != 0)) as i64,
        BinOp::Append | BinOp::Cons => return None,
    })
}

fn delta(op: BinOp, a: &Value, b: &Value, meter: &mut Meter) -> Result<Value, EvalError> {
    use Value::{Float, Int, Str};
    let r = match (op, a, b) {
        (BinOp::Append, Str(x), Str(y)) => {
            // Charge before materializing: an append chain must trap on the
            // budget, not take the memory down with it.
            meter.alloc(x.len() as u64 + y.len() as u64)?;
            Str(Arc::from(format!("{x}{y}").as_str()))
        }
        (BinOp::Cons, head, Value::List(items)) => {
            meter.alloc(1 + items.len() as u64)?;
            let mut out = Vec::with_capacity(items.len() + 1);
            out.push(head.clone());
            out.extend(items.iter().cloned());
            Value::List(Arc::new(out))
        }
        (_, Int(x), Int(y)) => match int_op(op, *x, *y) {
            Some(n) => Int(n),
            None => return stuck("++/:: on integers"),
        },
        (_, Float(x), Float(y)) => {
            let (x, y) = (*x, *y);
            match op {
                BinOp::Add => Float(x + y),
                BinOp::Sub => Float(x - y),
                BinOp::Mul => Float(x * y),
                BinOp::Div => Float(if y == 0.0 { 0.0 } else { x / y }),
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
                _ => return stuck("unsupported float operator"),
            }
        }
        (BinOp::Eq, Str(x), Str(y)) => Int((x == y) as i64),
        (BinOp::Ne, Str(x), Str(y)) => Int((x != y) as i64),
        _ => return stuck(format!("operator {op} applied to {a:?} and {b:?}")),
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{normalize, DEFAULT_FUEL};
    use crate::parser::parse_expr;
    use crate::translate::expr_to_value;

    fn big(src: &str) -> Value {
        eval(&Env::empty(), &parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn evaluates_functional_programs() {
        assert_eq!(big("1 + 2 * 3"), Value::Int(7));
        assert_eq!(big("(\\f x -> f (f x)) (\\n -> n * 2) 5"), Value::Int(20));
        assert_eq!(big("let a = 3 in let b = a * a in b + a"), Value::Int(12));
        assert_eq!(big("if 1 < 2 then \"y\" else \"n\""), Value::str("y"));
        assert_eq!(big("fst (snd ((1, 2), (3, 4)))"), Value::Int(3));
    }

    #[test]
    fn closures_capture_lexically() {
        // The classic shadowing test: adder captures its own x.
        assert_eq!(
            big("let makeAdd = \\x -> \\y -> x + y in let x = 100 in makeAdd 1 x"),
            Value::Int(101)
        );
        assert_eq!(
            big("let x = 1 in let f = \\y -> x + y in let x = 50 in f 0"),
            Value::Int(1),
            "static scoping, not dynamic"
        );
    }

    #[test]
    fn agrees_with_small_step_on_sample_programs() {
        for src in [
            "1 + 2 * 3 - 4 / 2",
            "(\\x -> x * x) 12",
            "let compose = \\f g x -> f (g x) in compose (\\a -> a + 1) (\\b -> b * 2) 10",
            "if 7 % 2 then 1 else 0",
            "\"a\" ++ \"b\" ++ \"c\"",
            "(1 + 1, \"two\")",
            "snd (0, if 1 then 10 else 20)",
        ] {
            let e = parse_expr(src).unwrap();
            let small = normalize(&e, DEFAULT_FUEL).unwrap();
            let small_val = expr_to_value(&small).expect("data result");
            let big_val = eval(&Env::empty(), &e).unwrap();
            assert_eq!(small_val, big_val, "{src}");
        }
    }

    #[test]
    fn signal_forms_are_rejected() {
        assert!(eval(&Env::empty(), &parse_expr("Mouse.x").unwrap()).is_err());
        assert!(eval(
            &Env::empty(),
            &parse_expr("lift (\\x -> x) Mouse.x").unwrap()
        )
        .is_err());
    }

    #[test]
    fn function_values_are_opaque_runtime_values() {
        let f = big("let k = 10 in \\x y -> x + y + k");
        assert_eq!(f.kind(), "function");
        assert_ne!(f, f.clone(), "functions have no decidable equality");
        assert_eq!(elm_runtime::PlainValue::from_value(&f), None);
        let partial = apply_metered(f, Value::Int(1), &mut Meter::unlimited()).unwrap();
        let sum = apply_metered(partial, Value::Int(2), &mut Meter::unlimited()).unwrap();
        assert_eq!(sum, Value::Int(13));
    }

    #[test]
    fn env_lookup_is_innermost_first() {
        let env = Env::empty()
            .bind("x", Value::Int(1))
            .bind("y", Value::Int(2))
            .bind("x", Value::Int(3));
        assert_eq!(env.lookup("x"), Some(&Value::Int(3)));
        assert_eq!(env.lookup("y"), Some(&Value::Int(2)));
        assert_eq!(env.lookup("z"), None);
    }
}
