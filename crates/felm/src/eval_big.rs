//! Big-step, environment-based evaluation of the *functional* fragment.
//!
//! The small-step machine in [`crate::eval`] is the paper's Fig. 6,
//! verbatim — ideal as a specification, quadratic in practice (substitution
//! copies terms). Signal-graph nodes apply their embedded FElm functions on
//! *every event*, so stage two wants a fast interpreter: this module
//! [`compile`]s a simple-typed term once into [`Code`] and evaluates that
//! with closures and persistent environments ([`eval_code`]). A closure
//! shares its lambda's compiled body, so applying a function copies no
//! syntax; graph nodes compile their function when the graph is built and
//! only evaluate per event.
//!
//! Scope: values of simple types only (unit, numbers, strings, pairs,
//! functions). Signal forms are out of scope by construction — stage one
//! has already reduced programs to signal terms whose embedded functions
//! are simple-typed values (Fig. 5), and those are what nodes apply.
//!
//! Agreement with the small-step semantics is property-tested in
//! `tests/theorem1_prop.rs` and benchmarked (`interpreter` bench).

use std::fmt;
use std::sync::Arc;

use crate::ast::{BinOp, Expr, ExprKind, ListOp, Pattern};
use crate::budget::Meter;
use crate::eval::EvalError;

/// A runtime value of the big-step machine.
#[derive(Clone)]
pub enum RtValue {
    /// `()`
    Unit,
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(Arc<str>),
    /// A pair.
    Pair(Arc<(RtValue, RtValue)>),
    /// A list.
    List(Arc<Vec<RtValue>>),
    /// A record.
    Record(Arc<std::collections::BTreeMap<String, RtValue>>),
    /// A constructor application of an algebraic data type.
    Tagged {
        /// Constructor name.
        tag: Arc<str>,
        /// Arguments.
        args: Arc<Vec<RtValue>>,
    },
    /// A function closure.
    Closure {
        /// Parameter name.
        param: Arc<str>,
        /// Compiled body (shared with the lambda it was built from).
        body: Arc<Code>,
        /// Captured environment.
        env: Env,
    },
}

impl fmt::Debug for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Unit => write!(f, "()"),
            RtValue::Int(n) => write!(f, "{n}"),
            RtValue::Float(x) => write!(f, "{x:?}"),
            RtValue::Str(s) => write!(f, "{s:?}"),
            RtValue::Pair(p) => write!(f, "({:?}, {:?})", p.0, p.1),
            RtValue::List(items) => f.debug_list().entries(items.iter()).finish(),
            RtValue::Record(fields) => {
                let mut m = f.debug_map();
                for (k, v) in fields.iter() {
                    m.entry(&format_args!("{k}"), v);
                }
                m.finish()
            }
            RtValue::Tagged { tag, args } => {
                write!(f, "{tag}")?;
                for a in args.iter() {
                    write!(f, " {a:?}")?;
                }
                Ok(())
            }
            RtValue::Closure { param, .. } => write!(f, "<closure λ{param}>"),
        }
    }
}

impl PartialEq for RtValue {
    /// Structural equality on data; closures are never equal (functions
    /// have no decidable equality).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (RtValue::Unit, RtValue::Unit) => true,
            (RtValue::Int(a), RtValue::Int(b)) => a == b,
            (RtValue::Float(a), RtValue::Float(b)) => a == b,
            (RtValue::Str(a), RtValue::Str(b)) => a == b,
            (RtValue::Pair(a), RtValue::Pair(b)) => a.0 == b.0 && a.1 == b.1,
            (RtValue::List(a), RtValue::List(b)) => a == b,
            (RtValue::Record(a), RtValue::Record(b)) => a == b,
            (RtValue::Tagged { tag: t1, args: a1 }, RtValue::Tagged { tag: t2, args: a2 }) => {
                t1 == t2 && a1 == a2
            }
            _ => false,
        }
    }
}

/// A persistent (immutable, shareable) environment.
#[derive(Clone, Default)]
pub struct Env(Option<Arc<Binding>>);

struct Binding {
    name: Arc<str>,
    value: RtValue,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one binding (O(1), shares the tail).
    pub fn bind(&self, name: impl Into<Arc<str>>, value: RtValue) -> Env {
        Env(Some(Arc::new(Binding {
            name: name.into(),
            value,
            next: self.clone(),
        })))
    }

    /// Looks up a name (innermost binding wins).
    pub fn lookup(&self, name: &str) -> Option<&RtValue> {
        let mut cur = self;
        while let Some(b) = &cur.0 {
            if &*b.name == name {
                return Some(&b.value);
            }
            cur = &b.next;
        }
        None
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        let mut cur = self;
        while let Some(b) = &cur.0 {
            names.push(&*b.name);
            cur = &b.next;
        }
        write!(f, "Env{names:?}")
    }
}

fn stuck<T>(reason: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::Stuck {
        reason: reason.into(),
    })
}

/// The compiled form of a simple-typed [`Expr`]: what [`eval_code`] runs.
///
/// Compilation is one syntax walk: names become shared `Arc<str>`s,
/// string literals are materialised once, and lambda bodies become shared
/// `Arc<Code>`s, so building a closure copies no syntax. Forms with no
/// value semantics here (signal forms, unresolved constructors) compile to
/// [`Code::Stuck`], which fails only if evaluation reaches it.
#[derive(Debug)]
pub enum Code {
    /// `()`
    Unit,
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal.
    Str(Arc<str>),
    /// A variable reference.
    Var(Arc<str>),
    /// A lambda.
    Lam {
        /// Parameter name.
        param: Arc<str>,
        /// Body, shared by every closure built from this lambda.
        body: Arc<Code>,
    },
    /// Application.
    App(Box<Code>, Box<Code>),
    /// A binary operator.
    BinOp(BinOp, Box<Code>, Box<Code>),
    /// `if c then t else f`.
    If(Box<Code>, Box<Code>, Box<Code>),
    /// `let name = value in body`.
    Let {
        /// Bound name.
        name: Arc<str>,
        /// Bound expression.
        value: Box<Code>,
        /// Body.
        body: Box<Code>,
    },
    /// A pair.
    Pair(Box<Code>, Box<Code>),
    /// `fst`.
    Fst(Box<Code>),
    /// `snd`.
    Snd(Box<Code>),
    /// A list literal.
    List(Vec<Code>),
    /// A unary list primitive.
    ListOp(ListOp, Box<Code>),
    /// `ith index list`.
    Ith(Box<Code>, Box<Code>),
    /// A record literal.
    Record(Vec<(String, Code)>),
    /// Field access.
    Field(Box<Code>, String),
    /// A saturated constructor application.
    CtorApp(Arc<str>, Vec<Code>),
    /// `case`, branches tried in order.
    Case {
        /// The matched expression.
        scrutinee: Box<Code>,
        /// The branches.
        branches: Vec<(CodePattern, Code)>,
    },
    /// A form evaluation cannot reduce; evaluating it fails with this
    /// message.
    Stuck(String),
}

/// A compiled `case` pattern.
#[derive(Debug)]
pub enum CodePattern {
    /// A constructor; `None` binders are `_`.
    Ctor {
        /// Constructor name.
        name: Arc<str>,
        /// One binder per argument.
        binders: Vec<Option<Arc<str>>>,
    },
    /// A catch-all variable.
    Var(Arc<str>),
    /// `_`.
    Wildcard,
}

/// Compiles a simple-typed expression for [`eval_code`]. Never fails:
/// forms that cannot evaluate become [`Code::Stuck`].
///
/// ```
/// use felm::budget::Meter;
/// use felm::eval_big::{compile, eval_code, Env, RtValue};
/// use felm::parser::parse_expr;
///
/// let code = compile(&parse_expr("(\\x y -> x * y + 1) 6 7").unwrap());
/// let v = eval_code(&Env::empty(), &code, &mut Meter::unlimited()).unwrap();
/// assert_eq!(v, RtValue::Int(43));
/// ```
pub fn compile(e: &Expr) -> Code {
    let boxed = |e: &Expr| Box::new(compile(e));
    match &e.kind {
        ExprKind::Unit => Code::Unit,
        ExprKind::Int(n) => Code::Int(*n),
        ExprKind::Float(x) => Code::Float(*x),
        ExprKind::Str(s) => Code::Str(Arc::from(s.as_str())),
        ExprKind::Var(x) => Code::Var(Arc::from(x.as_str())),
        ExprKind::Lam { param, body, .. } => Code::Lam {
            param: Arc::from(param.as_str()),
            body: Arc::new(compile(body)),
        },
        ExprKind::App(f, a) => Code::App(boxed(f), boxed(a)),
        ExprKind::BinOp(op, a, b) => Code::BinOp(*op, boxed(a), boxed(b)),
        ExprKind::If(c, t, f) => Code::If(boxed(c), boxed(t), boxed(f)),
        ExprKind::Let { name, value, body } => Code::Let {
            name: Arc::from(name.as_str()),
            value: boxed(value),
            body: boxed(body),
        },
        ExprKind::Pair(a, b) => Code::Pair(boxed(a), boxed(b)),
        ExprKind::Fst(p) => Code::Fst(boxed(p)),
        ExprKind::Snd(p) => Code::Snd(boxed(p)),
        ExprKind::List(items) => Code::List(items.iter().map(compile).collect()),
        ExprKind::ListOp(op, l) => Code::ListOp(*op, boxed(l)),
        ExprKind::Ith(index, l) => Code::Ith(boxed(index), boxed(l)),
        ExprKind::Record(fields) => Code::Record(
            fields
                .iter()
                .map(|(name, value)| (name.clone(), compile(value)))
                .collect(),
        ),
        ExprKind::Field(rec, name) => Code::Field(boxed(rec), name.clone()),
        ExprKind::Ctor(name) => Code::Stuck(format!(
            "unresolved constructor `{name}` (run Adts::resolve first)"
        )),
        ExprKind::CtorApp(name, args) => {
            Code::CtorApp(Arc::from(name.as_str()), args.iter().map(compile).collect())
        }
        ExprKind::Case {
            scrutinee,
            branches,
        } => Code::Case {
            scrutinee: boxed(scrutinee),
            branches: branches
                .iter()
                .map(|b| {
                    let pattern = match &b.pattern {
                        Pattern::Ctor { name, binders } => CodePattern::Ctor {
                            name: Arc::from(name.as_str()),
                            binders: binders
                                .iter()
                                .map(|x| (x != "_").then(|| Arc::from(x.as_str())))
                                .collect(),
                        },
                        Pattern::Var(x) => CodePattern::Var(Arc::from(x.as_str())),
                        Pattern::Wildcard => CodePattern::Wildcard,
                    };
                    (pattern, compile(&b.body))
                })
                .collect(),
        },
        ExprKind::Input(i) => Code::Stuck(format!("signal form in big-step evaluation: input {i}")),
        ExprKind::Lift { .. }
        | ExprKind::Foldp { .. }
        | ExprKind::Async(_)
        | ExprKind::SignalPrim { .. } => {
            Code::Stuck("signal form in big-step evaluation".to_string())
        }
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
/// use felm::eval_big::{eval, Env, RtValue};
/// use felm::parser::parse_expr;
///
/// let e = parse_expr("(\\x y -> x * y + 1) 6 7").unwrap();
/// assert_eq!(eval(&Env::empty(), &e).unwrap(), RtValue::Int(43));
/// ```
pub fn eval(env: &Env, e: &Expr) -> Result<RtValue, EvalError> {
    eval_metered(env, e, &mut Meter::unlimited())
}

/// [`eval`] under a [`Meter`]: [`compile`], then [`eval_code`].
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms, [`EvalError::Trap`] on budget
/// exhaustion.
pub fn eval_metered(env: &Env, e: &Expr, meter: &mut Meter) -> Result<RtValue, EvalError> {
    eval_code(env, &compile(e), meter)
}

/// Evaluates compiled code under `env` and `meter`: every node visit
/// charges one fuel tick, every value construction charges allocation
/// (strings/lists/records by length), and evaluation nesting counts
/// against the depth budget, so an adversarial term traps with a typed
/// [`crate::budget::Trap`] instead of spinning or exhausting memory. With
/// [`Meter::unlimited`] the meter never traps.
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms, [`EvalError::Trap`] on budget
/// exhaustion.
pub fn eval_code(env: &Env, code: &Code, meter: &mut Meter) -> Result<RtValue, EvalError> {
    meter.tick()?;
    meter.enter()?;
    let r = eval_form(env, code, meter);
    meter.leave();
    r
}

fn eval_form(env: &Env, code: &Code, meter: &mut Meter) -> Result<RtValue, EvalError> {
    match code {
        Code::Unit => Ok(RtValue::Unit),
        Code::Int(n) => Ok(RtValue::Int(*n)),
        Code::Float(x) => Ok(RtValue::Float(*x)),
        Code::Str(s) => {
            meter.alloc(1 + s.len() as u64)?;
            Ok(RtValue::Str(s.clone()))
        }
        Code::Var(x) => match env.lookup(x) {
            Some(v) => Ok(v.clone()),
            None => stuck(format!("unbound variable {x}")),
        },
        Code::Lam { param, body } => {
            meter.alloc(1)?;
            Ok(RtValue::Closure {
                param: param.clone(),
                body: body.clone(),
                env: env.clone(),
            })
        }
        Code::App(f, a) => {
            let fv = eval_code(env, f, meter)?;
            let av = eval_code(env, a, meter)?;
            apply_metered(fv, av, meter)
        }
        Code::BinOp(op, a, b) => {
            let av = eval_code(env, a, meter)?;
            let bv = eval_code(env, b, meter)?;
            delta(*op, &av, &bv, meter)
        }
        Code::If(c, t, f) => match eval_code(env, c, meter)? {
            RtValue::Int(n) => {
                if n != 0 {
                    eval_code(env, t, meter)
                } else {
                    eval_code(env, f, meter)
                }
            }
            other => stuck(format!("if-condition is not an integer: {other:?}")),
        },
        Code::Let { name, value, body } => {
            let v = eval_code(env, value, meter)?;
            meter.alloc(1)?;
            eval_code(&env.bind(name.clone(), v), body, meter)
        }
        Code::Pair(a, b) => {
            meter.alloc(1)?;
            Ok(RtValue::Pair(Arc::new((
                eval_code(env, a, meter)?,
                eval_code(env, b, meter)?,
            ))))
        }
        Code::Fst(p) => match eval_code(env, p, meter)? {
            RtValue::Pair(pr) => Ok(pr.0.clone()),
            other => stuck(format!("fst of a non-pair: {other:?}")),
        },
        Code::Snd(p) => match eval_code(env, p, meter)? {
            RtValue::Pair(pr) => Ok(pr.1.clone()),
            other => stuck(format!("snd of a non-pair: {other:?}")),
        },
        Code::List(items) => {
            meter.alloc(1 + items.len() as u64)?;
            let vals = items
                .iter()
                .map(|i| eval_code(env, i, meter))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RtValue::List(Arc::new(vals)))
        }
        Code::ListOp(op, l) => match eval_code(env, l, meter)? {
            RtValue::List(items) => match op {
                ListOp::Head => match items.first() {
                    Some(h) => Ok(h.clone()),
                    None => stuck("head of the empty list"),
                },
                ListOp::Tail => {
                    if items.is_empty() {
                        stuck("tail of the empty list")
                    } else {
                        meter.alloc(items.len() as u64)?;
                        Ok(RtValue::List(Arc::new(items[1..].to_vec())))
                    }
                }
                ListOp::IsEmpty => Ok(RtValue::Int(items.is_empty() as i64)),
                ListOp::Length => Ok(RtValue::Int(items.len() as i64)),
            },
            other => stuck(format!("{} of a non-list: {other:?}", op.keyword())),
        },
        Code::Ith(index, l) => {
            let i = match eval_code(env, index, meter)? {
                RtValue::Int(n) => n,
                other => return stuck(format!("ith index is not an int: {other:?}")),
            };
            match eval_code(env, l, meter)? {
                RtValue::List(items) => {
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
        Code::Record(fields) => {
            meter.alloc(1 + fields.len() as u64)?;
            let mut out = std::collections::BTreeMap::new();
            for (name, value) in fields {
                out.insert(name.clone(), eval_code(env, value, meter)?);
            }
            Ok(RtValue::Record(Arc::new(out)))
        }
        Code::Field(rec, name) => match eval_code(env, rec, meter)? {
            RtValue::Record(fields) => match fields.get(name) {
                Some(v) => Ok(v.clone()),
                None => stuck(format!("record has no field `{name}`")),
            },
            other => stuck(format!("field access on a non-record: {other:?}")),
        },
        Code::CtorApp(name, args) => {
            meter.alloc(1 + args.len() as u64)?;
            let vals = args
                .iter()
                .map(|a| eval_code(env, a, meter))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RtValue::Tagged {
                tag: name.clone(),
                args: Arc::new(vals),
            })
        }
        Code::Case {
            scrutinee,
            branches,
        } => {
            let value = eval_code(env, scrutinee, meter)?;
            for (pattern, body) in branches {
                match (pattern, &value) {
                    (CodePattern::Ctor { name, binders }, RtValue::Tagged { tag, args })
                        if name == tag =>
                    {
                        let mut env2 = env.clone();
                        for (binder, arg) in binders.iter().zip(args.iter()) {
                            if let Some(binder) = binder {
                                env2 = env2.bind(binder.clone(), arg.clone());
                            }
                        }
                        return eval_code(&env2, body, meter);
                    }
                    (CodePattern::Ctor { .. }, _) => continue,
                    (CodePattern::Var(x), _) => {
                        return eval_code(&env.bind(x.clone(), value.clone()), body, meter)
                    }
                    (CodePattern::Wildcard, _) => return eval_code(env, body, meter),
                }
            }
            stuck(format!("no case branch matched {value:?}"))
        }
        Code::Stuck(reason) => stuck(reason.as_str()),
    }
}

/// Applies a closure to an argument under a [`Meter`] (see [`eval_code`]).
///
/// # Errors
///
/// [`EvalError::Stuck`] if `f` is not a closure, [`EvalError::Trap`] on
/// budget exhaustion.
pub fn apply_metered(f: RtValue, arg: RtValue, meter: &mut Meter) -> Result<RtValue, EvalError> {
    match f {
        RtValue::Closure { param, body, env } => eval_code(&env.bind(param, arg), &body, meter),
        other => stuck(format!("application of a non-function: {other:?}")),
    }
}

fn delta(op: BinOp, a: &RtValue, b: &RtValue, meter: &mut Meter) -> Result<RtValue, EvalError> {
    use RtValue::{Float, Int, Str};
    let r = match (op, a, b) {
        (BinOp::Append, Str(x), Str(y)) => {
            // Charge before materializing: an append chain must trap on the
            // budget, not take the memory down with it.
            meter.alloc(x.len() as u64 + y.len() as u64)?;
            Str(Arc::from(format!("{x}{y}").as_str()))
        }
        (BinOp::Cons, head, RtValue::List(items)) => {
            meter.alloc(1 + items.len() as u64)?;
            let mut out = Vec::with_capacity(items.len() + 1);
            out.push(head.clone());
            out.extend(items.iter().cloned());
            RtValue::List(Arc::new(out))
        }
        (_, Int(x), Int(y)) => {
            let (x, y) = (*x, *y);
            match op {
                BinOp::Add => Int(x.wrapping_add(y)),
                BinOp::Sub => Int(x.wrapping_sub(y)),
                BinOp::Mul => Int(x.wrapping_mul(y)),
                BinOp::Div => Int(if y == 0 { 0 } else { x.wrapping_div(y) }),
                BinOp::Mod => Int(if y == 0 { 0 } else { x.wrapping_rem(y) }),
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
                BinOp::And => Int(((x != 0) && (y != 0)) as i64),
                BinOp::Or => Int(((x != 0) || (y != 0)) as i64),
                BinOp::Append | BinOp::Cons => return stuck("++/:: on integers"),
            }
        }
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

/// Converts a big-step value to a runtime [`elm_runtime::Value`] (data
/// only — closures return `None`).
pub fn to_runtime_value(v: &RtValue) -> Option<elm_runtime::Value> {
    Some(match v {
        RtValue::Unit => elm_runtime::Value::Unit,
        RtValue::Int(n) => elm_runtime::Value::Int(*n),
        RtValue::Float(x) => elm_runtime::Value::Float(*x),
        RtValue::Str(s) => elm_runtime::Value::Str(s.clone()),
        RtValue::Pair(p) => {
            elm_runtime::Value::pair(to_runtime_value(&p.0)?, to_runtime_value(&p.1)?)
        }
        RtValue::List(items) => elm_runtime::Value::list(
            items
                .iter()
                .map(to_runtime_value)
                .collect::<Option<Vec<_>>>()?,
        ),
        RtValue::Record(fields) => elm_runtime::Value::record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), to_runtime_value(v)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        RtValue::Tagged { tag, args } => elm_runtime::Value::tagged(
            tag.as_ref(),
            args.iter()
                .map(to_runtime_value)
                .collect::<Option<Vec<_>>>()?,
        ),
        RtValue::Closure { .. } => return None,
    })
}

/// Converts a runtime [`elm_runtime::Value`] into a big-step value.
pub fn from_runtime_value(v: &elm_runtime::Value) -> Option<RtValue> {
    Some(match v {
        elm_runtime::Value::Unit => RtValue::Unit,
        elm_runtime::Value::Int(n) => RtValue::Int(*n),
        elm_runtime::Value::Float(x) => RtValue::Float(*x),
        elm_runtime::Value::Bool(b) => RtValue::Int(*b as i64),
        elm_runtime::Value::Str(s) => RtValue::Str(s.clone()),
        elm_runtime::Value::Pair(p) => RtValue::Pair(Arc::new((
            from_runtime_value(&p.0)?,
            from_runtime_value(&p.1)?,
        ))),
        elm_runtime::Value::List(items) => RtValue::List(Arc::new(
            items
                .iter()
                .map(from_runtime_value)
                .collect::<Option<Vec<_>>>()?,
        )),
        elm_runtime::Value::Record(fields) => RtValue::Record(Arc::new(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), from_runtime_value(v)?)))
                .collect::<Option<std::collections::BTreeMap<_, _>>>()?,
        )),
        elm_runtime::Value::Tagged(tag, args) => RtValue::Tagged {
            tag: tag.clone(),
            args: Arc::new(
                args.iter()
                    .map(from_runtime_value)
                    .collect::<Option<Vec<_>>>()?,
            ),
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{normalize, DEFAULT_FUEL};
    use crate::parser::parse_expr;
    use crate::translate::expr_to_value;

    fn big(src: &str) -> RtValue {
        eval(&Env::empty(), &parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn evaluates_functional_programs() {
        assert_eq!(big("1 + 2 * 3"), RtValue::Int(7));
        assert_eq!(big("(\\f x -> f (f x)) (\\n -> n * 2) 5"), RtValue::Int(20));
        assert_eq!(big("let a = 3 in let b = a * a in b + a"), RtValue::Int(12));
        assert_eq!(
            big("if 1 < 2 then \"y\" else \"n\""),
            RtValue::Str("y".into())
        );
        assert_eq!(big("fst (snd ((1, 2), (3, 4)))"), RtValue::Int(3));
    }

    #[test]
    fn closures_capture_lexically() {
        // The classic shadowing test: adder captures its own x.
        assert_eq!(
            big("let makeAdd = \\x -> \\y -> x + y in let x = 100 in makeAdd 1 x"),
            RtValue::Int(101)
        );
        assert_eq!(
            big("let x = 1 in let f = \\y -> x + y in let x = 50 in f 0"),
            RtValue::Int(1),
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
            let big_val = to_runtime_value(&eval(&Env::empty(), &e).unwrap()).unwrap();
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
    fn value_conversions_round_trip() {
        use elm_runtime::Value;
        for v in [
            Value::Unit,
            Value::Int(5),
            Value::Float(1.5),
            Value::str("s"),
            Value::pair(Value::Int(1), Value::str("x")),
        ] {
            let rt = from_runtime_value(&v).unwrap();
            assert_eq!(to_runtime_value(&rt), Some(v));
        }
        let lst = Value::list([Value::Int(1), Value::Int(2)]);
        let rt = from_runtime_value(&lst).unwrap();
        assert_eq!(to_runtime_value(&rt), Some(lst));
        assert!(from_runtime_value(&Value::ext(0u8)).is_none());
    }

    #[test]
    fn env_lookup_is_innermost_first() {
        let env = Env::empty()
            .bind("x", RtValue::Int(1))
            .bind("y", RtValue::Int(2))
            .bind("x", RtValue::Int(3));
        assert_eq!(env.lookup("x"), Some(&RtValue::Int(3)));
        assert_eq!(env.lookup("y"), Some(&RtValue::Int(2)));
        assert_eq!(env.lookup("z"), None);
    }
}
