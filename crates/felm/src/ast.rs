//! Abstract syntax for FElm (paper Fig. 3, plus full-language extensions).
//!
//! Expressions carry [`Span`]s for diagnostics. The type language is
//! stratified exactly as in the paper: *simple types* τ never mention
//! signals; *signal types* σ are `signal τ`, functions into signal types,
//! or functions between signal types. The stratification (checked by
//! [`Type::classify`]) is what rules out signals-of-signals (§3.2).

use std::fmt;

use elm_runtime::Value;

use crate::span::Span;

/// Binary operators. The paper's ⊕ ranges over total binary integer
/// operations; the full language adds comparisons (returning `0`/`1` as in
/// FElm's int-encoded booleans), logical connectives, and string append.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (total: division by zero yields 0, keeping ⊕ total as required)
    Div,
    /// `%` (total: modulo by zero yields 0)
    Mod,
    /// `==`
    Eq,
    /// `/=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (on int-encoded booleans)
    And,
    /// `||`
    Or,
    /// `++` string append
    Append,
    /// `::` list cons (full-language extension)
    Cons,
}

impl BinOp {
    /// The operator's surface symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Append => "++",
            BinOp::Cons => "::",
        }
    }

    /// Looks up an operator by symbol.
    pub fn from_symbol(s: &str) -> Option<BinOp> {
        Some(match s {
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Mod,
            "==" => BinOp::Eq,
            "/=" => BinOp::Ne,
            "<" => BinOp::Lt,
            "<=" => BinOp::Le,
            ">" => BinOp::Gt,
            ">=" => BinOp::Ge,
            "&&" => BinOp::And,
            "||" => BinOp::Or,
            "++" => BinOp::Append,
            "::" => BinOp::Cons,
            _ => return None,
        })
    }

    /// True for operators whose operands are strings (`++`).
    pub fn is_string_op(self) -> bool {
        matches!(self, BinOp::Append)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression together with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// The node itself.
    pub kind: ExprKind,
    /// Source location (dummy for synthesized nodes).
    pub span: Span,
}

impl Expr {
    /// Wraps a kind with a span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Wraps a kind with a dummy span (synthesized nodes).
    pub fn synth(kind: ExprKind) -> Self {
        Expr::new(kind, Span::dummy())
    }

    /// Levels of nesting, this node included. Counted without recursion,
    /// so any depth can be measured.
    pub(crate) fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut open: Vec<(&Expr, usize)> = vec![(self, 1)];
        while let Some((e, depth)) = open.pop() {
            deepest = deepest.max(depth);
            let mut push = |child| open.push((child, depth + 1));
            match &e.kind {
                ExprKind::Unit
                | ExprKind::Int(_)
                | ExprKind::Float(_)
                | ExprKind::Str(_)
                | ExprKind::Var(_)
                | ExprKind::Input(_)
                | ExprKind::Ctor(_) => {}
                ExprKind::Lam { body: a, .. }
                | ExprKind::Fst(a)
                | ExprKind::Snd(a)
                | ExprKind::ListOp(_, a)
                | ExprKind::Field(a, _)
                | ExprKind::Async(a) => push(a),
                ExprKind::App(a, b)
                | ExprKind::BinOp(_, a, b)
                | ExprKind::Let {
                    value: a, body: b, ..
                }
                | ExprKind::Pair(a, b)
                | ExprKind::Ith(a, b) => {
                    push(a);
                    push(b);
                }
                ExprKind::If(a, b, c)
                | ExprKind::Foldp {
                    func: a,
                    init: b,
                    signal: c,
                } => {
                    push(a);
                    push(b);
                    push(c);
                }
                ExprKind::List(items)
                | ExprKind::CtorApp(_, items)
                | ExprKind::SignalPrim { args: items, .. } => items.iter().for_each(push),
                ExprKind::Lift { func, args } => {
                    push(func);
                    args.iter().for_each(push);
                }
                ExprKind::Record(fields) => fields.iter().for_each(|(_, v)| push(v)),
                ExprKind::Case {
                    scrutinee,
                    branches,
                } => {
                    push(scrutinee);
                    branches.iter().for_each(|b| push(&b.body));
                }
            }
        }
        deepest
    }
}

/// Expression forms (paper Fig. 3 plus floats, strings, pairs).
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// `()`
    Unit,
    /// Integer literal `n`.
    Int(i64),
    /// Float literal (full-language extension).
    Float(f64),
    /// String literal (full-language extension).
    Str(String),
    /// Variable `x`.
    Var(String),
    /// Input signal `i ∈ Input`, e.g. `Mouse.x`.
    Input(String),
    /// `λx[:τ]. e` — annotation optional (required by the checker, inferred
    /// otherwise).
    Lam {
        /// Parameter name.
        param: String,
        /// Optional parameter type annotation.
        ann: Option<Type>,
        /// Body.
        body: Box<Expr>,
    },
    /// Application `e1 e2`.
    App(Box<Expr>, Box<Expr>),
    /// `e1 ⊕ e2`.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    /// `if e1 then e2 else e3` (test is an int; nonzero = true).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let x = e1 in e2`.
    Let {
        /// Bound name.
        name: String,
        /// Bound expression.
        value: Box<Expr>,
        /// Body.
        body: Box<Expr>,
    },
    /// Pair `(e1, e2)` (simple-typed components).
    Pair(Box<Expr>, Box<Expr>),
    /// `fst e`.
    Fst(Box<Expr>),
    /// `snd e`.
    Snd(Box<Expr>),
    /// A list literal `[e1, …, en]` (full-language extension).
    List(Vec<Expr>),
    /// A unary list primitive (`head`, `tail`, `isEmpty`, `length`).
    ListOp(ListOp, Box<Expr>),
    /// `ith e1 e2` — zero-based indexing (Fig. 14's `ith`).
    Ith(Box<Expr>, Box<Expr>),
    /// A record literal `{x = e1, y = e2}` (full-language extension;
    /// non-extensible — see the crate docs for the delta from full Elm).
    Record(Vec<(String, Expr)>),
    /// Field access `e.x`.
    Field(Box<Expr>, String),
    /// `liftn e e1 … en`.
    Lift {
        /// The function to lift.
        func: Box<Expr>,
        /// The `n` signal arguments.
        args: Vec<Expr>,
    },
    /// `foldp e1 e2 e3`.
    Foldp {
        /// The fold function `τ → τ' → τ'`.
        func: Box<Expr>,
        /// The initial accumulator.
        init: Box<Expr>,
        /// The signal folded over.
        signal: Box<Expr>,
    },
    /// `async e`.
    Async(Box<Expr>),
    /// A bare constructor reference, e.g. `Just` — produced by the parser
    /// and eliminated by [`crate::env::Adts::resolve`] (nullary becomes a
    /// saturated [`ExprKind::CtorApp`]; n-ary becomes an eta-expanded
    /// lambda around one).
    Ctor(String),
    /// A saturated constructor application, e.g. `Just 3` after
    /// resolution. Only ever constructed with exactly the declared number
    /// of arguments.
    CtorApp(String, Vec<Expr>),
    /// `case e of | p1 -> e1 | p2 -> e2 …` — pattern matching over an
    /// algebraic data type (flat patterns).
    Case {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// The branches, tried in order.
        branches: Vec<CaseBranch>,
    },
    /// A library signal primitive of §4.2: `merge s1 s2`,
    /// `sampleOn ticker data`, `dropRepeats s`, `keepIf pred base s`.
    SignalPrim {
        /// Which primitive.
        op: SignalPrimOp,
        /// Operands in surface order (functions/values first, then
        /// signals — see [`SignalPrimOp::arity`]).
        args: Vec<Expr>,
    },
}

/// One branch of a `case` expression.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseBranch {
    /// The pattern.
    pub pattern: Pattern,
    /// The branch body.
    pub body: Expr,
}

/// Flat patterns: a constructor with variable binders, a catch-all
/// variable, or a wildcard.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    /// `Ctor x y` — matches the constructor, binding its arguments.
    Ctor {
        /// Constructor name.
        name: String,
        /// One binder per constructor argument (`_` allowed as a binder).
        binders: Vec<String>,
    },
    /// `x` — matches anything, binding it.
    Var(String),
    /// `_` — matches anything.
    Wildcard,
}

/// A top-level algebraic data type declaration:
/// `data Name = Ctor1 T1 T2 | Ctor2 | …` (monomorphic; recursive
/// references to `Name` in argument types are allowed — the "recursive
/// simple types" of paper §4).
#[derive(Clone, Debug, PartialEq)]
pub struct DataDef {
    /// The type name.
    pub name: String,
    /// The constructors with their argument types.
    pub ctors: Vec<(String, Vec<Type>)>,
}

/// The §4.2 library signal primitives available in FElm source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignalPrimOp {
    /// `merge : Signal a -> Signal a -> Signal a` (left-biased).
    Merge,
    /// `sampleOn : Signal a -> Signal b -> Signal b`.
    SampleOn,
    /// `dropRepeats : Signal a -> Signal a`.
    DropRepeats,
    /// `keepIf : (a -> Bool) -> a -> Signal a -> Signal a`.
    KeepIf,
}

impl SignalPrimOp {
    /// The surface keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            SignalPrimOp::Merge => "merge",
            SignalPrimOp::SampleOn => "sampleOn",
            SignalPrimOp::DropRepeats => "dropRepeats",
            SignalPrimOp::KeepIf => "keepIf",
        }
    }

    /// Total operand count.
    pub fn arity(self) -> usize {
        match self {
            SignalPrimOp::Merge | SignalPrimOp::SampleOn => 2,
            SignalPrimOp::DropRepeats => 1,
            SignalPrimOp::KeepIf => 3,
        }
    }

    /// How many leading operands are simple values (the rest are signals).
    pub fn value_args(self) -> usize {
        match self {
            SignalPrimOp::KeepIf => 2, // predicate + base value
            _ => 0,
        }
    }
}

impl ExprKind {
    /// Convenience constructor producing a span-less [`Expr`].
    pub fn into_expr(self) -> Expr {
        Expr::synth(self)
    }
}

/// Unary list primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ListOp {
    /// First element; stuck on the empty list (a runtime error, as in Elm).
    Head,
    /// All but the first element; stuck on the empty list.
    Tail,
    /// `1` if empty, `0` otherwise (int-encoded boolean).
    IsEmpty,
    /// Number of elements.
    Length,
}

impl ListOp {
    /// The surface keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            ListOp::Head => "head",
            ListOp::Tail => "tail",
            ListOp::IsEmpty => "isEmpty",
            ListOp::Length => "length",
        }
    }
}

/// FElm types (paper Fig. 3): τ simple, σ signal, with the full-language
/// additions `float`, `string`, pairs, and lists of simple types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// `unit`
    Unit,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `string`
    Str,
    /// `(τ1, τ2)` — both components simple.
    Pair(Box<Type>, Box<Type>),
    /// `[τ]` — element type simple.
    List(Box<Type>),
    /// `{x : τ1, …}` — field types simple; fields sorted by name.
    Record(std::collections::BTreeMap<String, Type>),
    /// A declared algebraic data type, by name (always simple; possibly
    /// recursive).
    Named(String),
    /// `t1 -> t2`
    Fun(Box<Type>, Box<Type>),
    /// `signal τ` — payload must be simple.
    Signal(Box<Type>),
    /// A unification variable (inference only; never in checked programs).
    Var(u32),
}

/// The stratum a type belongs to (paper Fig. 3's τ / σ split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stratum {
    /// A simple type τ: no signals anywhere.
    Simple,
    /// A signal type σ: `signal τ`, `τ → σ`, or `σ → σ'`.
    SignalKind,
    /// Outside the grammar (e.g. `signal (signal int)` or `σ → τ`).
    Invalid,
}

impl Type {
    /// Builds `t1 -> t2`.
    pub fn fun(a: Type, b: Type) -> Type {
        Type::Fun(Box::new(a), Box::new(b))
    }

    /// Builds `signal t`.
    pub fn signal(t: Type) -> Type {
        Type::Signal(Box::new(t))
    }

    /// Builds `(t1, t2)`.
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Pair(Box::new(a), Box::new(b))
    }

    /// Builds `[t]`.
    pub fn list(t: Type) -> Type {
        Type::List(Box::new(t))
    }

    /// Builds a record type from `(field, type)` pairs.
    pub fn record(fields: impl IntoIterator<Item = (String, Type)>) -> Type {
        Type::Record(fields.into_iter().collect())
    }

    /// True if the type contains no `Signal` constructor (and no
    /// unification variables): the τ stratum.
    pub fn is_simple(&self) -> bool {
        match self {
            Type::Unit | Type::Int | Type::Float | Type::Str => true,
            Type::Pair(a, b) => a.is_simple() && b.is_simple(),
            Type::List(t) => t.is_simple(),
            Type::Record(fields) => fields.values().all(Type::is_simple),
            Type::Named(_) => true,
            Type::Fun(a, b) => a.is_simple() && b.is_simple(),
            Type::Signal(_) | Type::Var(_) => false,
        }
    }

    /// Whether `v` is a value of this type: how a host checks a value that
    /// arrives from outside the program, such as an input event, before
    /// any node computes on it. A declared data type admits every
    /// constructor application (the declarations are not at hand here); a
    /// function, signal or unsolved type admits nothing.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (Type::Unit, Value::Unit)
            | (Type::Int, Value::Int(_))
            | (Type::Float, Value::Float(_))
            | (Type::Str, Value::Str(_))
            | (Type::Named(_), Value::Tagged(..)) => true,
            (Type::Pair(a, b), Value::Pair(p)) => a.admits(&p.0) && b.admits(&p.1),
            (Type::List(t), Value::List(items)) => items.iter().all(|v| t.admits(v)),
            // Both maps iterate in field-name order.
            (Type::Record(fields), Value::Record(values)) => {
                fields.len() == values.len()
                    && fields
                        .iter()
                        .zip(values.iter())
                        .all(|((f, t), (g, v))| f == g && t.admits(v))
            }
            _ => false,
        }
    }

    /// Classifies the type against the stratified grammar of Fig. 3.
    ///
    /// ```
    /// use felm::ast::{Stratum, Type};
    /// assert_eq!(Type::Int.classify(), Stratum::Simple);
    /// assert_eq!(Type::signal(Type::Int).classify(), Stratum::SignalKind);
    /// // signals of signals are outside the grammar:
    /// assert_eq!(Type::signal(Type::signal(Type::Int)).classify(), Stratum::Invalid);
    /// // and so are functions from signals to simple values:
    /// assert_eq!(
    ///     Type::fun(Type::signal(Type::Int), Type::Int).classify(),
    ///     Stratum::Invalid
    /// );
    /// ```
    pub fn classify(&self) -> Stratum {
        match self {
            Type::Unit | Type::Int | Type::Float | Type::Str => Stratum::Simple,
            Type::Pair(a, b) => {
                if a.is_simple() && b.is_simple() {
                    Stratum::Simple
                } else {
                    Stratum::Invalid
                }
            }
            Type::List(t) => {
                if t.is_simple() {
                    Stratum::Simple
                } else {
                    Stratum::Invalid
                }
            }
            Type::Record(fields) => {
                if fields.values().all(Type::is_simple) {
                    Stratum::Simple
                } else {
                    Stratum::Invalid
                }
            }
            Type::Named(_) => Stratum::Simple,
            Type::Signal(t) => {
                if t.is_simple() {
                    Stratum::SignalKind
                } else {
                    Stratum::Invalid
                }
            }
            Type::Fun(a, b) => match (a.classify(), b.classify()) {
                (Stratum::Simple, Stratum::Simple) => Stratum::Simple,
                // σ ::= τ → σ | σ → σ'
                (Stratum::Simple, Stratum::SignalKind) => Stratum::SignalKind,
                (Stratum::SignalKind, Stratum::SignalKind) => Stratum::SignalKind,
                _ => Stratum::Invalid,
            },
            Type::Var(_) => Stratum::Invalid,
        }
    }

    /// True if the type is in the grammar at all (τ or σ).
    pub fn is_well_formed(&self) -> bool {
        self.classify() != Stratum::Invalid
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn atom(t: &Type, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match t {
                Type::Fun(..) | Type::Signal(..) => write!(f, "({t})"),
                _ => write!(f, "{t}"),
            }
        }
        match self {
            Type::Unit => write!(f, "()"),
            Type::Int => write!(f, "Int"),
            Type::Float => write!(f, "Float"),
            Type::Str => write!(f, "String"),
            Type::Pair(a, b) => write!(f, "({a}, {b})"),
            Type::List(t) => write!(f, "[{t}]"),
            Type::Named(name) => write!(f, "{name}"),
            Type::Record(fields) => {
                write!(f, "{{")?;
                for (k, (name, ty)) in fields.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} : {ty}")?;
                }
                write!(f, "}}")
            }
            Type::Fun(a, b) => match **a {
                Type::Fun(..) => write!(f, "({a}) -> {b}"),
                _ => write!(f, "{a} -> {b}"),
            },
            Type::Signal(t) => {
                write!(f, "Signal ")?;
                atom(t, f)
            }
            Type::Var(n) => write!(f, "t{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_symbol_round_trip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
            BinOp::Append,
        ] {
            assert_eq!(BinOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(BinOp::from_symbol("??"), None);
    }

    #[test]
    fn stratification_matches_fig3() {
        use Stratum::*;
        // τ examples
        assert_eq!(Type::fun(Type::Int, Type::Int).classify(), Simple);
        assert_eq!(Type::pair(Type::Int, Type::Str).classify(), Simple);
        // σ examples
        assert_eq!(Type::signal(Type::Int).classify(), SignalKind);
        assert_eq!(
            Type::fun(Type::Int, Type::signal(Type::Int)).classify(),
            SignalKind
        );
        assert_eq!(
            Type::fun(Type::signal(Type::Int), Type::signal(Type::Int)).classify(),
            SignalKind
        );
        // invalid examples
        assert_eq!(Type::signal(Type::signal(Type::Unit)).classify(), Invalid);
        assert_eq!(
            Type::fun(Type::signal(Type::Int), Type::Int).classify(),
            Invalid
        );
        assert_eq!(
            Type::pair(Type::signal(Type::Int), Type::Int).classify(),
            Invalid
        );
        assert_eq!(
            Type::signal(Type::fun(Type::Int, Type::signal(Type::Int))).classify(),
            Invalid
        );
    }

    #[test]
    fn types_admit_only_their_values() {
        let arrows = Type::record([("x".into(), Type::Int), ("y".into(), Type::Int)]);
        let xy = |y: Value| Value::record([("x".into(), Value::Int(1)), ("y".into(), y)]);
        assert!(arrows.admits(&xy(Value::Int(2))));
        assert!(!arrows.admits(&xy(Value::str("2"))));
        assert!(!arrows.admits(&Value::record([("x".into(), Value::Int(1))])));
        let touches = Type::list(Type::pair(Type::Int, Type::Int));
        assert!(touches.admits(&Value::list([])));
        assert!(!touches.admits(&Value::list([Value::Int(1)])));
        assert!(Type::Named("Maybe".into()).admits(&Value::tagged("Just", [Value::Int(1)])));
        assert!(!Type::Int.admits(&Value::Bool(true)));
        assert!(!Type::fun(Type::Int, Type::Int).admits(&Value::Unit));
    }

    #[test]
    fn type_display_is_readable() {
        assert_eq!(Type::signal(Type::Int).to_string(), "Signal Int");
        assert_eq!(
            Type::fun(Type::fun(Type::Int, Type::Int), Type::signal(Type::Int)).to_string(),
            "(Int -> Int) -> Signal Int"
        );
        assert_eq!(
            Type::signal(Type::pair(Type::Int, Type::Int)).to_string(),
            "Signal (Int, Int)"
        );
        assert_eq!(
            Type::fun(Type::Int, Type::fun(Type::Int, Type::Int)).to_string(),
            "Int -> Int -> Int"
        );
    }
}
