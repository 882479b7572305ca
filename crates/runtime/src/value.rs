//! Dynamic runtime values flowing through signal graphs.
//!
//! The runtime is untyped at its core — a single [`Value`] enum travels along
//! every edge of a signal graph. This mirrors the paper's translation to
//! Concurrent ML, where channel payloads are ordinary ML values. Static typing
//! is recovered one level up:
//!
//! * the FElm type system (`felm` crate) guarantees well-typed programs only
//!   ever put the right shapes on each edge (paper Fig. 4), and
//! * the typed `Signal<T>` embedding (`elm-signals` crate) converts through
//!   the [`FromValue`]/`IntoValue` pair so user code never sees [`Value`].
//!
//! [`Value::Ext`] carries arbitrary `Send + Sync` Rust payloads (graphical
//! elements, user structs) without the runtime knowing their type.
//! [`Value::Closure`] is an FElm function value: the `felm` evaluator builds
//! and applies it, and the runtime only carries it, so a signal may carry
//! functions (Fig. 4 allows `signal τ` for any simple τ, `τ → τ′`
//! included). Neither has a wire form.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dynamic value carried on signal-graph edges.
///
/// `Value` is cheap to clone: compound payloads are reference counted, which
/// matters because multicast nodes (the translation of `let`, paper §3.3.2)
/// clone one value per subscriber on every event.
#[derive(Clone, Default)]
pub enum Value {
    /// The unit value `()` of FElm.
    #[default]
    Unit,
    /// A 64-bit integer (FElm's `int`).
    Int(i64),
    /// A 64-bit float (full-Elm extension).
    Float(f64),
    /// A boolean (full-Elm extension; FElm encodes booleans as `int`).
    Bool(bool),
    /// An immutable string (full-Elm extension).
    Str(Arc<str>),
    /// An ordered pair, e.g. `Mouse.position : Signal (Int, Int)`.
    Pair(Arc<(Value, Value)>),
    /// An immutable list.
    List(Arc<Vec<Value>>),
    /// An extensible record, keyed by field name (full-Elm extension).
    Record(Arc<BTreeMap<String, Value>>),
    /// A tagged union value — a constructor application of an algebraic
    /// data type (full-Elm extension), e.g. `Just 3` or `Cons 1 Nil`.
    Tagged(Arc<str>, Arc<Vec<Value>>),
    /// An opaque host value (graphical `Element`s, user types, …).
    Ext(Arc<dyn Any + Send + Sync>),
    /// A function closure: its code, and the values of its free variables
    /// followed by the arguments a partial application has collected
    /// (`None` when both are empty, so a closure that captures nothing
    /// allocates nothing). Opaque to the runtime: a closure equals no
    /// value, itself included.
    Closure(FnCode, Option<Arc<[Value]>>),
}

// Every edge, queue slot and frame slot holds a `Value`: a new variant
// must not make all of them larger.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Value>() == 32);

/// A compiled function's code, opaque to the runtime: an evaluator makes
/// one per compiled lambda, puts it in every [`Value::Closure`] of that
/// lambda, and gets it back with [`FnCode::downcast`] to apply one.
/// Cloning shares the code. A thin pointer, so a closure fits in a
/// [`Value`] without making it larger.
#[derive(Clone)]
pub struct FnCode(Arc<Box<dyn Any + Send + Sync>>);

impl FnCode {
    /// Wraps an evaluator's code for one function.
    pub fn new<T: Any + Send + Sync>(code: T) -> FnCode {
        FnCode(Arc::new(Box::new(code)))
    }

    /// The code, if it is a `T`.
    pub fn downcast<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

impl fmt::Debug for FnCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function>")
    }
}

impl Value {
    /// Builds a string value.
    ///
    /// ```
    /// use elm_runtime::Value;
    /// assert_eq!(Value::str("hi").as_str(), Some("hi"));
    /// ```
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds a pair value.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Pair(Arc::new((a, b)))
    }

    /// Builds a list value from an iterator.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Self {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// Builds a record value from `(field, value)` pairs.
    pub fn record(fields: impl IntoIterator<Item = (String, Value)>) -> Self {
        Value::Record(Arc::new(fields.into_iter().collect()))
    }

    /// Builds a tagged union value (a constructor application).
    pub fn tagged(tag: impl AsRef<str>, args: impl IntoIterator<Item = Value>) -> Self {
        Value::Tagged(
            Arc::from(tag.as_ref()),
            Arc::new(args.into_iter().collect()),
        )
    }

    /// Returns the tag and arguments, if this is a `Tagged` value.
    pub fn as_tagged(&self) -> Option<(&str, &[Value])> {
        match self {
            Value::Tagged(tag, args) => Some((tag, args)),
            _ => None,
        }
    }

    /// Wraps an arbitrary host value.
    pub fn ext<T: Any + Send + Sync>(v: T) -> Self {
        Value::Ext(Arc::new(v))
    }

    /// A rough retained-size estimate in abstract cells (one cell ≈ one
    /// word-sized allocation, strings at one cell per byte). Used by the
    /// server's memory watermark; shared (`Arc`'d) structure is counted
    /// once per reference, deliberately over-estimating aliased values
    /// rather than walking identity.
    pub fn approx_cells(&self) -> u64 {
        match self {
            Value::Unit | Value::Int(_) | Value::Float(_) | Value::Bool(_) => 1,
            Value::Str(s) => 1 + s.len() as u64,
            Value::Pair(p) => 1 + p.0.approx_cells() + p.1.approx_cells(),
            Value::List(items) => 1 + items.iter().map(Value::approx_cells).sum::<u64>(),
            Value::Record(fields) => {
                1 + fields
                    .iter()
                    .map(|(k, v)| 1 + k.len() as u64 + v.approx_cells())
                    .sum::<u64>()
            }
            Value::Tagged(tag, args) => {
                1 + tag.len() as u64 + args.iter().map(Value::approx_cells).sum::<u64>()
            }
            Value::Ext(_) => 1,
            Value::Closure(_, values) => {
                1 + values
                    .iter()
                    .flat_map(|v| v.iter())
                    .map(Value::approx_cells)
                    .sum::<u64>()
            }
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the components of a pair, if this is a `Pair`.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(p) => Some((&p.0, &p.1)),
            _ => None,
        }
    }

    /// Returns the element slice, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the field map, if this is a `Record`.
    pub fn as_record(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Record(fields) => Some(fields),
            _ => None,
        }
    }

    /// Downcasts an `Ext` payload to a concrete type.
    pub fn downcast_ext<T: Any + Send + Sync>(&self) -> Option<&T> {
        match self {
            Value::Ext(any) => any.downcast_ref::<T>(),
            _ => None,
        }
    }

    /// FElm truthiness: conditionals test integers against zero
    /// (paper Fig. 6, rules COND-TRUE / COND-FALSE). Booleans are honored
    /// for the full-language extension.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(n) => *n != 0,
            Value::Bool(b) => *b,
            _ => false,
        }
    }

    /// A short tag naming the constructor, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Pair(_) => "pair",
            Value::List(_) => "list",
            Value::Record(_) => "record",
            Value::Tagged(..) => "tagged",
            Value::Ext(_) => "ext",
            Value::Closure(..) => "function",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Pair(a), Value::Pair(b)) => a.0 == b.0 && a.1 == b.1,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Record(a), Value::Record(b)) => a == b,
            (Value::Tagged(t1, a1), Value::Tagged(t2, a2)) => t1 == t2 && a1 == a2,
            // Opaque payloads compare by identity: `dropRepeats` on host
            // values only suppresses literally-shared values.
            (Value::Ext(a), Value::Ext(b)) => Arc::ptr_eq(a, b),
            // Functions have no decidable equality: a closure equals
            // nothing, so `dropRepeats` never drops one.
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(p) => write!(f, "({:?}, {:?})", p.0, p.1),
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
            Value::Record(fields) => {
                let mut map = f.debug_map();
                for (k, v) in fields.iter() {
                    map.entry(&format_args!("{k}"), v);
                }
                map.finish()
            }
            Value::Tagged(tag, args) => {
                write!(f, "{tag}")?;
                for a in args.iter() {
                    write!(f, " {a:?}")?;
                }
                Ok(())
            }
            Value::Ext(_) => write!(f, "<ext>"),
            Value::Closure(..) => write!(f, "<function>"),
        }
    }
}

impl fmt::Display for Value {
    /// Renders a value the way Elm's `asText` / `show` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Int(n.into())
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<(Value, Value)> for Value {
    fn from((a, b): (Value, Value)) -> Self {
        Value::pair(a, b)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::list(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors_round_trip() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        let p = Value::pair(Value::Int(1), Value::Int(2));
        let (a, b) = p.as_pair().unwrap();
        assert_eq!((a.as_int(), b.as_int()), (Some(1), Some(2)));
        let l = Value::list([Value::Int(1), Value::Int(2)]);
        assert_eq!(l.as_list().unwrap().len(), 2);
    }

    #[test]
    fn truthiness_follows_felm_conditionals() {
        assert!(Value::Int(1).is_truthy());
        assert!(Value::Int(-3).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Unit.is_truthy());
        assert!(!Value::str("nonempty").is_truthy());
    }

    #[test]
    fn equality_is_structural_for_plain_data() {
        assert_eq!(
            Value::pair(Value::Int(1), Value::str("x")),
            Value::pair(Value::Int(1), Value::str("x"))
        );
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn ext_values_compare_by_identity() {
        let a = Value::ext(41i32);
        let b = Value::ext(41i32);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.downcast_ext::<i32>(), Some(&41));
        assert_eq!(a.downcast_ext::<u8>(), None);
    }

    #[test]
    fn display_matches_as_text_conventions() {
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(
            Value::pair(Value::Int(3), Value::Int(4)).to_string(),
            "(3, 4)"
        );
        assert_eq!(
            Value::list([Value::Int(9), Value::Int(8)]).to_string(),
            "[9, 8]"
        );
    }

    #[test]
    fn record_accessor_and_debug() {
        let r = Value::record([
            ("x".to_string(), Value::Int(1)),
            ("y".to_string(), Value::Int(2)),
        ]);
        assert_eq!(r.as_record().unwrap()["y"], Value::Int(2));
        assert_eq!(format!("{r:?}"), "{x: 1, y: 2}");
    }

    #[test]
    fn tagged_values_compare_structurally_and_print() {
        let a = Value::tagged("Just", [Value::Int(3)]);
        let b = Value::tagged("Just", [Value::Int(3)]);
        let c = Value::tagged("Nothing", []);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), "Just 3");
        assert_eq!(format!("{c:?}"), "Nothing");
        assert_eq!(a.as_tagged(), Some(("Just", &[Value::Int(3)][..])));
        assert_eq!(Value::Int(1).as_tagged(), None);
    }

    #[test]
    fn kind_tags_every_variant() {
        for (v, k) in [
            (Value::Unit, "unit"),
            (Value::Int(0), "int"),
            (Value::Float(0.0), "float"),
            (Value::Bool(false), "bool"),
            (Value::str(""), "string"),
            (Value::pair(Value::Unit, Value::Unit), "pair"),
            (Value::list([]), "list"),
            (Value::record([]), "record"),
            (Value::tagged("T", []), "tagged"),
            (Value::ext(0u8), "ext"),
            (Value::Closure(FnCode::new(()), None), "function"),
        ] {
            assert_eq!(v.kind(), k);
        }
    }
}
