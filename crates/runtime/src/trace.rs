//! Serializable event traces for record/replay.
//!
//! The reproduction substitutes the browser's live event stream with
//! deterministic, replayable traces (DESIGN.md S6). A [`Trace`] names input
//! signals symbolically (e.g. `"Mouse.position"`) so the same recording can
//! drive any graph exposing those inputs, on any scheduler.
//!
//! [`PlainValue`] is the serializable subset of [`Value`] — everything
//! except opaque `Ext` payloads and function closures, which by
//! construction never originate from the external environment.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::RunError;
use crate::event::Occurrence;
use crate::graph::SignalGraph;
use crate::value::Value;

/// A serializable runtime value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlainValue {
    /// The unit value.
    Unit,
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A pair.
    Pair(Box<PlainValue>, Box<PlainValue>),
    /// A list.
    List(Vec<PlainValue>),
    /// A record.
    Record(BTreeMap<String, PlainValue>),
    /// A tagged union value.
    Tagged(String, Vec<PlainValue>),
}

impl PlainValue {
    /// Converts a runtime [`Value`] into its serializable form.
    ///
    /// Returns `None` if the value contains an opaque `Ext` payload or a
    /// function closure.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(match v {
            Value::Unit => PlainValue::Unit,
            Value::Int(n) => PlainValue::Int(*n),
            Value::Float(x) => PlainValue::Float(*x),
            Value::Bool(b) => PlainValue::Bool(*b),
            Value::Str(s) => PlainValue::Str(s.to_string()),
            Value::Pair(p) => PlainValue::Pair(
                Box::new(Self::from_value(&p.0)?),
                Box::new(Self::from_value(&p.1)?),
            ),
            Value::List(items) => PlainValue::List(
                items
                    .iter()
                    .map(Self::from_value)
                    .collect::<Option<Vec<_>>>()?,
            ),
            Value::Record(fields) => PlainValue::Record(
                fields
                    .iter()
                    .map(|(k, v)| Some((k.clone(), Self::from_value(v)?)))
                    .collect::<Option<BTreeMap<_, _>>>()?,
            ),
            Value::Tagged(tag, args) => PlainValue::Tagged(
                tag.to_string(),
                args.iter()
                    .map(Self::from_value)
                    .collect::<Option<Vec<_>>>()?,
            ),
            Value::Ext(_) | Value::Closure(..) => return None,
        })
    }

    /// Converts back into a runtime [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            PlainValue::Unit => Value::Unit,
            PlainValue::Int(n) => Value::Int(*n),
            PlainValue::Float(x) => Value::Float(*x),
            PlainValue::Bool(b) => Value::Bool(*b),
            PlainValue::Str(s) => Value::Str(Arc::from(s.as_str())),
            PlainValue::Pair(a, b) => Value::pair(a.to_value(), b.to_value()),
            PlainValue::List(items) => Value::list(items.iter().map(PlainValue::to_value)),
            PlainValue::Record(fields) => {
                Value::record(fields.iter().map(|(k, v)| (k.clone(), v.to_value())))
            }
            PlainValue::Tagged(tag, args) => {
                Value::tagged(tag, args.iter().map(PlainValue::to_value))
            }
        }
    }
}

/// One recorded input event: which named input fired, with what value, and
/// at what virtual time (milliseconds since trace start).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual timestamp in milliseconds.
    pub at_ms: u64,
    /// The environment name of the input signal (e.g. `"Mouse.position"`).
    pub input: String,
    /// The new value.
    pub value: PlainValue,
}

/// A recorded sequence of input events, ordered by time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The recorded events, in nondecreasing `at_ms` order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event; `at_ms` must be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` goes backwards.
    pub fn push(&mut self, at_ms: u64, input: impl Into<String>, value: PlainValue) {
        if let Some(last) = self.events.last() {
            assert!(
                last.at_ms <= at_ms,
                "trace timestamps must be nondecreasing"
            );
        }
        self.events.push(TraceEvent {
            at_ms,
            input: input.into(),
            value,
        });
    }

    /// Resolves the trace against `graph`'s named inputs, yielding
    /// occurrences ready to feed to any scheduler.
    ///
    /// # Errors
    ///
    /// Fails with [`RunError::WorkerLost`] naming the offending input if an
    /// event references an input the graph does not declare.
    pub fn to_occurrences(&self, graph: &SignalGraph) -> Result<Vec<Occurrence>, RunError> {
        self.events
            .iter()
            .map(|e| {
                let id = graph
                    .input_named(&e.input)
                    .ok_or_else(|| RunError::WorkerLost(format!("unknown input '{}'", e.input)))?;
                Ok(Occurrence::input(id, e.value.to_value()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn plain_value_round_trips_through_value() {
        let pv = PlainValue::Record(BTreeMap::from([
            (
                "pos".to_string(),
                PlainValue::Pair(Box::new(PlainValue::Int(3)), Box::new(PlainValue::Int(4))),
            ),
            (
                "tags".to_string(),
                PlainValue::List(vec![PlainValue::Str("a".into()), PlainValue::Bool(true)]),
            ),
        ]));
        let v = pv.to_value();
        assert_eq!(PlainValue::from_value(&v), Some(pv));
    }

    #[test]
    fn ext_values_are_not_serializable() {
        assert_eq!(PlainValue::from_value(&Value::ext(1u8)), None);
        let nested = Value::pair(Value::Int(1), Value::ext(1u8));
        assert_eq!(PlainValue::from_value(&nested), None);
    }

    #[test]
    fn trace_resolves_named_inputs() {
        let mut g = GraphBuilder::new();
        let m = g.input("Mouse.x", 0i64);
        let graph = g.finish(m).unwrap();

        let mut t = Trace::new();
        t.push(0, "Mouse.x", PlainValue::Int(10));
        t.push(16, "Mouse.x", PlainValue::Int(20));
        let occs = t.to_occurrences(&graph).unwrap();
        assert_eq!(occs.len(), 2);
        assert_eq!(occs[0].source, m);
        assert_eq!(occs[1].payload, Some(Value::Int(20)));

        let mut bad = Trace::new();
        bad.push(0, "Nope", PlainValue::Unit);
        assert!(bad.to_occurrences(&graph).is_err());
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn trace_rejects_time_travel() {
        let mut t = Trace::new();
        t.push(10, "a", PlainValue::Unit);
        t.push(5, "a", PlainValue::Unit);
    }
}
