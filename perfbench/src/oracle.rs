//! The replay oracle: every session's streamed updates and final value are
//! checked against a synchronous replay of exactly the inputs it was sent.
//! Builtins replay through `Registry` + `Running`; synthesized sources
//! through `elm_synth::run_local`.

use std::time::Instant;

use elm_runtime::{EventLimits, PlainValue, Trace};
use elm_server::{ProgramSpec, Registry};
use elm_signals::{Engine, Program as Signals};

use crate::workload::Program;

/// One `update` line as it arrived.
#[derive(Clone, Debug)]
pub struct Received {
    /// The session's change counter.
    pub seq: u64,
    /// The raw JSON of the pushed value.
    pub value: String,
    /// When the line was read off the socket.
    pub at: Instant,
}

/// What the replay says a session must have streamed.
pub struct Expected {
    /// Output changes in order, each with the index of the event that
    /// caused it. `run_local` does not report causes, so for sources the
    /// k-th change is attributed to the k-th event: exact for programs
    /// without `async` (one change per event), and latency for
    /// `session-churn` needs only the cycle, which all its events share.
    pub updates: Vec<(usize, PlainValue)>,
    /// The output after the last event.
    pub final_value: PlainValue,
}

/// Replays `events` through `program` synchronously.
pub fn replay(
    registry: &Registry,
    program: &Program,
    events: &[(String, PlainValue)],
) -> Result<Expected, String> {
    match program {
        Program::Builtin(name) => {
            let (_, graph) = registry.resolve(ProgramSpec::Builtin(name))?;
            let mut running = Signals::from_dynamic_graph(graph).start(Engine::Synchronous);
            // Sessions run governed with no wall-clock deadline; so does
            // the replay.
            running.set_governor(Some(EventLimits::default()), None);
            let mut updates = Vec::new();
            for (i, (input, value)) in events.iter().enumerate() {
                running
                    .send_named(input, value.to_value())
                    .map_err(|e| e.to_string())?;
                for ev in running.drain_raw().map_err(|e| e.to_string())? {
                    if let Some(v) = ev.value() {
                        updates.push((i, plain(v)?));
                    }
                }
            }
            let final_value = plain(running.current())?;
            running.stop();
            Ok(Expected {
                updates,
                final_value,
            })
        }
        Program::Source(src) => {
            let mut trace = Trace::new();
            for (i, (input, value)) in events.iter().enumerate() {
                trace.push(i as u64, input.clone(), value.clone());
            }
            let run = elm_synth::run_local(src, &trace, EventLimits::default())?;
            let last = events.len().saturating_sub(1);
            let updates = run
                .outputs
                .iter()
                .enumerate()
                .map(|(k, v)| (k.min(last), PlainValue::Int(*v)))
                .collect();
            Ok(Expected {
                updates,
                final_value: PlainValue::Int(run.final_value),
            })
        }
    }
}

fn plain(v: &elm_runtime::Value) -> Result<PlainValue, String> {
    PlainValue::from_value(v).ok_or_else(|| "output value has no plain form".to_string())
}

fn parse(raw: &str) -> Result<PlainValue, String> {
    serde_json::from_str(raw).map_err(|e| format!("unparsable value {raw}: {e}"))
}

/// Checks a session's stream (contiguous `seq` from 1, values in replay
/// order) and its final queried value against the replay.
pub fn check(
    expected: &Expected,
    got: &[Received],
    final_value: Option<&str>,
) -> Result<(), String> {
    if got.len() != expected.updates.len() {
        return Err(format!(
            "{} updates streamed, replay has {}",
            got.len(),
            expected.updates.len()
        ));
    }
    for (k, (update, (_, want))) in got.iter().zip(&expected.updates).enumerate() {
        if update.seq != k as u64 + 1 {
            return Err(format!("update {k} has seq {}", update.seq));
        }
        let value = parse(&update.value)?;
        if &value != want {
            return Err(format!("update {k} is {value:?}, replay says {want:?}"));
        }
    }
    let final_value = parse(final_value.ok_or("no final query answer")?)?;
    if final_value != expected.final_value {
        return Err(format!(
            "final value {final_value:?}, replay says {:?}",
            expected.final_value
        ));
    }
    Ok(())
}
