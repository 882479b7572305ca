//! The four workloads: their shape, frozen offered rates, and the seeded
//! inputs both the wire run and the in-process replay derive from.
//!
//! Everything here is a pure function of `(workload, seed)`, so the wire
//! run, the oracle and the traced replay see byte-identical programs and
//! events without exchanging them.

use elm_runtime::{PlainValue, Value};
use elm_synth::{GenConfig, Generator};
use felm::env::InputEnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 64 `dashboard` sessions, one `event` line per event.
    WireEvents,
    /// 8 large synthesized programs, 64-event `batch` frames.
    GraphBatch,
    /// Open → subscribe → batch → query → close cycles.
    SessionChurn,
    /// `wire-events` traffic against two replicating peers.
    Replicated,
}

/// The shape of one workload. The rates are frozen: later changes to the
/// program must be measured against the same offered load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which traffic mix.
    pub kind: Kind,
    /// The name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Sessions opened and subscribed at setup and kept for the whole run.
    pub live: usize,
    /// Events per frame: 1 sends `event` lines, more sends `batch` frames.
    pub frame: usize,
    /// Open-loop offered rate in events per second (cycles per second for
    /// `session-churn`): about a quarter of the closed-loop capacity
    /// measured at the commit that introduced the benchmark, which is
    /// about half of it when the shared host runs at half speed, so the
    /// open loop is never overloaded.
    pub open_rate: f64,
    /// Closed-loop window per connection: events whose update has not
    /// arrived yet (cycles not yet closed for `session-churn`).
    pub window: usize,
    /// Server processes: 2 runs the cluster layer.
    pub peers: usize,
    /// `--shards` per server process.
    pub shards: usize,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "wire-events",
    "graph-batch",
    "session-churn",
    "replicated-events",
];

/// Events in each `session-churn` cycle's batch.
const CHURN_EVENTS: usize = 16;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "wire-events" => Spec {
            kind: Kind::WireEvents,
            name: "wire-events",
            live: 64,
            frame: 1,
            open_rate: 5_000.0,
            window: 64,
            peers: 1,
            shards: 2,
        },
        "graph-batch" => Spec {
            kind: Kind::GraphBatch,
            name: "graph-batch",
            live: 8,
            frame: 64,
            open_rate: 2_560.0,
            window: 256,
            peers: 1,
            shards: 2,
        },
        "session-churn" => Spec {
            kind: Kind::SessionChurn,
            name: "session-churn",
            live: 32,
            frame: CHURN_EVENTS,
            open_rate: 400.0,
            window: 8,
            peers: 1,
            shards: 2,
        },
        "replicated-events" => Spec {
            kind: Kind::Replicated,
            name: "replicated-events",
            live: 32,
            frame: 1,
            open_rate: 3_500.0,
            window: 64,
            peers: 2,
            shards: 1,
        },
        _ => return None,
    };
    Some(spec)
}

/// A program a session hosts.
#[derive(Clone, Debug, PartialEq)]
pub enum Program {
    /// A registry builtin, by name.
    Builtin(&'static str),
    /// FElm source text.
    Source(String),
}

/// The builtin every `dashboard`-shaped session runs.
pub const DASHBOARD: &str = "dashboard";

/// A splitmix64 finalizer over `(seed, a, b)`: decorrelated sub-seeds for
/// sessions, cycles and candidate programs.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x6a09_e667_f3bc_c909);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The programs of the sessions opened at setup, in slot order.
pub fn live_programs(spec: &Spec, seed: u64) -> Vec<Program> {
    match spec.kind {
        Kind::GraphBatch => large_programs(seed, spec.live),
        _ => vec![Program::Builtin(DASHBOARD); spec.live],
    }
}

/// `count` distinct synthesized programs of 120 to 160 nodes reading at
/// least 2 inputs. No `async`, no hostile folds and no forced counter
/// shape, so every event changes `main` exactly once.
fn large_programs(seed: u64, count: usize) -> Vec<Program> {
    let generator = Generator::new(GenConfig {
        max_interior: 200,
        async_density: 0.0,
        hostile: 0.0,
        counter_shape: 0.0,
        ..GenConfig::default()
    });
    let mut out = Vec::with_capacity(count);
    let mut candidate = 0u64;
    while out.len() < count {
        let ir = generator.program(mix(seed, 1, candidate));
        candidate += 1;
        // A narrow size band keeps the per-event cost comparable across
        // seeds.
        if (120..=160).contains(&ir.nodes.len()) && ir.inputs().len() >= 2 {
            out.push(Program::Source(ir.render()));
        }
    }
    out
}

/// The program of `session-churn` cycle `cycle`: the `dashboard` builtin
/// (same source every time) on even cycles, a freshly synthesized distinct
/// source on odd ones, so a compile cache would see both hits and misses.
pub fn cycle_program(seed: u64, cycle: usize) -> Program {
    if cycle.is_multiple_of(2) {
        return Program::Builtin(DASHBOARD);
    }
    let generator = Generator::new(GenConfig {
        hostile: 0.0,
        ..GenConfig::default()
    });
    Program::Source(generator.program(mix(seed, 2, cycle as u64)).render())
}

/// The session slot of churn cycle `cycle` (after the live sessions).
pub fn cycle_slot(spec: &Spec, cycle: usize) -> usize {
    spec.live + cycle
}

/// A trace id unique to `(slot, event)` within a run, shared by the wire
/// run's client spans and the replay's spans for the same event.
pub fn trace_id(slot: usize, event: usize) -> u64 {
    ((slot as u64 + 1) << 32) | (event as u64 + 1)
}

/// One session's seeded event stream over the inputs its program reads.
pub struct EventGen {
    rng: StdRng,
    /// `(input, takes_unit)`.
    inputs: Vec<(String, bool)>,
}

impl EventGen {
    /// The stream for session `slot`, drawing from `inputs` (the program's
    /// declared inputs, as `opened.inputs` reports them).
    pub fn new(seed: u64, slot: usize, inputs: &[String]) -> EventGen {
        let env = InputEnv::standard();
        let inputs = inputs
            .iter()
            .map(|name| {
                let unit = env.get(name).is_some_and(|d| d.default == Value::Unit);
                (name.clone(), unit)
            })
            .collect();
        EventGen {
            rng: StdRng::seed_from_u64(mix(seed, 3, slot as u64)),
            inputs,
        }
    }

    /// The next `(input, value)` pair.
    pub fn next_event(&mut self) -> (String, PlainValue) {
        let (name, unit) = &self.inputs[self.rng.gen_range(0..self.inputs.len())];
        let value = if *unit {
            PlainValue::Unit
        } else {
            PlainValue::Int(self.rng.gen_range(-1000i64..1001))
        };
        (name.clone(), value)
    }
}

/// A connection's seeded choice of which of its sessions gets the next
/// frame.
pub fn lane_rng(seed: u64, lane: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 4, lane as u64))
}

fn value_json(value: &PlainValue) -> String {
    serde_json::to_string(value).expect("plain values always serialize")
}

/// An `event` request line carrying a trace id.
fn event_line(session: u64, input: &str, value: &PlainValue, trace: u64) -> String {
    format!(
        "{{\"cmd\":\"event\",\"session\":{session},\"input\":\"{input}\",\"value\":{},\"trace\":{trace}}}",
        value_json(value)
    )
}

/// A `batch` request line.
fn batch_line(session: u64, events: &[(String, PlainValue)]) -> String {
    let mut line = format!("{{\"cmd\":\"batch\",\"session\":{session},\"events\":[");
    for (i, (input, value)) in events.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"input\":\"{input}\",\"value\":{}}}",
            value_json(value)
        ));
    }
    line.push_str("]}");
    line
}

/// The frame line for `events` (an `event` line for one event).
pub fn frame_line(session: u64, events: &[(String, PlainValue)], trace: u64) -> String {
    match events {
        [(input, value)] => event_line(session, input, value, trace),
        _ => batch_line(session, events),
    }
}

/// An `open` request line; `key` pins the session id (cluster mode).
pub fn open_line(program: &Program, key: Option<u64>) -> String {
    let what = match program {
        Program::Builtin(name) => format!("\"program\":\"{name}\""),
        Program::Source(src) => format!(
            "\"source\":{}",
            serde_json::to_string(src).expect("strings always serialize")
        ),
    };
    match key {
        Some(k) => format!("{{\"cmd\":\"open\",{what},\"session\":{k}}}"),
        None => format!("{{\"cmd\":\"open\",{what}}}"),
    }
}
