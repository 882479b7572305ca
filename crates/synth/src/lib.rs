//! Scenario synthesis: seeded, deterministic generation of well-typed
//! FElm programs, each paired with a machine-checkable temporal property
//! over its output stream, plus a shrinker for failing program+trace
//! pairs.
//!
//! "Synthesizing Functional Reactive Programs" (Finkbeiner et al.) derives
//! FRP programs from temporal specifications; this crate flips that into a
//! fuzzing harness for the paper's async-FRP semantics. A [`Generator`]
//! emits random signal DAGs over the standard input environment —
//! composing `lift`/`lift2`/`foldp`/`async`/`merge` with tunable depth,
//! fan-out, and async-boundary density — as an explicit IR
//! ([`ProgramIr`]) that renders to FElm surface syntax and goes through
//! the *full* production pipeline (parse → typecheck → compile → host).
//! Every generated program carries the strongest [`Property`] its shape
//! supports (exact event counts, monotone accumulators, or governed
//! replay equivalence), so a fleet of hundreds of synthesized sessions is
//! simultaneously a soak workload and a semantic oracle: Theorem 1
//! (scheduler equivalence) and the crash-recovery/overload machinery are
//! checked against arbitrary graph shapes instead of a handful of
//! hand-written builtins.
//!
//! When a check fails, [`shrink()`] minimizes the `(program, trace)` pair —
//! bypassing graph nodes and bisecting the trace while the failure
//! reproduces — to a minimal repro that fits in a verdict line.
//!
//! The crate is deliberately deterministic: the same `(seed, GenConfig)`
//! always yields byte-identical programs, traces, and properties, so any
//! fleet failure is reproducible from the seed printed in the verdict.

pub mod gen;
pub mod metrics;
pub mod property;
pub mod run;
pub mod shrink;

pub use gen::{GenConfig, Generator, Node, ProgramIr, Scenario, HOSTILE_TRIGGER};
pub use metrics::FleetMetrics;
pub use property::{check_property, Property};
pub use run::{run_local, LocalRun};
pub use shrink::{shrink, ShrinkResult};
