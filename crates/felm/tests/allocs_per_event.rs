//! Heap allocations per event on the synchronous engine, for two small
//! translated programs: one whose node functions all run on the Int lane,
//! and one whose node functions all take the general slot path (pairs,
//! floats, closures and partial application).
//!
//! The count comes from a counting global allocator (standard library
//! only) and is exact for a given program and trace, so the bounds below
//! are regression gates, not timing guesses: a change that brings back a
//! per-node `Vec`, a per-application copy of a function body, an
//! environment binding per applied argument, or a per-event walk of the
//! function's syntax shows up as a failed bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elm_runtime::{EventLimits, Occurrence, SyncRuntime, Value};
use felm::env::InputEnv;
use felm::pipeline::compile_source;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts allocations on the calling thread.
struct Counting;

fn bump() {
    // `try_with` fails only while the thread is being torn down; an
    // allocation then simply goes uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every node function is int-closed and reads only `Int` parents.
const INT_PROGRAM: &str = "main = lift2 (\\a b -> a + b * 2) \
    (foldp (\\e n -> n + e) 0 (keepIf (\\x -> x > 0) 0 Mouse.x)) \
    (lift (\\w -> w % 100) Window.width)";

/// No node function runs on the Int lane: the `Mouse.position` lift is
/// int-closed but reads a pair, the `Time.fps` lift works on floats, the
/// fold builds a closure and applies it partially, and `main` builds
/// pairs.
const BOXED_PROGRAM: &str = "main = lift3 (\\p n f -> (fst p + n, f)) \
    (lift (\\d -> d) Mouse.position) \
    (foldp (\\e n -> let add = \\a b -> a + b in add e n) 0 Mouse.x) \
    (lift (\\x -> if x > 0.0 then x else 0.0 - x) Time.fps)";

const EVENTS: u64 = 1000;

/// Runs `EVENTS` events of `program` (after a short warm-up that lets the
/// event queue reach its steady capacity) and returns the mean allocations
/// per event. Events cycle through the program's inputs: `Mouse.x` (every
/// other one negative), then `Window.width`, `Mouse.position` and
/// `Time.fps` where the program reads them.
fn allocs_per_event(program: &str, limits: Option<EventLimits>) -> f64 {
    let compiled = compile_source(program, &InputEnv::standard()).expect("program compiles");
    let graph = compiled.graph().expect("reactive program");
    let mouse = graph.input_named("Mouse.x").expect("Mouse.x is read");
    let width = graph.input_named("Window.width");
    let position = graph.input_named("Mouse.position");
    let fps = graph.input_named("Time.fps");
    let mut rt = SyncRuntime::new(graph);
    rt.set_governor(limits, None);
    let event = |i: u64| {
        // In the Int program every third event is a negative Mouse.x,
        // which keepIf drops.
        let v = i as i64 % 50;
        match (i % 3, width, position, fps) {
            (0, ..) => Occurrence::input(mouse, v),
            (1, ..) => Occurrence::input(mouse, -v),
            (_, Some(width), ..) => Occurrence::input(width, 300 + v),
            (_, None, Some(position), Some(fps)) => {
                if i.is_multiple_of(2) {
                    Occurrence::input(position, Value::pair(Value::Int(v), Value::Int(2 * v)))
                } else {
                    Occurrence::input(fps, Value::Float(v as f64 - 24.5))
                }
            }
            _ => unreachable!("each program reads Window.width or both of the others"),
        }
    };
    for i in 0..16 {
        rt.feed(event(i)).unwrap();
        rt.run_to_quiescence();
    }
    let before = allocs();
    for i in 0..EVENTS {
        rt.feed(event(i)).unwrap();
        while rt.step().is_some() {}
    }
    let total = allocs() - before;
    assert!(rt.take_traps().is_empty(), "honest events never trap");
    total as f64 / EVENTS as f64
}

/// [`INT_PROGRAM`]: none. Every node function on this trace is int-closed
/// and reads only `Int` parents, so it runs on the Int lane over an `i64`
/// frame, and the engine itself allocates nothing per event. With an environment chain,
/// one binding per applied argument made 2.97 allocations per event (5
/// for a kept `Mouse.x`, 1 for a dropped one, 3 for `Window.width`);
/// before functions were compiled once per node and parent values were
/// borrowed, the same trace made 30.4 ungoverned and 31.4 governed.
const MAX_ALLOCS_PER_EVENT: f64 = 0.0;

/// [`BOXED_PROGRAM`]: the exact figure on this trace, ungoverned and
/// governed (1834 allocations over 1000 events). What is left is data,
/// not evaluator machinery: on every event `main` builds its result pair
/// (1); each `Mouse.x` event partially applies `add` (1); each
/// `Mouse.position` event is a pair the trace itself builds (1). Nodes
/// and the evaluator share one value type, so no parent value is copied
/// in and no result copied out. Building `add`, which captures nothing,
/// and applying a saturated closure allocate nothing. While the evaluator
/// had a value type of its own, converting into and out of it made 4.168
/// allocations per event; with an environment chain the same trace made
/// 10.169.
const MAX_BOXED_ALLOCS_PER_EVENT: f64 = 1.834;

#[test]
fn ungoverned_dispatch_allocations_are_bounded() {
    let per_event = allocs_per_event(INT_PROGRAM, None);
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "ungoverned: {per_event:.2} allocations per event"
    );
}

#[test]
fn governed_dispatch_allocations_are_bounded() {
    let per_event = allocs_per_event(INT_PROGRAM, Some(EventLimits::default()));
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "governed: {per_event:.2} allocations per event"
    );
}

#[test]
fn boxed_path_allocations_are_bounded() {
    for (what, limits) in [
        ("ungoverned", None),
        ("governed", Some(EventLimits::default())),
    ] {
        let per_event = allocs_per_event(BOXED_PROGRAM, limits);
        assert!(
            per_event <= MAX_BOXED_ALLOCS_PER_EVENT,
            "{what}: {per_event:.3} allocations per event"
        );
    }
}
