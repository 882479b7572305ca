//! Heap allocations per event on the synchronous engine, for a small
//! translated `Int` program with `lift2`, `foldp` and `keepIf` nodes.
//!
//! The count comes from a counting global allocator (standard library
//! only) and is exact for a given program and trace, so the bounds below
//! are regression gates, not timing guesses: a change that brings back a
//! per-node `Vec`, a per-application copy of a function body, or a
//! per-event walk of the function's syntax shows up as a failed bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elm_runtime::{EventLimits, Occurrence, SyncRuntime};
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

const PROGRAM: &str = "main = lift2 (\\a b -> a + b * 2) \
    (foldp (\\e n -> n + e) 0 (keepIf (\\x -> x > 0) 0 Mouse.x)) \
    (lift (\\w -> w % 100) Window.width)";

const EVENTS: u64 = 1000;

/// Runs `EVENTS` events (after a short warm-up that lets the event queue
/// reach its steady capacity) and returns the mean allocations per event.
fn allocs_per_event(limits: Option<EventLimits>) -> f64 {
    let compiled = compile_source(PROGRAM, &InputEnv::standard()).expect("program compiles");
    let graph = compiled.graph().expect("reactive program");
    let mouse = graph.input_named("Mouse.x").expect("Mouse.x is read");
    let width = graph
        .input_named("Window.width")
        .expect("Window.width is read");
    let mut rt = SyncRuntime::new(graph);
    rt.set_governor(limits, None);
    let event = |i: u64| {
        // Every third event is a negative Mouse.x, which keepIf drops.
        let v = i as i64 % 50;
        match i % 3 {
            0 => Occurrence::input(mouse, v),
            1 => Occurrence::input(mouse, -v),
            _ => Occurrence::input(width, 300 + v),
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

/// What is left per event is one environment binding per argument a node
/// function is applied to: 2.97 on this trace (5 for a kept `Mouse.x`, 1
/// for a dropped one, 3 for `Window.width`). Before functions were
/// compiled once per node and parent values were borrowed, the same trace
/// made 30.4 allocations per event ungoverned and 31.4 governed.
const MAX_ALLOCS_PER_EVENT: f64 = 3.0;

#[test]
fn ungoverned_dispatch_allocations_are_bounded() {
    let per_event = allocs_per_event(None);
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "ungoverned: {per_event:.2} allocations per event"
    );
}

#[test]
fn governed_dispatch_allocations_are_bounded() {
    let per_event = allocs_per_event(Some(EventLimits::default()));
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "governed: {per_event:.2} allocations per event"
    );
}
