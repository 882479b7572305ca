//! Stress and corner-case tests for the concurrent pipelined runtime:
//! chained async boundaries, interleaved drains under load, and counter
//! consistency between schedulers.

use elm_runtime::{
    changed_values, ConcurrentRuntime, GraphBuilder, Occurrence, SyncRuntime, Value,
};

/// `async (async s)` and longer chains: each boundary re-enters the
/// dispatcher, so values traverse k extra events but stay ordered.
#[test]
fn chained_async_boundaries_preserve_order() {
    for chain in 1..=3 {
        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        let mut cur = g.lift1("inc", |v| Value::Int(v.as_int().unwrap() + 1), i);
        for _ in 0..chain {
            cur = g.async_source(cur);
        }
        let out = g.lift1("id", |v| v.clone(), cur);
        let graph = g.finish(out).unwrap();

        let trace: Vec<_> = (0..40).map(|k| Occurrence::input(i, k as i64)).collect();
        let outs = ConcurrentRuntime::run_trace(&graph, trace).unwrap();
        let vals: Vec<i64> = changed_values(&outs)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(
            vals,
            (1..=40).collect::<Vec<i64>>(),
            "chain depth {chain} reordered or dropped values"
        );
    }
}

/// A diamond where one branch crosses an async boundary: the join keeps
/// consuming one message per edge per event, so queues stay aligned even
/// though one side runs ahead.
#[test]
fn async_diamond_stays_aligned() {
    let mut g = GraphBuilder::new();
    let i = g.input("i", 0i64);
    let fast = g.lift1("fast", |v| v.clone(), i);
    let slow_inner = g.lift1("slow", |v| Value::Int(v.as_int().unwrap() * 100), i);
    let slow = g.async_source(slow_inner);
    let join = g.lift2("join", |a, b| Value::pair(a.clone(), b.clone()), fast, slow);
    let graph = g.finish(join).unwrap();

    let trace: Vec<_> = (1..=30).map(|k| Occurrence::input(i, k as i64)).collect();
    let outs = ConcurrentRuntime::run_trace(&graph, trace).unwrap();
    // One output event per dispatcher event: 30 external + 30 async.
    assert_eq!(outs.len(), 60);
    // The fast side is always the current input; the async side lags but
    // only ever holds values the input actually took, times 100.
    for v in changed_values(&outs) {
        let (a, b) = v.as_pair().unwrap();
        let (a, b) = (a.as_int().unwrap(), b.as_int().unwrap());
        assert!(b % 100 == 0 && (0..=3000).contains(&b));
        assert!((0..=30).contains(&a));
    }
}

/// Many inputs, interleaved feeding and draining, twice over: drain is
/// incremental and the graph remains consistent across rounds.
#[test]
fn repeated_drains_under_many_inputs() {
    let mut g = GraphBuilder::new();
    let inputs: Vec<_> = (0..8).map(|k| g.input(format!("in{k}"), 0i64)).collect();
    let sum = g.lift_n(
        "sum",
        |vs| Value::Int(vs.iter().filter_map(|v| v.as_int()).sum()),
        inputs.clone(),
    );
    let graph = g.finish(sum).unwrap();

    let mut rt = ConcurrentRuntime::start(&graph);
    let mut total_events = 0u64;
    for round in 0..5 {
        for (k, input) in inputs.iter().enumerate() {
            rt.feed(Occurrence::input(*input, (round * 8 + k) as i64))
                .unwrap();
            total_events += 1;
        }
        let outs = rt.drain().unwrap();
        assert_eq!(outs.len(), 8, "one output event per input event");
    }
    // Final value: each input holds its last round's value.
    let last = (0..8).map(|k| (4 * 8 + k) as i64).sum::<i64>();
    rt.feed(Occurrence::input(inputs[0], 32i64)).unwrap(); // no-op change
    let outs = rt.drain().unwrap();
    assert_eq!(
        outs.last().unwrap().value().unwrap().as_int().unwrap(),
        last
    );
    assert_eq!(rt.stats().events(), total_events + 1);
    rt.stop();
}

/// Counter parity: for async-free graphs the concurrent scheduler performs
/// exactly the same computations/skips as the synchronous one.
#[test]
fn stats_match_between_schedulers_on_async_free_graphs() {
    let mut g = GraphBuilder::new();
    let a = g.input("a", 0i64);
    let b = g.input("b", 0i64);
    let fa = g.lift1("fa", |v| v.clone(), a);
    let fb = g.lift1("fb", |v| v.clone(), b);
    let join = g.lift2("join", |x, y| Value::pair(x.clone(), y.clone()), fa, fb);
    let graph = g.finish(join).unwrap();

    let trace: Vec<_> = (0..20)
        .map(|k| {
            if k % 2 == 0 {
                Occurrence::input(a, k as i64)
            } else {
                Occurrence::input(b, k as i64)
            }
        })
        .collect();

    let mut sync_rt = SyncRuntime::new(&graph);
    for occ in trace.clone() {
        sync_rt.feed(occ).unwrap();
    }
    sync_rt.run_to_quiescence();
    let sync_stats = sync_rt.stats().snapshot();

    let mut conc_rt = ConcurrentRuntime::start(&graph);
    for occ in trace {
        conc_rt.feed(occ).unwrap();
    }
    conc_rt.drain().unwrap();
    let conc_stats = conc_rt.stats().snapshot();
    conc_rt.stop();

    assert_eq!(sync_stats.events, conc_stats.events);
    assert_eq!(sync_stats.computations, conc_stats.computations);
    assert_eq!(sync_stats.memo_skips, conc_stats.memo_skips);
}

/// Zero-subscriber nodes (dead branches) must not stall the protocol.
#[test]
fn dead_branches_do_not_block_quiescence() {
    let mut g = GraphBuilder::new();
    let i = g.input("i", 0i64);
    // A branch nobody consumes.
    let _dead = g.lift1("dead", |v| v.clone(), i);
    let live = g.lift1("live", |v| Value::Int(v.as_int().unwrap() + 1), i);
    let graph = g.finish(live).unwrap();

    let outs =
        ConcurrentRuntime::run_trace(&graph, (0..10).map(|k| Occurrence::input(i, k as i64)))
            .unwrap();
    assert_eq!(changed_values(&outs).len(), 10);
}

/// Sources as outputs: a graph whose `main` is an input signal.
#[test]
fn input_as_output_works_on_both_schedulers() {
    let mut g = GraphBuilder::new();
    let i = g.input("i", 7i64);
    let graph = g.finish(i).unwrap();

    let trace = vec![Occurrence::input(i, 1i64), Occurrence::input(i, 2i64)];
    let sync_out = SyncRuntime::run_trace(&graph, trace.clone()).unwrap();
    let conc_out = ConcurrentRuntime::run_trace(&graph, trace).unwrap();
    assert_eq!(sync_out, conc_out);
    assert_eq!(
        changed_values(&sync_out),
        vec![Value::Int(1), Value::Int(2)]
    );
}
