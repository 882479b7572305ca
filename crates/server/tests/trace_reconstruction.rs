//! Causal-trace reconstruction: a seeded simulator workload, run traced
//! on BOTH schedulers, must yield span trees whose shape matches the
//! signal graph's topology — every tree confined to the subgraph
//! reachable from its ingress node, at least one tree covering that
//! subgraph exactly, and async handoffs linked across the boundary.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elm_environment::Simulator;
use elm_runtime::{
    assemble, reachable_from, GraphBuilder, NodeId, SignalGraph, SpanTree, Tracer, Value,
};
use elm_server::{ProgramSpec, Registry, Server, ServerConfig, TracePop};
use elm_signals::{Engine, Program};

/// Runs `trace`'s declared-input events through an observed runtime on
/// `engine` and returns the reconstructed span trees.
fn traced_run(graph: &SignalGraph, engine: Engine, events: &elm_runtime::Trace) -> Vec<SpanTree> {
    let tracer = Tracer::for_graph(graph);
    tracer.set_enabled(true);
    let mut running = Program::from_dynamic_graph(graph.clone())
        .start_observed(engine, Some(Arc::clone(&tracer)));
    for e in &events.events {
        if graph.input_named(&e.input).is_some() {
            running.send_named(&e.input, e.value.to_value()).unwrap();
        }
    }
    running.drain_raw().unwrap();
    running.stop();
    assert_eq!(tracer.dropped_spans(), 0, "ring overflowed during the test");
    assemble(&tracer.drain_spans(), graph)
}

/// Asserts the topological invariants on one scheduler's trees and
/// returns each tree's `(trace id, node set)` for cross-engine comparison.
fn check_topology(graph: &SignalGraph, trees: &[SpanTree]) -> Vec<(u64, BTreeSet<u32>)> {
    assert!(!trees.is_empty(), "workload produced no span trees");
    let mut exact = 0usize;
    let mut shapes = Vec::with_capacity(trees.len());
    for tree in trees {
        let roots = tree.roots();
        assert!(!roots.is_empty(), "trace {} has no root", tree.trace.0);
        let mut reachable = BTreeSet::new();
        for &r in &roots {
            reachable.extend(reachable_from(graph, NodeId(tree.spans[r].node)));
        }
        let nodes = tree.node_set();
        assert!(
            nodes.is_subset(&reachable),
            "trace {}: nodes {nodes:?} escape reachable set {reachable:?}",
            tree.trace.0
        );
        if nodes == reachable {
            exact += 1;
        }
        shapes.push((tree.trace.0, nodes));
    }
    assert!(exact > 0, "no tree covered its reachable subgraph exactly");
    shapes.sort();
    shapes
}

#[test]
fn seeded_workload_spans_match_topology_on_both_schedulers() {
    // `dashboard` is the FElm workhorse; `chaos` is the native graph the
    // crash-recovery runs host.
    for program in ["dashboard", "chaos"] {
        let (_, graph) = Registry::standard()
            .resolve(ProgramSpec::Builtin(program))
            .unwrap();
        let workload = Simulator::workload(0xE1, 400);

        let sync_trees = traced_run(&graph, Engine::Synchronous, &workload);
        let sync_shapes = check_topology(&graph, &sync_trees);

        let conc_trees = traced_run(&graph, Engine::Concurrent, &workload);
        let conc_shapes = check_topology(&graph, &conc_trees);

        // Same seeded events, same deterministic Change/NoChange semantics:
        // both schedulers must reconstruct structurally identical traces.
        assert_eq!(sync_shapes, conc_shapes, "{program}");
    }
}

#[test]
fn async_handoff_spans_link_across_the_boundary_on_both_schedulers() {
    let mut g = GraphBuilder::new();
    let i = g.input("i", 0i64);
    let doubled = g.lift1("doubled", |v| Value::Int(v.as_int().unwrap_or(0) * 2), i);
    let a = g.async_source(doubled);
    let m = g.input("m", 0i64);
    let join = g.lift2(
        "join",
        |x, y| Value::Int(x.as_int().unwrap_or(0) + y.as_int().unwrap_or(0)),
        a,
        m,
    );
    let graph = g.finish(join).unwrap();

    for engine in [Engine::Synchronous, Engine::Concurrent] {
        let tracer = Tracer::for_graph(&graph);
        tracer.set_enabled(true);
        let mut running = Program::from_dynamic_graph(graph.clone())
            .start_observed(engine, Some(Arc::clone(&tracer)));
        for v in [3i64, 5, 7] {
            running.send_named("i", Value::Int(v)).unwrap();
        }
        running.send_named("m", Value::Int(100)).unwrap();
        running.drain_raw().unwrap();
        running.stop();

        let trees = assemble(&tracer.drain_spans(), &graph);
        // An `i` event flows i → doubled, hands off through the async
        // node, and recomputes join: one tree spanning both subgraphs.
        let crossing = trees
            .iter()
            .find(|t| t.node_set().contains(&a.0) && t.spans[t.roots()[0]].node == i.0)
            .unwrap_or_else(|| panic!("{engine:?}: no trace crossed the async boundary"));
        let expected = reachable_from(&graph, i);
        assert_eq!(crossing.node_set(), expected, "{engine:?}");
        // The async span's causal parent is the wrapped inner node.
        let (idx, _) = crossing
            .spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.node == a.0)
            .unwrap();
        let parent = crossing.parent[idx].expect("async span has a parent");
        assert_eq!(crossing.spans[parent].node, doubled.0, "{engine:?}");
    }
}

#[test]
fn observed_session_streams_trace_lines_and_exposes_node_timings() {
    let server = Server::start(ServerConfig::default());
    let plain = server
        .open(ProgramSpec::Builtin("counter"), None, None, false)
        .unwrap();
    assert!(
        server.trace_subscribe(plain.session).is_err(),
        "unobserved sessions must reject trace subscriptions"
    );

    let observed = server
        .open(ProgramSpec::Builtin("counter"), None, None, true)
        .unwrap();
    let mailbox = server.trace_subscribe(observed.session).unwrap();
    for _ in 0..5 {
        server
            .event(
                observed.session,
                "Mouse.clicks",
                elm_runtime::PlainValue::Unit,
            )
            .unwrap();
    }

    // The session pump renders completed span trees as NDJSON lines.
    let deadline = Instant::now() + Duration::from_secs(5);
    let line = loop {
        match mailbox.recv_timeout(Duration::from_millis(100)) {
            TracePop::Line(line) => break line,
            TracePop::Empty if Instant::now() < deadline => continue,
            other => panic!("no trace line arrived: {other:?}"),
        }
    };
    let json: serde_json::Value = serde_json::from_str(&line).unwrap();
    let as_u64 = |v: &serde_json::Value| match v {
        serde_json::Value::U64(n) => Some(*n),
        serde_json::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    };
    assert_eq!(
        json.get("session").and_then(as_u64),
        Some(observed.session),
        "{line}"
    );
    assert!(json.get("trace").is_some(), "{line}");
    assert!(
        json.get("spans")
            .and_then(|s| s.as_seq())
            .is_some_and(|a| !a.is_empty()),
        "{line}"
    );

    // Per-node timings surface in session stats and the Prometheus text.
    let stats = server.session_stats(observed.session).unwrap();
    assert!(!stats.nodes.is_empty());
    assert!(stats.nodes.iter().any(|n| n.computes > 0));
    let text = server.metrics_text();
    let sid = format!("session=\"{}\"", observed.session);
    assert!(
        text.lines()
            .any(|l| l.starts_with("elm_node_compute_seconds_count") && l.contains(&sid)),
        "{text}"
    );

    server.shutdown();
}
