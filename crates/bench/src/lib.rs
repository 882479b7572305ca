//! Shared workload builders for the benchmark harness.
//!
//! Each function builds one of the graphs the paper's evaluation claims
//! are stated over (DESIGN.md experiment index E4–E14). The Criterion
//! benches in `benches/` and the table-printing `harness` binary both use
//! these, so measured numbers and recorded tables come from identical
//! workloads.

#![warn(missing_docs)]

use std::time::Duration;

use elm_runtime::{GraphBuilder, NodeId, Occurrence, SignalGraph, Value};

/// How a node's computational cost is modelled.
///
/// The paper's long-running computations are of both kinds: CPU-bound
/// (`toFrench` translation, §3.3.2) and blocking I/O (the image fetch of
/// Example 3). On a single-core host only [`CostModel::Block`] lets
/// pipelining/asynchrony show wall-clock overlap, so the harness reports
/// both models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostModel {
    /// Busy-spin the CPU for the duration.
    Spin,
    /// Block the thread (sleep) for the duration — models I/O latency.
    Block,
}

impl CostModel {
    /// Pays `cost` under this model.
    pub fn pay(self, cost: Duration) {
        if cost.is_zero() {
            return;
        }
        match self {
            CostModel::Spin => busy_work(cost),
            CostModel::Block => std::thread::sleep(cost),
        }
    }
}

/// Spins for roughly `cost` wall-clock time (the "long-running
/// computation f" of §5 — arbitrary work, deliberately not a sleep so the
/// scheduler can't cheat).
pub fn busy_work(cost: Duration) {
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed() < cost {
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
    }
}

/// The paper's §5 example, both variants:
///
/// ```text
/// syncEg  = lift2 (,) Mouse.x (lift f Mouse.y)
/// asyncEg = lift2 (,) Mouse.x (async (lift f Mouse.y))
/// ```
///
/// `f` busy-spins for `f_cost`. Returns the graph plus the `Mouse.x` and
/// `Mouse.y` input ids.
pub fn responsiveness_graph(
    f_cost: Duration,
    model: CostModel,
    use_async: bool,
) -> (SignalGraph, NodeId, NodeId) {
    let mut g = GraphBuilder::new();
    let mx = g.input("Mouse.x", 0i64);
    let my = g.input("Mouse.y", 0i64);
    let f = g.lift1(
        "f",
        move |v| {
            model.pay(f_cost);
            Value::Int(v.as_int().unwrap_or(0) * 2)
        },
        my,
    );
    let right = if use_async { g.async_source(f) } else { f };
    let pair = g.lift2("(,)", |x, fy| Value::pair(x.clone(), fy.clone()), mx, right);
    (g.finish(pair).expect("valid graph"), mx, my)
}

/// A linear chain of `depth` lift nodes, each costing `node_cost`, over a
/// single input — the "sufficiently deep signal graph" with which
/// "pipelined evaluation … has arbitrarily better performance" (§5).
pub fn deep_chain(depth: usize, node_cost: Duration, model: CostModel) -> (SignalGraph, NodeId) {
    let mut g = GraphBuilder::new();
    let input = g.input("i", 0i64);
    let mut cur = input;
    for k in 0..depth {
        cur = g.lift1(
            format!("stage{k}"),
            move |v| {
                model.pay(node_cost);
                Value::Int(v.as_int().unwrap_or(0) + 1)
            },
            cur,
        );
    }
    (g.finish(cur).expect("valid graph"), input)
}

/// A wide two-layer graph: `width` independent unary branches over one
/// input, joined by one n-ary lift — stresses fan-out/fan-in.
pub fn wide_graph(width: usize, node_cost: Duration, model: CostModel) -> (SignalGraph, NodeId) {
    let mut g = GraphBuilder::new();
    let input = g.input("i", 0i64);
    let branches: Vec<NodeId> = (0..width)
        .map(|k| {
            g.lift1(
                format!("branch{k}"),
                move |v| {
                    model.pay(node_cost);
                    Value::Int(v.as_int().unwrap_or(0) + 1)
                },
                input,
            )
        })
        .collect();
    let join = g.lift_n(
        "join",
        |vs| Value::Int(vs.iter().filter_map(|v| v.as_int()).sum()),
        branches,
    );
    (g.finish(join).expect("valid graph"), input)
}

/// A binary-tree reduction over `leaves` inputs — the recomputation
/// workload for push-versus-pull (E4): an event touches one leaf; push
/// recomputes only the path to the root, pull recomputes everything.
pub fn tree_graph(leaves: usize) -> (SignalGraph, Vec<NodeId>) {
    assert!(leaves.is_power_of_two(), "leaves must be a power of two");
    let mut g = GraphBuilder::new();
    let inputs: Vec<NodeId> = (0..leaves)
        .map(|k| g.input(format!("leaf{k}"), 0i64))
        .collect();
    let mut layer = inputs.clone();
    let mut level = 0;
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .enumerate()
            .map(|(k, pair)| {
                g.lift2(
                    format!("sum{level}_{k}"),
                    |a, b| Value::Int(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0)),
                    pair[0],
                    pair[1],
                )
            })
            .collect();
        level += 1;
    }
    let root = layer[0];
    (g.finish(root).expect("valid graph"), inputs)
}

/// The §3.3.2 memoization diamond: two inputs, two costly branches, one
/// join, plus a `foldp` counting one branch's events (whose correctness
/// depends on `NoChange`).
pub fn diamond_graph(node_cost: Duration, model: CostModel) -> (SignalGraph, NodeId, NodeId) {
    let mut g = GraphBuilder::new();
    let a = g.input("a", 0i64);
    let b = g.input("b", 0i64);
    let fa = g.lift1(
        "fa",
        move |v| {
            model.pay(node_cost);
            Value::Int(v.as_int().unwrap_or(0) + 1)
        },
        a,
    );
    let fb = g.lift1(
        "fb",
        move |v| {
            model.pay(node_cost);
            Value::Int(v.as_int().unwrap_or(0) * 2)
        },
        b,
    );
    let count_a = g.foldp(
        "countA",
        |_v, acc| Value::Int(acc.as_int().unwrap_or(0) + 1),
        0i64,
        fa,
    );
    let join = g.lift3(
        "join",
        |x, y, c| Value::list([x.clone(), y.clone(), c.clone()]),
        fa,
        fb,
        count_a,
    );
    (g.finish(join).expect("valid graph"), a, b)
}

/// An async hop graph for E14: input → (optional async) → identity.
pub fn hop_graph(use_async: bool, payload_bytes: usize) -> (SignalGraph, NodeId, Value) {
    let mut g = GraphBuilder::new();
    let payload = Value::str("x".repeat(payload_bytes));
    let input = g.input("i", payload.clone());
    let mid = g.lift1("id1", |v| v.clone(), input);
    let hopped = if use_async { g.async_source(mid) } else { mid };
    let out = g.lift1("id2", |v| v.clone(), hopped);
    (g.finish(out).expect("valid graph"), input, payload)
}

/// A burst of `n` integer events on one input.
pub fn int_events(input: NodeId, n: usize) -> Vec<Occurrence> {
    (0..n).map(|k| Occurrence::input(input, k as i64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elm_runtime::SyncRuntime;

    #[test]
    fn workload_graphs_build_and_run() {
        let (g, mx, _my) = responsiveness_graph(Duration::ZERO, CostModel::Spin, true);
        assert_eq!(g.async_sources().len(), 1);
        SyncRuntime::run_trace(&g, int_events(mx, 3)).unwrap();

        let (g, i) = deep_chain(16, Duration::ZERO, CostModel::Spin);
        assert_eq!(g.len(), 17);
        let outs = SyncRuntime::run_trace(&g, int_events(i, 2)).unwrap();
        assert_eq!(outs.len(), 2);

        let (g, i) = wide_graph(8, Duration::ZERO, CostModel::Spin);
        assert_eq!(g.len(), 10);
        SyncRuntime::run_trace(&g, int_events(i, 2)).unwrap();

        let (g, inputs) = tree_graph(8);
        assert_eq!(inputs.len(), 8);
        assert_eq!(g.len(), 8 + 7);

        let (g, a, _b) = diamond_graph(Duration::ZERO, CostModel::Spin);
        SyncRuntime::run_trace(&g, int_events(a, 2)).unwrap();

        let (g, i, payload) = hop_graph(true, 64);
        assert_eq!(g.async_sources().len(), 1);
        SyncRuntime::run_trace(&g, vec![Occurrence::input(i, payload)]).unwrap();
    }

    #[test]
    fn busy_work_spins_for_roughly_the_cost() {
        let t0 = std::time::Instant::now();
        busy_work(Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
