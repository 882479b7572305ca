//! Graphviz DOT rendering of signal graphs.
//!
//! Reproduces the paper's signal-graph figures: Fig. 7 (the relative
//! mouse-position graph) and Fig. 8(a–c) (the `wordPairs` graphs, including
//! the primary/secondary subgraph split introduced by `async`). Source
//! nodes are drawn as boxes with a dashed edge from the global event
//! dispatcher; secondary subgraphs are clustered per owning `async` node.

use std::fmt::Write as _;

use crate::graph::{NodeKind, SignalGraph};

/// Renders `graph` as a Graphviz DOT document.
///
/// ```
/// use elm_runtime::{dot, GraphBuilder, Value};
///
/// let mut g = GraphBuilder::new();
/// let x = g.input("Mouse.x", 0i64);
/// let w = g.input("Window.width", 1i64);
/// let d = g.lift2("divide", |a, b| {
///     Value::Int(a.as_int().unwrap() / b.as_int().unwrap().max(1))
/// }, x, w);
/// let graph = g.finish(d).unwrap();
/// let rendered = dot::to_dot(&graph);
/// assert!(rendered.contains("Mouse.x"));
/// assert!(rendered.contains("dispatcher"));
/// ```
pub fn to_dot(graph: &SignalGraph) -> String {
    let mut out = String::new();
    let owner = graph.subgraph_owner();
    out.push_str("digraph signal_graph {\n");
    out.push_str("  rankdir=TB;\n");
    out.push_str(
        "  dispatcher [label=\"Global Event\\nDispatcher\", shape=ellipse, style=dashed];\n",
    );

    // Primary nodes first.
    for node in graph.nodes() {
        if owner[node.id.index()].is_none() {
            write_node(&mut out, "  ", graph, node.id.index());
        }
    }
    // One cluster per async node's secondary subgraph.
    for a in graph.async_sources() {
        let mut members: Vec<usize> = Vec::new();
        for node in graph.nodes() {
            if owner[node.id.index()] == Some(a) {
                members.push(node.id.index());
            }
        }
        if members.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  subgraph cluster_{} {{", a.index());
        let _ = writeln!(out, "    label=\"secondary subgraph of {a}\";");
        out.push_str("    style=dotted;\n");
        for idx in members {
            write_node(&mut out, "    ", graph, idx);
        }
        out.push_str("  }\n");
    }

    // Edges.
    for node in graph.nodes() {
        for p in &node.parents {
            let _ = writeln!(out, "  {} -> {};", p, node.id);
        }
        match node.kind {
            NodeKind::Input { .. } => {
                let _ = writeln!(out, "  dispatcher -> {} [style=dashed];", node.id);
            }
            NodeKind::Async { inner } => {
                let _ = writeln!(out, "  dispatcher -> {} [style=dashed];", node.id);
                let _ = writeln!(
                    out,
                    "  {} -> {} [style=dotted, label=\"buffer\"];",
                    inner, node.id
                );
            }
            NodeKind::Compute { .. } => {}
        }
    }
    let _ = writeln!(out, "  {} [peripheries=2];", graph.output());
    out.push_str("}\n");
    out
}

fn write_node(out: &mut String, indent: &str, graph: &SignalGraph, idx: usize) {
    let node = &graph.nodes()[idx];
    let shape = if node.is_source() { "box" } else { "oval" };
    let label = node.label.replace('"', "\\\"");
    let _ = writeln!(
        out,
        "{indent}{} [label=\"{label}\", shape={shape}];",
        node.id
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::value::Value;

    #[test]
    fn fig7_graph_renders_expected_structure() {
        let mut g = GraphBuilder::new();
        let x = g.input("Mouse.x", 0i64);
        let w = g.input("Window.width", 1i64);
        let d = g.lift2("λy.λz.y÷z", |a, _b| a.clone(), x, w);
        let graph = g.finish(d).unwrap();
        let dot = to_dot(&graph);
        assert!(dot.contains("dispatcher -> n0 [style=dashed];"));
        assert!(dot.contains("dispatcher -> n1 [style=dashed];"));
        assert!(dot.contains("n0 -> n2;"));
        assert!(dot.contains("n1 -> n2;"));
        assert!(dot.contains("n2 [peripheries=2];"));
    }

    #[test]
    fn fig8c_async_renders_secondary_cluster() {
        let mut g = GraphBuilder::new();
        let words = g.input("words", Value::str(""));
        let fr = g.lift1("toFrench", |v| v.clone(), words);
        let pairs = g.lift2("(,)", |a, b| Value::pair(a.clone(), b.clone()), words, fr);
        let a = g.async_source(pairs);
        let mouse = g.input("Mouse", 0i64);
        let main = g.lift2("(,)", |x, y| Value::pair(x.clone(), y.clone()), a, mouse);
        let graph = g.finish(main).unwrap();
        let dot = to_dot(&graph);
        assert!(dot.contains("subgraph cluster_3"));
        assert!(dot.contains("secondary subgraph of n3"));
        assert!(dot.contains("[style=dotted, label=\"buffer\"]"));
    }
}
