//! The signal-graph intermediate representation.
//!
//! A FElm program that evaluates (stage one) to a signal term denotes a
//! directed acyclic *signal graph* (paper §3.3.2, Figs. 7–8): input signals
//! and `async` terms are **source nodes**, `liftn`/`foldp`/library
//! combinators are **compute nodes**, and `let`-bound signals become
//! multicast fan-out (a node with several children). [`SignalGraph`] is that
//! DAG, scheduler-agnostic: the concurrent, synchronous, and pull schedulers
//! in [`crate::sched`] all execute the same IR.
//!
//! Acyclicity is guaranteed by construction — a node's parents must already
//! exist when it is added, so parent ids are always smaller than the child's
//! id and node-id order is a topological order.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::behavior::{BehaviorSpec, Foldp, KeepIf, KeepWhen, Lift, Merge, SampleOn};
use crate::error::GraphError;
use crate::value::Value;

/// Identifies a node within one [`SignalGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the graph's topological order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node does.
#[derive(Clone)]
pub enum NodeKind {
    /// An input signal from the external environment (paper `i ∈ Input`).
    Input {
        /// The environment name, e.g. `"Mouse.position"`.
        name: String,
    },
    /// A computing node (`liftn`, `foldp`, or a library combinator).
    Compute {
        /// The behavior factory shared by all runs of this graph.
        spec: Arc<dyn BehaviorSpec>,
    },
    /// An `async s` node: a *source* in the primary subgraph whose events are
    /// the `Change` values produced by the secondary subgraph rooted at
    /// `inner` (paper §3.3.2 and Fig. 10's `async` translation).
    Async {
        /// The node whose changes are re-injected as fresh global events.
        inner: NodeId,
    },
}

impl fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Input { name } => write!(f, "input({name})"),
            NodeKind::Compute { spec } => write!(f, "{}", spec.op_name()),
            NodeKind::Async { inner } => write!(f, "async({inner:?})"),
        }
    }
}

/// One node of a signal graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// This node's id (also its topological index).
    pub id: NodeId,
    /// The node's role.
    pub kind: NodeKind,
    /// Incoming edges, in argument order. Empty for sources.
    pub parents: Vec<NodeId>,
    /// The node's default (pre-first-event) value, induced per §3.1.
    pub default: Value,
    /// Human-readable label for diagnostics / DOT output.
    pub label: String,
}

impl Node {
    /// True if the node is a source (input or `async`) — it receives event
    /// notifications from the global dispatcher rather than edge messages.
    pub fn is_source(&self) -> bool {
        matches!(self.kind, NodeKind::Input { .. } | NodeKind::Async { .. })
    }
}

/// An immutable signal-graph DAG plus a designated output (`main`) node.
///
/// Build one with [`GraphBuilder`]:
///
/// ```
/// use elm_runtime::{GraphBuilder, Value};
///
/// let mut g = GraphBuilder::new();
/// let mouse_x = g.input("Mouse.x", 0i64);
/// let doubled = g.lift1("double", |v| Value::Int(v.as_int().unwrap() * 2), mouse_x);
/// let graph = g.finish(doubled).expect("valid graph");
/// assert_eq!(graph.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SignalGraph {
    nodes: Vec<Node>,
    output: NodeId,
    /// Input name → node, built once by [`GraphBuilder::finish`] and
    /// shared by every clone of the graph.
    inputs: Arc<BTreeMap<String, NodeId>>,
}

impl SignalGraph {
    /// All nodes in topological (= id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node displayed as the program's result (`main`).
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never true for built graphs, which
    /// have at least the output node).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all source nodes (inputs and `async` nodes), in id order.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_source())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all `async` nodes, in id order.
    pub fn async_sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Async { .. }))
            .map(|n| n.id)
            .collect()
    }

    /// The input node named `name`, if any (the first one added, should
    /// a hand-built graph declare a name twice). One index lookup.
    pub fn input_named(&self, name: &str) -> Option<NodeId> {
        self.inputs.get(name).copied()
    }

    /// Children (outgoing edges) of each node, computed on demand.
    /// `children()[id.index()]` lists the nodes that consume `id`'s output.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for p in &n.parents {
                out[p.index()].push(n.id);
            }
        }
        out
    }

    /// A structural hash of the graph: node count, output id, and each
    /// node's kind, wiring, label, and default-value shape. Two graphs
    /// built the same way hash the same, so a [`crate::RuntimeSnapshot`]
    /// can be checked for compatibility before being restored into a
    /// runtime (restoring node values into a differently-shaped graph
    /// would silently corrupt state).
    ///
    /// Stable within one process; not a persistent format.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.nodes.len().hash(&mut h);
        self.output.0.hash(&mut h);
        for n in &self.nodes {
            n.id.0.hash(&mut h);
            n.label.hash(&mut h);
            for p in &n.parents {
                p.0.hash(&mut h);
            }
            match &n.kind {
                NodeKind::Input { name } => {
                    0u8.hash(&mut h);
                    name.hash(&mut h);
                }
                NodeKind::Compute { spec } => {
                    1u8.hash(&mut h);
                    spec.op_name().hash(&mut h);
                }
                NodeKind::Async { inner } => {
                    2u8.hash(&mut h);
                    inner.0.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Partitions nodes into the *primary subgraph* (reaches the output
    /// without passing through an `async` boundary) and *secondary
    /// subgraphs* (feed `async` nodes), reproducing the decomposition of
    /// paper Fig. 8(c). Returns, for each node, the id of the `async` node
    /// whose secondary subgraph it belongs to (`None` = primary).
    ///
    /// A node feeding several async nodes is attributed to the smallest id;
    /// nodes reachable from the output directly are primary even if they
    /// also feed an async node.
    pub fn subgraph_owner(&self) -> Vec<Option<NodeId>> {
        let mut owner: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut primary = vec![false; self.nodes.len()];
        // Mark the primary subgraph: walk up from the output, not crossing
        // async boundaries (async nodes are sources of the primary graph).
        let mut stack = vec![self.output];
        while let Some(id) = stack.pop() {
            if primary[id.index()] {
                continue;
            }
            primary[id.index()] = true;
            stack.extend(self.node(id).parents.iter().copied());
        }
        // Walk up from each async node's inner signal.
        for a in self.async_sources() {
            let NodeKind::Async { inner } = self.node(a).kind else {
                unreachable!("async_sources returned a non-async node");
            };
            let mut stack = vec![inner];
            while let Some(id) = stack.pop() {
                if primary[id.index()] || owner[id.index()].is_some() {
                    continue;
                }
                owner[id.index()] = Some(a);
                stack.extend(self.node(id).parents.iter().copied());
            }
        }
        owner
    }
}

/// Incremental builder for [`SignalGraph`].
///
/// Every constructor returns the new node's [`NodeId`]; ids are handed out
/// in topological order. The builder computes each node's default value from
/// its parents' defaults at insertion time (paper §3.1).
#[derive(Clone, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(
        &mut self,
        kind: NodeKind,
        parents: Vec<NodeId>,
        default: Value,
        label: String,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for p in &parents {
            assert!(
                p.index() < self.nodes.len(),
                "parent {p:?} does not exist yet (graphs are built bottom-up)"
            );
        }
        self.nodes.push(Node {
            id,
            kind,
            parents,
            default,
            label,
        });
        id
    }

    /// Adds an input signal with its required default value.
    pub fn input(&mut self, name: impl Into<String>, default: impl Into<Value>) -> NodeId {
        let name = name.into();
        let label = name.clone();
        self.push(NodeKind::Input { name }, Vec::new(), default.into(), label)
    }

    /// Adds a compute node from an explicit behavior spec.
    pub fn compute(
        &mut self,
        label: impl Into<String>,
        spec: impl BehaviorSpec + 'static,
        parents: Vec<NodeId>,
    ) -> NodeId {
        let parent_defaults: Vec<Value> = parents
            .iter()
            .map(|p| {
                self.nodes
                    .get(p.index())
                    .unwrap_or_else(|| {
                        panic!("parent {p:?} does not exist yet (graphs are built bottom-up)")
                    })
                    .default
                    .clone()
            })
            .collect();
        let default = spec.default_value(&parent_defaults);
        self.push(
            NodeKind::Compute {
                spec: Arc::new(spec),
            },
            parents,
            default,
            label.into(),
        )
    }

    /// `lift1 f s`.
    pub fn lift1(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
        s: NodeId,
    ) -> NodeId {
        self.compute(label, Lift::new(move |vs| f(vs[0])), vec![s])
    }

    /// `lift2 f s1 s2`.
    pub fn lift2(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
        s1: NodeId,
        s2: NodeId,
    ) -> NodeId {
        self.compute(label, Lift::new(move |vs| f(vs[0], vs[1])), vec![s1, s2])
    }

    /// `lift3 f s1 s2 s3`.
    pub fn lift3(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&Value, &Value, &Value) -> Value + Send + Sync + 'static,
        s1: NodeId,
        s2: NodeId,
        s3: NodeId,
    ) -> NodeId {
        self.compute(
            label,
            Lift::new(move |vs| f(vs[0], vs[1], vs[2])),
            vec![s1, s2, s3],
        )
    }

    /// `liftn f [s1 … sn]` for arbitrary arity.
    pub fn lift_n(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&[&Value]) -> Value + Send + Sync + 'static,
        parents: Vec<NodeId>,
    ) -> NodeId {
        self.compute(label, Lift::new(f), parents)
    }

    /// `foldp f init s`.
    pub fn foldp(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
        init: impl Into<Value>,
        s: NodeId,
    ) -> NodeId {
        self.compute(label, Foldp::new(f, init), vec![s])
    }

    /// `merge s1 s2` (left-biased).
    pub fn merge(&mut self, s1: NodeId, s2: NodeId) -> NodeId {
        self.compute("merge", Merge, vec![s1, s2])
    }

    /// `sampleOn ticker data`.
    pub fn sample_on(&mut self, ticker: NodeId, data: NodeId) -> NodeId {
        self.compute("sampleOn", SampleOn, vec![ticker, data])
    }

    /// `keepIf pred base s`.
    pub fn keep_if(
        &mut self,
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
        base: impl Into<Value>,
        s: NodeId,
    ) -> NodeId {
        self.compute("keepIf", KeepIf::keep(pred, base), vec![s])
    }

    /// `dropIf pred base s`.
    pub fn drop_if(
        &mut self,
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
        base: impl Into<Value>,
        s: NodeId,
    ) -> NodeId {
        self.compute("dropIf", KeepIf::drop(pred, base), vec![s])
    }

    /// `keepWhen gate base s`.
    pub fn keep_when(&mut self, gate: NodeId, base: impl Into<Value>, s: NodeId) -> NodeId {
        self.compute("keepWhen", KeepWhen::new(base), vec![gate, s])
    }

    /// `dropRepeats s`.
    pub fn drop_repeats(&mut self, s: NodeId) -> NodeId {
        self.compute("dropRepeats", crate::behavior::DropRepeats, vec![s])
    }

    /// `async s`: registers a new source whose events are `inner`'s changes.
    /// The async node's default value is `inner`'s default (paper Fig. 10).
    pub fn async_source(&mut self, inner: NodeId) -> NodeId {
        let default = self.nodes[inner.index()].default.clone();
        self.push(
            NodeKind::Async { inner },
            Vec::new(),
            default,
            format!("async({inner})"),
        )
    }

    /// Finalizes the graph with `output` as the `main` node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the graph is empty, `output` is out of
    /// range, an `async` inner reference is dangling, or a compute node has
    /// no parents.
    pub fn finish(self, output: NodeId) -> Result<SignalGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        if output.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(output));
        }
        for n in &self.nodes {
            match &n.kind {
                NodeKind::Compute { .. } if n.parents.is_empty() => {
                    return Err(GraphError::ComputeWithoutParents(n.id));
                }
                NodeKind::Async { inner } if inner.index() >= n.id.index() => {
                    return Err(GraphError::UnknownNode(*inner));
                }
                _ => {}
            }
        }
        let mut inputs = BTreeMap::new();
        for n in &self.nodes {
            if let NodeKind::Input { name } = &n.kind {
                inputs.entry(name.clone()).or_insert(n.id);
            }
        }
        Ok(SignalGraph {
            nodes: self.nodes,
            output,
            inputs: Arc::new(inputs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_position_graph() -> SignalGraph {
        // Paper Fig. 7: lift2 (λy.λz. y ÷ z) Mouse.x Window.width
        let mut g = GraphBuilder::new();
        let mouse_x = g.input("Mouse.x", 0i64);
        let width = g.input("Window.width", 100i64);
        let rel = g.lift2(
            "divide",
            |y, z| Value::Int(y.as_int().unwrap() / z.as_int().unwrap().max(1)),
            mouse_x,
            width,
        );
        g.finish(rel).unwrap()
    }

    #[test]
    fn builds_fig7_graph_shape() {
        let g = relative_position_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.sources(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(g.node(g.output()).parents, vec![NodeId(0), NodeId(1)]);
        assert_eq!(g.input_named("Mouse.x"), Some(NodeId(0)));
        assert_eq!(g.input_named("Nope"), None);
    }

    #[test]
    fn input_named_finds_the_first_input_of_a_repeated_name() {
        let mut g = GraphBuilder::new();
        let first = g.input("i", 0i64);
        let second = g.input("i", 1i64);
        let sum = g.lift2(
            "sum",
            |a, b| Value::Int(a.as_int().unwrap() + b.as_int().unwrap()),
            first,
            second,
        );
        let graph = g.finish(sum).unwrap();
        assert_eq!(graph.input_named("i"), Some(first));
        assert_eq!(graph.clone().input_named("i"), Some(first));
    }

    #[test]
    fn defaults_are_induced_from_parents() {
        let mut g = GraphBuilder::new();
        let w = g.input("Window.width", 50i64);
        let double = g.lift1("double", |v| Value::Int(v.as_int().unwrap() * 2), w);
        let graph = g.finish(double).unwrap();
        assert_eq!(graph.node(double).default, Value::Int(100));
    }

    #[test]
    fn multicast_children_are_tracked() {
        let mut g = GraphBuilder::new();
        let i = g.input("words", Value::str(""));
        let a = g.lift1("idA", |v| v.clone(), i);
        let b = g.lift1("idB", |v| v.clone(), i);
        let pair = g.lift2("pair", |x, y| Value::pair(x.clone(), y.clone()), a, b);
        let graph = g.finish(pair).unwrap();
        let children = graph.children();
        assert_eq!(children[i.index()], vec![a, b]);
        assert_eq!(children[a.index()], vec![pair]);
    }

    #[test]
    fn async_partitions_primary_and_secondary_subgraphs() {
        // Paper Fig. 8(c): lift2 (,) (async wordPairs) Mouse.position
        let mut g = GraphBuilder::new();
        let words = g.input("words", Value::str(""));
        let to_french = g.lift1("toFrench", |v| v.clone(), words);
        let word_pairs = g.lift2(
            "(,)",
            |a, b| Value::pair(a.clone(), b.clone()),
            words,
            to_french,
        );
        let async_pairs = g.async_source(word_pairs);
        let mouse = g.input("Mouse.position", Value::pair(Value::Int(0), Value::Int(0)));
        let main = g.lift2(
            "(,)",
            |a, b| Value::pair(a.clone(), b.clone()),
            async_pairs,
            mouse,
        );
        let graph = g.finish(main).unwrap();

        assert_eq!(graph.async_sources(), vec![async_pairs]);
        assert_eq!(graph.sources(), vec![words, async_pairs, mouse]);

        let owner = graph.subgraph_owner();
        // Primary: async node, mouse, main.
        assert_eq!(owner[async_pairs.index()], None);
        assert_eq!(owner[mouse.index()], None);
        assert_eq!(owner[main.index()], None);
        // Secondary (owned by the async node): words, toFrench, wordPairs.
        assert_eq!(owner[words.index()], Some(async_pairs));
        assert_eq!(owner[to_french.index()], Some(async_pairs));
        assert_eq!(owner[word_pairs.index()], Some(async_pairs));
    }

    #[test]
    fn finish_rejects_bad_graphs() {
        let g = GraphBuilder::new();
        assert!(matches!(g.finish(NodeId(0)), Err(GraphError::Empty)));

        let mut g = GraphBuilder::new();
        let i = g.input("i", 0i64);
        assert!(matches!(
            g.finish(NodeId(5)),
            Err(GraphError::UnknownNode(NodeId(5)))
        ));
        let mut g = GraphBuilder::new();
        let _ = i;
        let i = g.input("i", 0i64);
        assert!(g.finish(i).is_ok());
    }

    #[test]
    #[should_panic(expected = "parent")]
    fn forward_references_panic_at_build_time() {
        let mut g = GraphBuilder::new();
        let _ = g.lift1("bad", |v| v.clone(), NodeId(7));
    }
}
