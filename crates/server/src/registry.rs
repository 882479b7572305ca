//! Named programs a client can instantiate without shipping source.
//!
//! Builtins are FElm sources compiled on demand through the full `felm`
//! pipeline against the paper's standard input environment, plus two
//! native graphs: `crashy` (panics on negative `Mouse.x`, exercising
//! node poisoning and supervised recovery) and `chaos` (the chaos-mode
//! workload program, a fold that keeps changing after poisoning).
//! Clients can also `open` with ad-hoc FElm source, which goes through
//! the same pipeline.

use elm_runtime::{GraphBuilder, NodeKind, SignalGraph, Value};
use felm::ast::Type;
use felm::env::InputEnv;
use felm::pipeline::compile_source;

/// How a client names the program to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramSpec<'a> {
    /// A registry builtin, by name.
    Builtin(&'a str),
    /// Ad-hoc FElm source (`main = …`).
    Source(&'a str),
}

enum Builtin {
    Felm(String),
    Native(fn() -> SignalGraph),
}

/// The server's program table.
pub struct Registry {
    env: InputEnv,
    builtins: Vec<(&'static str, Builtin)>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

const COUNTER: &str = "main = foldp (\\e n -> n + 1) 0 Mouse.clicks";
const MOUSE_SUM: &str = "main = lift2 (\\x y -> x + y) Mouse.x Mouse.y";
const MOUSE_LATEST: &str = "main = lift (\\x -> x) Mouse.x";
const WINDOW_AREA: &str = "main = lift2 (\\w h -> w * h) Window.width Window.height";
const LATEST_WORD: &str = "main = lift (\\w -> w) Words.input";
const DASHBOARD: &str = "count s = foldp (\\e n -> n + 1) 0 s\n\
                         clicks = count Mouse.clicks\n\
                         keys = count Keyboard.lastPressed\n\
                         main = lift2 (\\a b -> a * 1000 + b) clicks (lift2 (\\k x -> k + x) keys Mouse.x)";

/// A `2^k`-step Church-style iteration tower — `(tower k)` normalizes to
/// an expression that takes about `2^k` evaluation steps, far beyond any
/// sane fuel budget for `k ≳ 30`.
fn tower(k: usize) -> String {
    let mut body = String::from("(\\n -> n + 1)");
    for _ in 0..k {
        body = format!("(t {body})");
    }
    format!("(let t = \\f y -> f (f y) in {body} 0)")
}

/// A `2^k`-fold string doubling — each step doubles an 8-byte seed, so
/// allocation explodes long before the step count does.
fn doubling_bomb(k: usize) -> String {
    let mut body = String::from("\"88888888\"");
    for _ in 0..k {
        body = format!("(d {body})");
    }
    format!("(let d = \\s -> s ++ s in length [{body}])")
}

/// A well-typed counter that runs away the moment a `Keyboard.lastPressed`
/// event carries a truthy value: evaluation enters a `2^40`-step tower
/// that only a fuel budget can stop. Negative/zero keys count normally,
/// so the session stays useful for control-plane probes either way.
fn runaway_source() -> String {
    format!(
        "main = foldp (\\k acc -> if k then {} else acc + 1) 0 Keyboard.lastPressed",
        tower(40)
    )
}

/// Like `runaway`, but the hostile branch allocates instead of looping:
/// a `2^40`-fold string doubling that only an allocation budget can stop.
fn membomb_source() -> String {
    format!(
        "main = foldp (\\k acc -> if k then {} else acc + 1) 0 Keyboard.lastPressed",
        doubling_bomb(40)
    )
}

/// `Mouse.x` doubled — but any negative input panics the node, poisoning
/// it (paper §3.3.2's `NoChange` thereafter) so crash recovery can be
/// tested.
fn crashy_graph() -> SignalGraph {
    let mut g = GraphBuilder::new();
    let x = g.input("Mouse.x", 0i64);
    let out = g.lift1(
        "crashy",
        |v| match v {
            Value::Int(n) if *n < 0 => panic!("crashy: negative input"),
            Value::Int(n) => Value::Int(n * 2),
            other => other.clone(),
        },
        x,
    );
    g.finish(out).expect("crashy graph is well-formed")
}

/// The chaos-mode workhorse: a click counter combined with a panic-prone
/// `Mouse.x` path. The counter keeps the output changing after the risky
/// node is poisoned (so recovery correctness stays observable), and the
/// fold makes any lost or duplicated replay event visible in the final
/// value.
fn chaos_graph() -> SignalGraph {
    let mut g = GraphBuilder::new();
    let clicks = g.input("Mouse.clicks", Value::Unit);
    let x = g.input("Mouse.x", 0i64);
    let count = g.foldp(
        "count",
        |_e, acc| Value::Int(acc.as_int().unwrap_or(0) + 1),
        0i64,
        clicks,
    );
    let risky = g.lift1(
        "risky",
        |v| match v {
            Value::Int(n) if *n < 0 => panic!("chaos: negative input"),
            Value::Int(n) => Value::Int(n * 2),
            other => other.clone(),
        },
        x,
    );
    let out = g.lift2(
        "board",
        |c, r| Value::Int(c.as_int().unwrap_or(0) * 100_000 + r.as_int().unwrap_or(0)),
        count,
        risky,
    );
    g.finish(out).expect("chaos graph is well-formed")
}

impl Registry {
    /// The standard table: the FElm builtins plus the native `crashy` and
    /// `chaos` graphs.
    pub fn standard() -> Registry {
        Registry {
            env: InputEnv::standard(),
            builtins: vec![
                ("counter", Builtin::Felm(COUNTER.to_string())),
                ("mouse-sum", Builtin::Felm(MOUSE_SUM.to_string())),
                ("mouse-latest", Builtin::Felm(MOUSE_LATEST.to_string())),
                ("window-area", Builtin::Felm(WINDOW_AREA.to_string())),
                ("latest-word", Builtin::Felm(LATEST_WORD.to_string())),
                ("dashboard", Builtin::Felm(DASHBOARD.to_string())),
                ("runaway", Builtin::Felm(runaway_source())),
                ("membomb", Builtin::Felm(membomb_source())),
                ("crashy", Builtin::Native(crashy_graph)),
                ("chaos", Builtin::Native(chaos_graph)),
            ],
        }
    }

    /// Builtin names, for discovery / error messages.
    pub fn names(&self) -> Vec<&'static str> {
        self.builtins.iter().map(|(n, _)| *n).collect()
    }

    /// The declared payload type of each input of `graph`, by node index
    /// (`None` for other nodes and undeclared inputs): what a session
    /// checks event values against ([`crate::Session::set_input_types`]).
    pub fn input_types(&self, graph: &SignalGraph) -> Vec<Option<Type>> {
        let payload = |name: &str| match &self.env.get(name)?.ty {
            Type::Signal(t) => Some((**t).clone()),
            _ => None,
        };
        graph
            .nodes()
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Input { name } => payload(name),
                _ => None,
            })
            .collect()
    }

    fn compile(&self, src: &str) -> Result<SignalGraph, String> {
        let compiled = compile_source(src, &self.env).map_err(|e| format!("compile error: {e}"))?;
        compiled
            .graph()
            .cloned()
            .ok_or_else(|| "program is not reactive: `main` is not a signal".to_string())
    }

    /// Resolves a spec to `(display name, signal graph)`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown builtin name or a source that does not compile
    /// to a signal program.
    pub fn resolve(&self, spec: ProgramSpec<'_>) -> Result<(String, SignalGraph), String> {
        let (name, graph, _) = self.resolve_with_source(spec)?;
        Ok((name, graph))
    }

    /// [`Registry::resolve`], additionally returning the FElm source the
    /// graph was compiled from — `None` only for native-built graphs,
    /// which have no textual form. This is what the `describe` wire verb
    /// surfaces, so failures on ad-hoc fleet programs are reproducible
    /// from wire output alone.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Registry::resolve`].
    pub fn resolve_with_source(
        &self,
        spec: ProgramSpec<'_>,
    ) -> Result<(String, SignalGraph, Option<String>), String> {
        match spec {
            ProgramSpec::Builtin(name) => {
                let builtin = self
                    .builtins
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, b)| b)
                    .ok_or_else(|| {
                        format!("unknown program '{name}' (try one of {:?})", self.names())
                    })?;
                let (graph, source) = match builtin {
                    Builtin::Felm(src) => (self.compile(src)?, Some(src.clone())),
                    Builtin::Native(f) => (f(), None),
                };
                Ok((name.to_string(), graph, source))
            }
            ProgramSpec::Source(src) => Ok((
                "<source>".to_string(),
                self.compile(src)?,
                Some(src.to_string()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_compiles_to_a_graph() {
        let r = Registry::standard();
        for name in r.names() {
            let (resolved, graph) = r.resolve(ProgramSpec::Builtin(name)).unwrap();
            assert_eq!(resolved, name);
            assert!(!graph.is_empty(), "{name}");
        }
    }

    #[test]
    fn ad_hoc_source_and_errors() {
        let r = Registry::standard();
        let (name, graph) = r
            .resolve(ProgramSpec::Source(
                "main = lift (\\k -> k) Keyboard.lastPressed",
            ))
            .unwrap();
        assert_eq!(name, "<source>");
        assert!(graph.input_named("Keyboard.lastPressed").is_some());

        assert!(r.resolve(ProgramSpec::Builtin("nope")).is_err());
        assert!(r.resolve(ProgramSpec::Source("main = 1 +")).is_err());
        // A non-reactive program compiles but is rejected here.
        assert!(r.resolve(ProgramSpec::Source("main = 1 + 2")).is_err());
    }
}
