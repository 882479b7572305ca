//! Interpreter ablation: the faithful Fig. 6 small-step machine
//! (substitution-based, the specification) vs the environment-based
//! big-step evaluator that signal nodes actually run on each event.
//! Quantifies why stage two does not interpret by literal β-reduction.
//!
//! Rows: `compiled` applies code compiled once, as a graph node does;
//! `big-step` compiles the function on every call, then applies it;
//! `small-step-spec` normalizes by Fig. 6 β-reduction.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elm_runtime::Value;
use felm::ast::Expr;
use felm::eval_big::compile;
use felm::parser::parse_expr;
use felm::translate::{apply_compiled, apply_function, apply_function_small_step};

/// A curried two-argument function with `depth` nested lets and calls.
fn workload(depth: usize) -> Expr {
    let mut body = String::from("x + y");
    for k in 0..depth {
        body = format!("let t{k} = ({body}) * 2 in t{k} - {k}");
    }
    parse_expr(&format!("\\x y -> {body}")).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    group.measurement_time(Duration::from_secs(2));

    for depth in [1usize, 8, 32] {
        let f = workload(depth);
        let args = [Value::Int(21), Value::Int(2)];
        let code = compile(&f);
        let arg_refs = [&args[0], &args[1]];
        // All paths must agree before we time them.
        let spec = apply_function_small_step(&f, &args);
        assert_eq!(apply_function(&f, &args), spec);
        assert_eq!(apply_compiled(&code, &arg_refs), spec);
        group.bench_with_input(BenchmarkId::new("compiled", depth), &depth, |b, _| {
            b.iter(|| apply_compiled(&code, &arg_refs))
        });
        group.bench_with_input(BenchmarkId::new("big-step", depth), &depth, |b, _| {
            b.iter(|| apply_function(&f, &args))
        });
        group.bench_with_input(
            BenchmarkId::new("small-step-spec", depth),
            &depth,
            |b, _| b.iter(|| apply_function_small_step(&f, &args)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
