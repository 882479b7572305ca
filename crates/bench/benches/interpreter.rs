//! Interpreter ablation: the faithful Fig. 6 small-step machine
//! (substitution-based, the specification) vs the slot-resolved big-step
//! evaluator that signal nodes actually run on each event. Quantifies why
//! stage two does not interpret by literal β-reduction.
//!
//! Rows: `compiled` applies code compiled once, as a graph node does;
//! `big-step` compiles the function on every call, then applies it;
//! `small-step-spec` normalizes by Fig. 6 β-reduction.
//!
//! The `node` group applies two function shapes the scenario generator
//! synthesizes, as a node does per event: `lane` through the node entry
//! point (the Int lane, since both bodies are int-closed), `boxed` through
//! the same entry with every value an `RtValue`, and `small-step-spec`.
//!
//! The `node-general` group applies node functions the Int lane does not
//! run — pair, record, string, float and constructor results, a partial
//! application and a `twice`-tower of closures — through the node entry
//! point (`compiled`, the general slot path) and `small-step-spec`. Its
//! code uses only entry points whose signatures predate the slot-resolved
//! evaluator, so it runs unchanged against the environment-chain one.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elm_runtime::Value;
use felm::ast::Expr;
use felm::budget::Meter;
use felm::env::Adts;
use felm::eval_big::{apply_node_boxed, compile};
use felm::parser::{parse_expr, parse_program};
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

    let mut group = c.benchmark_group("node");
    group.measurement_time(Duration::from_secs(2));
    for (name, src) in [
        ("add-mul", "\\a b -> a + b * 3"),
        (
            "fold-abs-mod",
            "\\e n -> n + ((if e < 0 then 0 - e else e) % 83)",
        ),
    ] {
        let f = parse_expr(src).unwrap();
        let code = compile(&f);
        assert!(code.is_int_closed());
        let args = [Value::Int(-7), Value::Int(41)];
        let arg_refs = [&args[0], &args[1]];
        let spec = apply_function_small_step(&f, &args);
        assert_eq!(apply_compiled(&code, &arg_refs), spec);
        let boxed = || apply_node_boxed(&code, &arg_refs, &mut Meter::unlimited()).unwrap();
        assert_eq!(boxed(), spec);
        group.bench_function(BenchmarkId::new("lane", name), |b| {
            b.iter(|| apply_compiled(&code, &arg_refs))
        });
        group.bench_function(BenchmarkId::new("boxed", name), |b| b.iter(boxed));
        group.bench_function(BenchmarkId::new("small-step-spec", name), |b| {
            b.iter(|| apply_function_small_step(&f, &args))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("node-general");
    group.measurement_time(Duration::from_secs(2));
    let (a, b) = (Value::Int(-7), Value::Int(41));
    for (name, data, src, args) in [
        (
            "pair",
            "",
            "\\a b -> (a + b, a * b)",
            vec![a.clone(), b.clone()],
        ),
        (
            "record",
            "",
            "\\a b -> {x = a, y = b * 2}",
            vec![a.clone(), b.clone()],
        ),
        (
            "string",
            "",
            "\\s n -> s ++ \"!\"",
            vec![Value::str("hello"), b.clone()],
        ),
        (
            "float",
            "",
            "\\x -> if x > 0.0 then x else 0.0 - x",
            vec![Value::Float(-2.5)],
        ),
        (
            "adt",
            "data MaybeInt = Just Int | Nothing",
            "\\x -> case (if x > 0 then Just x else Nothing) of | Just n -> n + 1 | Nothing -> 0",
            vec![b.clone()],
        ),
        (
            "partial",
            "",
            "\\x -> let add = \\a b -> a + b in let inc = add 1 in inc (inc x)",
            vec![b.clone()],
        ),
        (
            "twice3",
            "",
            "\\e n -> (let t = \\f y -> f (f y) in t (t (t (\\k -> k + 1)))) n",
            vec![a.clone(), b.clone()],
        ),
    ] {
        let f = if data.is_empty() {
            parse_expr(src).unwrap()
        } else {
            let prog = parse_program(&format!("{data}\nmain = {src}")).unwrap();
            let adts = Adts::from_defs(&prog.datas).unwrap();
            adts.resolve(&prog.to_expr().unwrap()).unwrap()
        };
        let code = compile(&f);
        let arg_refs: Vec<&Value> = args.iter().collect();
        assert_eq!(
            apply_compiled(&code, &arg_refs),
            apply_function_small_step(&f, &args)
        );
        group.bench_function(BenchmarkId::new("compiled", name), |b| {
            b.iter(|| apply_compiled(&code, &arg_refs))
        });
        group.bench_function(BenchmarkId::new("small-step-spec", name), |b| {
            b.iter(|| apply_function_small_step(&f, &args))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
