//! The compiled big-step evaluator against the Fig. 6 specification.
//!
//! `eval_code(compile(e))` must produce the value of the small-step normal
//! form of `e`. The generated terms lean on what compilation could get
//! wrong: closures that escape the scope that built them (partially
//! applied curried functions, closures stored in pairs, closures returned
//! from functions), captured variables that are shadowed afterwards, and
//! a small name pool so that `let`s and lambda parameters shadow each
//! other all the time.

use elm_runtime::Value;
use felm::budget::Meter;
use felm::eval::{normalize, DEFAULT_FUEL};
use felm::eval_big::{compile, eval_code, Env};
use felm::parser::parse_expr;
use felm::translate::{apply_compiled, apply_function_small_step, expr_to_value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Names shared by `let`s and lambda parameters: reuse means shadowing.
const NAMES: [&str; 3] = ["x", "y", "z"];

fn name(rng: &mut StdRng) -> &'static str {
    NAMES[rng.gen_range(0..NAMES.len())]
}

/// An expression of type `Int` whose free variables are in `scope`.
/// Total: division by zero is 0 and arithmetic wraps, in both semantics.
fn int_term(rng: &mut StdRng, depth: usize, scope: &[&'static str]) -> String {
    if depth == 0 || rng.gen_bool(0.2) {
        return match scope.len() {
            n if n > 0 && rng.gen_bool(0.6) => scope[rng.gen_range(0..n)].to_string(),
            _ => format!("{}", rng.gen_range(0i64..10)),
        };
    }
    let d = depth - 1;
    let with = |extra: &[&'static str]| {
        let mut s = scope.to_vec();
        s.extend_from_slice(extra);
        s
    };
    match rng.gen_range(0u32..10) {
        0 => {
            let op = ["+", "-", "*", "/", "%"][rng.gen_range(0usize..5)];
            format!(
                "({} {op} {})",
                int_term(rng, d, scope),
                int_term(rng, d, scope)
            )
        }
        1 => {
            let x = name(rng);
            let value = int_term(rng, d, scope);
            format!("(let {x} = {value} in {})", int_term(rng, d, &with(&[x])))
        }
        2 => {
            // A curried function, partially applied; the partial
            // application escapes the `let` that built it.
            let (a, b) = (name(rng), name(rng));
            let body = int_term(rng, d, &with(&[a, b]));
            let (first, second) = (int_term(rng, d, scope), int_term(rng, d, scope));
            format!("(let f = \\{a} {b} -> {body} in let g = f {first} in g {second})")
        }
        3 => {
            // A closure stored in a pair, taken out and applied.
            let a = name(rng);
            let body = int_term(rng, d, &with(&[a]));
            let arg = int_term(rng, d, scope);
            format!("(let p = (\\{a} -> {body}, {arg}) in (fst p) (snd p))")
        }
        4 => {
            // A closure over `x`, called after `x` is shadowed: lexical
            // scope must win.
            let captured = int_term(rng, d, scope);
            let a = name(rng);
            let body = int_term(rng, d, &with(&["x", a]));
            let shadow = int_term(rng, d, scope);
            format!("(let x = {captured} in let f = \\{a} -> {body} in let x = {shadow} in f x)")
        }
        5 => {
            // A function returning a closure over its own parameter.
            let (a, b) = (name(rng), name(rng));
            let body = int_term(rng, d, &with(&[a, b]));
            let (first, second) = (int_term(rng, d, scope), int_term(rng, d, scope));
            format!("(((\\{a} -> \\{b} -> {body}) {first}) {second})")
        }
        6 => {
            // A higher-order function applied to a fresh closure.
            let a = name(rng);
            let body = int_term(rng, d, &with(&[a]));
            let arg = int_term(rng, d, scope);
            format!("(let twice = \\h n -> h (h n) in twice (\\{a} -> {body}) {arg})")
        }
        7 => format!(
            "(if {} then {} else {})",
            int_term(rng, d, scope),
            int_term(rng, d, scope),
            int_term(rng, d, scope)
        ),
        8 => format!(
            "(snd ({}, {}))",
            int_term(rng, d, scope),
            int_term(rng, d, scope)
        ),
        _ => format!(
            "(head [{}, {}])",
            int_term(rng, d, scope),
            int_term(rng, d, scope)
        ),
    }
}

/// A data-typed term: an `Int`, or a pair of them.
fn data_term() -> BoxedStrategy<String> {
    BoxedStrategy::from_fn(|rng| {
        if rng.gen_bool(0.25) {
            format!("({}, {})", int_term(rng, 3, &[]), int_term(rng, 3, &[]))
        } else {
            int_term(rng, 4, &[])
        }
    })
}

/// A two-argument node function `\x y -> body`.
fn node_function() -> BoxedStrategy<String> {
    BoxedStrategy::from_fn(|rng| format!("\\x y -> {}", int_term(rng, 4, &["x", "y"])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_code_agrees_with_small_step(src in data_term()) {
        let e = parse_expr(&src).expect("generated term parses");
        let spec = expr_to_value(&normalize(&e, DEFAULT_FUEL).expect("total term"));
        prop_assert!(spec.is_some(), "normal form is data: {}", src);
        let code = compile(&e);
        let got = eval_code(&Env::empty(), &code, &mut Meter::unlimited())
            .expect("total term");
        prop_assert_eq!(Some(got), spec, "{}", src);
    }

    #[test]
    fn compiled_node_functions_agree_with_small_step(
        src in node_function(),
        x in -20i64..20,
        y in -20i64..20,
    ) {
        let f = parse_expr(&src).expect("generated function parses");
        let (x, y) = (Value::Int(x), Value::Int(y));
        let spec = apply_function_small_step(&f, &[x.clone(), y.clone()]);
        let code = compile(&f);
        // Applied twice: code compiled once must give the same answer on
        // every application.
        prop_assert_eq!(&apply_compiled(&code, &[&x, &y]), &spec, "{}", src);
        prop_assert_eq!(&apply_compiled(&code, &[&x, &y]), &spec, "{}", src);
    }
}
