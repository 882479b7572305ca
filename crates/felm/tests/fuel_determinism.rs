//! Satellite property: fueled evaluation is *transparent* when the budget
//! suffices and *deterministic* when it does not.
//!
//! * With a sufficient budget, metered evaluation returns bit-identical
//!   results to unmetered evaluation — across both the big-step
//!   interpreter and the Fig. 6 small-step machine.
//! * With a fixed insufficient budget, `OutOfFuel` (and the fuel consumed
//!   before it) is a pure function of the term and the budget: two runs
//!   agree exactly. This is what makes trapped events safe to roll back
//!   and replay — governance can never diverge recovered state.
//! * On a fixed corpus, the meter's readings (fuel, allocation, the depth
//!   that suffices, and where each fuel and depth budget traps) are
//!   pinned numbers, so an evaluator rewrite cannot move a trap.
//!
//! Plus end-to-end checks that a runaway `twice`-tower and a
//! string-doubling allocator bomb trap inside a governed signal runtime,
//! with the event rolled back and the session healthy afterwards.

use felm::budget::{Budget, Meter, Trap};
use felm::env::InputEnv;
use felm::eval::{normalize, normalize_metered, EvalError, DEFAULT_FUEL};
use felm::eval_big::{
    apply_metered, apply_node, apply_node_boxed, compile, eval, eval_metered, Code, Env, RtValue,
};
use felm::parser::parse_expr;
use felm::pipeline::compile_source;
use felm::translate::{apply_function_small_step, expr_to_value};

use elm_runtime::{EventLimits, Occurrence, SyncRuntime, TrapKind, Value};
use proptest::prelude::*;

/// Closed, well-typed-by-construction integer expressions: arithmetic,
/// `let`, fully-applied lambdas, pairs, and list primitives — total (no
/// stuck states: division by zero is defined as 0, lists are non-empty).
fn int_expr() -> BoxedStrategy<String> {
    fn gen(rng: &mut rand::rngs::StdRng, depth: usize) -> String {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.25) {
            // Non-negative literals only: unary minus is not valid in
            // every expression position. Subtraction makes negatives.
            return format!("{}", rng.gen_range(0i64..10));
        }
        let d = depth - 1;
        match rng.gen_range(0u32..8) {
            0 => {
                let op = ["+", "-", "*", "/"][rng.gen_range(0usize..4)];
                format!("({} {op} {})", gen(rng, d), gen(rng, d))
            }
            1 => format!("(let x = {} in ({} + x))", gen(rng, d), gen(rng, d)),
            2 => format!("((\\x y -> x + y * 2) {} {})", gen(rng, d), gen(rng, d)),
            3 => format!("(fst ({}, {}))", gen(rng, d), gen(rng, d)),
            4 => format!("(snd ({}, {}))", gen(rng, d), gen(rng, d)),
            5 => format!("(head [{}, 0])", gen(rng, d)),
            6 => {
                let a = gen(rng, d);
                format!("(length [{a}, {a}, 1])")
            }
            _ => {
                let c = gen(rng, d);
                format!("(if {c} then {} else 1)", gen(rng, d))
            }
        }
    }
    BoxedStrategy::from_fn(|rng| gen(rng, 4))
}

fn big(src: &str, meter: &mut Meter) -> Result<RtValue, EvalError> {
    let e = parse_expr(src).expect("generated expression parses");
    eval_metered(&Env::empty(), &e, meter)
}

/// A `twice`-tower: `k` characters of source demanding `2^k` β-steps.
/// Monomorphic (`t : (Int -> Int) -> Int -> Int`), so it passes the
/// checker; only fuel can stop it in reasonable time.
fn runaway_tower(k: usize) -> String {
    let mut f = String::from("(\\n -> n + 1)");
    for _ in 0..k {
        f = format!("(t {f})");
    }
    format!("(let t = \\f y -> f (f y) in {f} 0)")
}

/// A string-doubling chain allocating `8 * 2^k` bytes.
fn allocator_bomb(k: usize) -> String {
    let mut s = String::from("\"88888888\"");
    for _ in 0..k {
        s = format!("(d {s})");
    }
    format!("(let d = \\s -> s ++ s in length [{s}])")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sufficient_budget_is_transparent_in_both_evaluators(src in int_expr()) {
        let e = parse_expr(&src).expect("generated expression parses");

        // Big-step: unmetered vs unlimited meter vs exactly-sufficient
        // budget — all three bit-identical.
        let plain = eval(&Env::empty(), &e).expect("total expression");
        let mut probe = Meter::unlimited();
        let unlimited = eval_metered(&Env::empty(), &e, &mut probe).unwrap();
        prop_assert_eq!(&plain, &unlimited);
        let exact = Budget {
            fuel: probe.fuel_used(),
            max_alloc_cells: probe.alloc_cells(),
            max_depth: u64::MAX,
        };
        let exact_run = big(&src, &mut Meter::new(exact)).expect("exact budget suffices");
        prop_assert_eq!(&plain, &exact_run);

        // Small-step: compare through the data universe (normal forms are
        // ground values here), sidestepping fresh-name counters.
        let spec = normalize(&e, DEFAULT_FUEL).expect("total expression");
        let mut meter = Meter::unlimited();
        let spec_metered = normalize_metered(&e, &mut meter).expect("unlimited budget");
        let v = expr_to_value(&spec);
        prop_assert!(v.is_some(), "normal form is data");
        prop_assert_eq!(v, expr_to_value(&spec_metered));
    }

    #[test]
    fn out_of_fuel_is_deterministic_for_a_fixed_budget(src in int_expr(), fuel in 0u64..64) {
        let budget = Budget::with_fuel(fuel);
        let mut m1 = Meter::new(budget);
        let mut m2 = Meter::new(budget);
        let r1 = big(&src, &mut m1);
        let r2 = big(&src, &mut m2);
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(m1.fuel_used(), m2.fuel_used());
        if let Err(err) = r1 {
            prop_assert_eq!(err, EvalError::Trap(Trap::OutOfFuel));
        }

        // Small-step machine, same property.
        let e = parse_expr(&src).unwrap();
        let mut s1 = Meter::new(budget);
        let mut s2 = Meter::new(budget);
        let n1 = normalize_metered(&e, &mut s1);
        let n2 = normalize_metered(&e, &mut s2);
        prop_assert_eq!(n1.is_err(), n2.is_err());
        prop_assert_eq!(s1.fuel_used(), s2.fuel_used());
        if let (Ok(a), Ok(b)) = (&n1, &n2) {
            prop_assert_eq!(expr_to_value(a), expr_to_value(b));
        }
    }
}

#[test]
fn runaway_tower_traps_in_both_evaluators() {
    let src = runaway_tower(40); // 2^40 steps: finishes never, traps fast
    let err = big(&src, &mut Meter::new(Budget::default())).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::OutOfFuel));

    // The small-step machine *duplicates* the argument on every β-step of
    // a `twice`, so on this term the space dimension explodes before the
    // step count does; the allocation budget must catch it (an
    // unlimited-allocation meter would eat gigabytes before 50k steps).
    let e = parse_expr(&src).unwrap();
    let budget = Budget {
        fuel: 50_000,
        max_alloc_cells: 100_000,
        max_depth: u64::MAX,
    };
    let err = normalize_metered(&e, &mut Meter::new(budget)).unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::Trap(Trap::OutOfFuel) | EvalError::Trap(Trap::OutOfMemory)
        ),
        "expected a resource trap, got {err:?}"
    );
}

#[test]
fn allocator_bomb_traps_out_of_memory() {
    let src = allocator_bomb(40); // 8 * 2^40 bytes if left unchecked
    let err = big(&src, &mut Meter::new(Budget::default())).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::OutOfMemory));
}

#[test]
fn depth_budget_traps_deep_nesting() {
    // 64 nested unapplied redexes exceed a depth budget of 16.
    let mut src = String::from("1");
    for _ in 0..64 {
        src = format!("((\\x -> x) {src})");
    }
    let budget = Budget {
        max_depth: 16,
        ..Budget::UNLIMITED
    };
    let err = big(&src, &mut Meter::new(budget)).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::DepthExceeded));
}

/// End to end: a governed synchronous runtime traps a runaway event,
/// rolls it back completely (the fold's accumulator is untouched), keeps
/// the node healthy, and the session keeps serving honest events.
#[test]
fn governed_runtime_traps_runaway_event_and_rolls_back() {
    let src = format!(
        "main = foldp (\\k acc -> if k then {} else acc + 1) 0 Keyboard.lastPressed",
        runaway_tower(40)
    );
    let compiled = compile_source(&src, &InputEnv::standard()).unwrap();
    let graph = compiled.graph().expect("reactive program").clone();
    let keys = graph.input_named("Keyboard.lastPressed").unwrap();

    let mut rt = SyncRuntime::new(&graph);
    rt.set_governor(
        Some(EventLimits {
            fuel: 100_000,
            ..EventLimits::default()
        }),
        None,
    );

    // Honest event: k = 0 takes the cheap branch.
    rt.feed(Occurrence::input(keys, 0i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert_eq!(outs[0].value(), Some(&Value::Int(1)));

    // Adversarial event: k = 1 dives into the tower and traps.
    rt.feed(Occurrence::input(keys, 1i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert!(outs[0].value().is_none(), "trapped event reports NoChange");
    assert_eq!(
        rt.take_traps()
            .into_iter()
            .map(|(_, k)| k)
            .collect::<Vec<_>>(),
        vec![TrapKind::OutOfFuel]
    );
    assert_eq!(rt.stats().traps(), 1);
    assert_eq!(rt.stats().node_panics(), 0, "trap is not a poisoning");

    // Rollback: the accumulator still reads 1, and the node still works.
    assert_eq!(rt.output_value(), &Value::Int(1));
    rt.feed(Occurrence::input(keys, 0i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert_eq!(outs[0].value(), Some(&Value::Int(2)));
    assert!(rt.take_traps().is_empty());
}

/// The same trapped event on two runtimes leaves bit-identical state:
/// replaying the full event log (traps included) equals replaying it on a
/// fresh runtime — the recovery-determinism contract.
#[test]
fn trapped_events_replay_deterministically() {
    let src = format!(
        "main = foldp (\\k acc -> if k then {} else acc * 2 + 1) 0 Keyboard.lastPressed",
        runaway_tower(40)
    );
    let compiled = compile_source(&src, &InputEnv::standard()).unwrap();
    let graph = compiled.graph().unwrap().clone();
    let keys = graph.input_named("Keyboard.lastPressed").unwrap();
    let limits = EventLimits {
        fuel: 50_000,
        ..EventLimits::default()
    };

    let run = || {
        let mut rt = SyncRuntime::new(&graph);
        rt.set_governor(Some(limits), None);
        for k in [0i64, 1, 0, 1, 0] {
            rt.feed(Occurrence::input(keys, k)).unwrap();
        }
        rt.run_to_quiescence();
        (rt.output_value().clone(), rt.take_traps())
    };
    let (v1, t1) = run();
    let (v2, t2) = run();
    assert_eq!(v1, Value::Int(7)); // three honest events: 1, 3, 7
    assert_eq!(v1, v2);
    assert_eq!(t1, t2);
    assert_eq!(t1.len(), 2);
}

/// The meter's exact readings on a fixed corpus: the `interpreter` bench
/// workloads, one function per scalar and fold shape the scenario
/// generator (`elm_synth::gen`) renders, and a few terms covering the
/// remaining evaluable forms. A row is `(data declarations, function
/// source, Int arguments, readings)`; see [`readings`].
///
/// These numbers are part of the governance contract: a trapped event is
/// rolled back and replayed, so fuel, allocation and depth traps must land
/// on exactly the same events whatever the evaluator's internals are. The
/// values were recorded with the syntax-walking evaluator that compiled
/// evaluation (`eval_big::Code`) replaced, and did not change with it.
type PinnedRow = (&'static str, &'static str, &'static [i64], [u64; 5]);

const PINNED: &[PinnedRow] = &[
    // Scalar1
    ("", "(\\a -> a + 3)", &[5], [4, 1, 2, 3, 4]),
    ("", "(\\a -> a - 4)", &[5], [4, 1, 2, 3, 4]),
    ("", "(\\a -> a * 2)", &[5], [4, 1, 2, 3, 4]),
    ("", "(\\a -> if a < 0 then 0 - a else a)", &[-5], [8, 1, 3, 7, 8]),
    ("", "(\\a -> if a < 0 then 0 - a else a)", &[5], [6, 1, 3, 5, 8]),
    ("", "(\\a -> a % 7)", &[50], [4, 1, 2, 3, 4]),
    // Scalar2
    ("", "(\\a b -> a + b)", &[3, 4], [5, 2, 2, 7, 5]),
    ("", "(\\a b -> a - b)", &[3, 4], [5, 2, 2, 7, 5]),
    ("", "(\\a b -> if a < b then b else a)", &[3, 4], [7, 2, 3, 11, 10]),
    ("", "(\\a b -> if a < b then b else a)", &[4, 3], [7, 2, 3, 11, 10]),
    ("", "(\\a b -> a + b * 3)", &[3, 4], [7, 2, 3, 11, 11]),
    // Fold
    ("", "(\\e n -> n + 1)", &[9, 41], [5, 2, 2, 7, 5]),
    ("", "(\\e n -> n + ((if e < 0 then 0 - e else e) % 5))", &[-7, 10], [13, 2, 5, 23, 26]),
    ("", "(\\e n -> e + 2)", &[9, 41], [5, 2, 2, 7, 5]),
    ("", "(\\e n -> e - 3)", &[9, 41], [5, 2, 2, 7, 5]),
    ("", "(\\e n -> if e == 7777777 then ((let t = \\f y -> f (f y) in (t (t (t (\\n -> n + 1))))) 0) else n + 1)", &[1, 41], [9, 2, 3, 15, 10]),
    ("", "(\\e n -> if e == 7777777 then ((let t = \\f y -> f (f y) in (t (t (t (\\n -> n + 1))))) 0) else n + 1)", &[7777777, 41], [79, 8, 10, 541, 161]),
    // The remaining evaluable forms.
    ("", "\\x -> let add = \\a b -> a + b in let inc = add 1 in inc (inc x)", &[4], [19, 5, 6, 72, 42]),
    ("", "\\x -> let x = x + 1 in let f = \\y -> x + y in let x = 100 in f x", &[4], [15, 5, 6, 46, 42]),
    ("", "\\x -> fst (x, 1) + snd (2, x)", &[4], [10, 3, 4, 17, 13]),
    ("", "\\x -> length [\"ab\" ++ \"cd\", \"e\"] + x", &[4], [9, 16, 5, 48, 19]),
    ("", "\\x -> head (tail [x, x + 1, x + 2]) + ith 1 (x :: [7])", &[4], [18, 12, 6, 89, 27]),
    ("", "\\x -> let r = {a = x, b = x * 2} in r.a + r.b", &[4], [12, 5, 4, 43, 14]),
    ("data MaybeInt = Just Int | Nothing", "\\x -> case (if x > 0 then Just x else Nothing) of | Just n -> n + 1 | Nothing -> 0", &[4], [11, 3, 4, 18, 13]),
    ("data MaybeInt = Just Int | Nothing", "\\x -> case (if x > 0 then Just x else Nothing) of | Just n -> n + 1 | Nothing -> 0", &[-4], [8, 2, 4, 8, 13]),
];

/// `(depth, readings)` for the `interpreter` bench workload at each
/// benched depth, applied to `21` and `2`.
const PINNED_BENCH: &[(usize, [u64; 5])] = &[
    (1, [11, 3, 4, 22, 16]),
    (8, [53, 10, 18, 239, 205]),
    (32, [197, 34, 66, 2471, 2341]),
];

/// Source of the `interpreter` bench workload at `depth`.
fn bench_workload(depth: usize) -> String {
    let mut body = String::from("x + y");
    for k in 0..depth {
        body = format!("let t{k} = ({body}) * 2 in t{k} - {k}");
    }
    format!("\\x y -> {body}")
}

fn pinned_expr(data: &str, src: &str) -> felm::ast::Expr {
    if data.is_empty() {
        return parse_expr(src).expect("pinned source parses");
    }
    let prog = felm::parser::parse_program(&format!("{data}\nmain = {src}")).unwrap();
    let adts = felm::env::Adts::from_defs(&prog.datas).unwrap();
    adts.resolve(&prog.to_expr().unwrap()).unwrap()
}

/// Evaluates `e` and applies the result to `args`, all under one meter.
fn apply_all(e: &felm::ast::Expr, args: &[i64], meter: &mut Meter) -> Result<RtValue, EvalError> {
    let mut cur = eval_metered(&Env::empty(), e, meter)?;
    for a in args {
        cur = apply_metered(cur, RtValue::Int(*a), meter)?;
    }
    Ok(cur)
}

/// Runs `e` applied to `args` under `budget`, returning the meter after
/// it finished or trapped.
fn run_under(
    e: &felm::ast::Expr,
    args: &[i64],
    budget: Budget,
) -> (Result<RtValue, EvalError>, Meter) {
    let mut m = Meter::new(budget);
    let r = apply_all(e, args, &mut m);
    (r, m)
}

/// One application under a given budget: whether it completed, and the
/// meter after it finished or trapped.
type Run<'a> = dyn Fn(Budget) -> (Result<(), EvalError>, Meter) + 'a;

/// [`run_under`] as a [`Run`]: evaluate `e`, then apply it to one
/// argument at a time.
fn curried(e: &felm::ast::Expr, args: &[i64]) -> impl Fn(Budget) -> (Result<(), EvalError>, Meter) {
    let (e, args) = (e.clone(), args.to_vec());
    move |budget| {
        let (r, m) = run_under(&e, &args, budget);
        (r.map(drop), m)
    }
}

/// A node entry point: `apply_node` or `apply_node_boxed`.
type Apply = fn(&Code, &[&Value], &mut Meter) -> Result<Value, EvalError>;

/// `e` applied to `args` through a node entry point, the way a graph node
/// applies its function.
fn node_entry(
    apply: Apply,
    e: &felm::ast::Expr,
    args: &[Value],
) -> impl Fn(Budget) -> (Result<(), EvalError>, Meter) {
    let (code, args) = (compile(e), args.to_vec());
    move |budget| {
        let mut m = Meter::new(budget);
        let refs: Vec<&Value> = args.iter().collect();
        let r = apply(&code, &refs, &mut m).map(drop);
        (r, m)
    }
}

fn ints(args: &[i64]) -> Vec<Value> {
    args.iter().map(|&n| Value::Int(n)).collect()
}

/// The meter's readings for one application:
///
/// 1. fuel used,
/// 2. cells allocated,
/// 3. the smallest depth budget under which it completes,
/// 4. the sum, over every fuel budget that traps, of the cells allocated
///    when it traps, and
/// 5. the sum, over every depth budget that traps, of the fuel used when
///    it traps.
///
/// The last two pin the order of the meter's `tick`, `alloc` and `enter`
/// calls, not just their totals.
fn readings(run: &Run) -> [u64; 5] {
    let (result, m) = run(Budget::UNLIMITED);
    result.expect("pinned corpus evaluates");
    let depth_budget = |max_depth| Budget {
        max_depth,
        ..Budget::UNLIMITED
    };
    let depth = (1..)
        .find(|&d| run(depth_budget(d)).0.is_ok())
        .expect("some depth suffices");
    let alloc_at_fuel_traps = (0..m.fuel_used())
        .map(|fuel| run(Budget::with_fuel(fuel)).1.alloc_cells())
        .sum();
    let fuel_at_depth_traps = (0..depth).map(|d| run(depth_budget(d)).1.fuel_used()).sum();
    [
        m.fuel_used(),
        m.alloc_cells(),
        depth,
        alloc_at_fuel_traps,
        fuel_at_depth_traps,
    ]
}

/// Checks one pinned row: the readings match, and one unit less of the
/// fuel, allocation or depth budget traps on that dimension.
fn check_pinned(label: &str, e: &felm::ast::Expr, args: &[i64], want: [u64; 5]) {
    check_run(label, &curried(e, args), want);
}

/// [`check_pinned`] for any [`Run`].
fn check_run(label: &str, run: &Run, want: [u64; 5]) {
    assert_eq!(readings(run), want, "{label}");
    let [fuel, alloc, depth, ..] = want;
    let trap = |budget: Budget| run(budget).0.unwrap_err();
    assert_eq!(
        trap(Budget::with_fuel(fuel - 1)),
        EvalError::Trap(Trap::OutOfFuel),
        "{label}"
    );
    if alloc > 0 {
        let budget = Budget {
            max_alloc_cells: alloc - 1,
            ..Budget::UNLIMITED
        };
        assert_eq!(trap(budget), EvalError::Trap(Trap::OutOfMemory), "{label}");
    }
    let budget = Budget {
        max_depth: depth - 1,
        ..Budget::UNLIMITED
    };
    assert_eq!(
        trap(budget),
        EvalError::Trap(Trap::DepthExceeded),
        "{label}"
    );
}

#[test]
fn meter_readings_are_pinned() {
    for &(data, src, args, want) in PINNED {
        check_pinned(src, &pinned_expr(data, src), args, want);
    }
    for &(d, want) in PINNED_BENCH {
        let e = parse_expr(&bench_workload(d)).unwrap();
        check_pinned(&format!("bench depth {d}"), &e, &[21, 2], want);
    }
}

/// A graph node applies its function through `apply_node`, which binds
/// the parent values into one frame and takes the Int lane when it can.
/// Both node paths must meter exactly like the curried application the
/// pinned rows record.
#[test]
fn node_entry_gives_the_pinned_readings() {
    let mut int_closed = 0;
    for &(data, src, args, want) in PINNED {
        let e = pinned_expr(data, src);
        int_closed += compile(&e).is_int_closed() as usize;
        for (path, apply) in [("lane", apply_node as Apply), ("boxed", apply_node_boxed)] {
            let run = node_entry(apply, &e, &ints(args));
            check_run(&format!("{path}: {src}"), &run, want);
        }
    }
    assert_eq!(
        int_closed, 15,
        "the scalar and fold rows run on the Int lane"
    );
    for &(d, want) in PINNED_BENCH {
        let e = parse_expr(&bench_workload(d)).unwrap();
        assert!(compile(&e).is_int_closed());
        for (path, apply) in [("lane", apply_node as Apply), ("boxed", apply_node_boxed)] {
            let run = node_entry(apply, &e, &ints(&[21, 2]));
            check_run(&format!("{path}: bench depth {d}"), &run, want);
        }
    }
}

/// An int-closed body over `params`: Int literals, the parameters, every
/// operator but `++` and `::`, `if` and `let`.
fn int_closed_body(rng: &mut rand::rngs::StdRng, depth: usize, scope: &mut Vec<String>) -> String {
    use rand::Rng;
    if depth == 0 || rng.gen_bool(0.2) {
        return match scope.len() {
            n if n > 0 && rng.gen_bool(0.6) => scope[rng.gen_range(0..n)].clone(),
            _ => format!("{}", rng.gen_range(0i64..10)),
        };
    }
    let d = depth - 1;
    match rng.gen_range(0u32..4) {
        0 | 1 => {
            const OPS: [&str; 13] = [
                "+", "-", "*", "/", "%", "==", "/=", "<", "<=", ">", ">=", "&&", "||",
            ];
            let op = OPS[rng.gen_range(0..OPS.len())];
            let a = int_closed_body(rng, d, scope);
            let b = int_closed_body(rng, d, scope);
            format!("({a} {op} {b})")
        }
        2 => {
            let c = int_closed_body(rng, d, scope);
            let t = int_closed_body(rng, d, scope);
            let f = int_closed_body(rng, d, scope);
            format!("(if {c} then {t} else {f})")
        }
        _ => {
            let value = int_closed_body(rng, d, scope);
            // Reusing a parameter's name shadows it.
            let name = ["t", "u", "a", "n"][rng.gen_range(0usize..4)].to_string();
            scope.push(name.clone());
            let body = int_closed_body(rng, d, scope);
            scope.pop();
            format!("(let {name} = {value} in {body})")
        }
    }
}

/// `\a n -> body` or `\e n -> body`; the latter never reads `e`, which
/// the test feeds a `Unit`, as `foldp` over `Mouse.clicks` does.
fn int_closed_node() -> BoxedStrategy<(String, bool)> {
    BoxedStrategy::from_fn(|rng| {
        use rand::Rng;
        let unit_event = rng.gen_bool(0.3);
        let mut scope = if unit_event {
            vec!["n".to_string()]
        } else {
            vec!["a".to_string(), "n".to_string()]
        };
        let body = int_closed_body(rng, 4, &mut scope);
        let first = if unit_event { "e" } else { "a" };
        (format!("\\{first} n -> {body}"), unit_event)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn int_lane_agrees_with_the_slot_path_and_the_spec(
        node in int_closed_node(),
        a in -30i64..30,
        n in -30i64..30,
    ) {
        let (src, unit_event) = node;
        let f = parse_expr(&src).expect("generated function parses");
        let code = compile(&f);
        prop_assert!(code.is_int_closed(), "{}", src);
        let first = if unit_event { Value::Unit } else { Value::Int(a) };
        let args = [first, Value::Int(n)];
        let refs = [&args[0], &args[1]];

        let lane = apply_node(&code, &refs, &mut Meter::unlimited()).expect("total body");
        let boxed = apply_node_boxed(&code, &refs, &mut Meter::unlimited()).expect("total body");
        prop_assert_eq!(&lane, &boxed, "{}", src);
        prop_assert_eq!(&lane, &apply_function_small_step(&f, &args), "{}", src);

        let lane = readings(&node_entry(apply_node, &f, &args));
        let boxed = readings(&node_entry(apply_node_boxed, &f, &args));
        prop_assert_eq!(lane, boxed, "{}", src);
    }
}
