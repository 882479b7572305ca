//! Theorem 1 (Type Soundness and Normalization), property-tested.
//!
//! "If Γinput ⊢ e : t then e →* u and Γinput ⊢ u : t for some final term
//! u." We generate random *well-typed-by-construction* FElm terms, then
//! check machine-verifiable consequences of the theorem:
//!
//! 1. the declarative checker (Fig. 4) accepts the term at its target
//!    type, and inference agrees;
//! 2. stage-one evaluation normalizes (no stuck states, bounded fuel);
//! 3. the normal form is a *final term* and satisfies the Fig. 5
//!    intermediate-language grammar;
//! 4. preservation: the normal form has the same type;
//! 5. the pretty-printer round-trips the generated term through the
//!    parser.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use felm::ast::{BinOp, CaseBranch, DataDef, Expr, ExprKind, Pattern, Type};
use felm::check::type_of_with;
use felm::env::{Adts, InputEnv};
use felm::eval::{is_final, normalize, DEFAULT_FUEL};
use felm::infer::infer_type_with;
use felm::intermediate::FinalTerm;
use felm::parser::parse_expr;
use felm::pretty::pretty;

/// The fixed ADT universe available to generated terms:
/// `data Shade = Dark | Bright Int`.
fn test_adts() -> Adts {
    Adts::from_defs(&[DataDef {
        name: "Shade".to_string(),
        ctors: vec![
            ("Dark".to_string(), vec![]),
            ("Bright".to_string(), vec![Type::Int]),
        ],
    }])
    .expect("valid test ADTs")
}

/// Generator context: variables in scope with their types.
struct Gen {
    rng: StdRng,
    counter: u32,
}

impl Gen {
    fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("v{}", self.counter)
    }

    /// Picks a random simple type (small).
    fn simple_type(&mut self) -> Type {
        match self.rng.gen_range(0..7) {
            0 => Type::Int,
            1 => Type::Str,
            2 => Type::pair(Type::Int, Type::Int),
            3 => Type::list(Type::Int),
            4 => Type::record([("x".to_string(), Type::Int), ("y".to_string(), Type::Str)]),
            5 => Type::Named("Shade".to_string()),
            _ => Type::fun(Type::Int, Type::Int),
        }
    }

    /// Generates an expression of type `ty` using `ctx`.
    fn expr(&mut self, ty: &Type, ctx: &[(String, Type)], depth: u32) -> Expr {
        // Prefer a variable of the right type sometimes.
        if depth == 0 || self.rng.gen_bool(0.25) {
            let candidates: Vec<&(String, Type)> = ctx.iter().filter(|(_, t)| t == ty).collect();
            if !candidates.is_empty() && self.rng.gen_bool(0.7) {
                let (name, _) = candidates[self.rng.gen_range(0..candidates.len())];
                return Expr::synth(ExprKind::Var(name.clone()));
            }
            return self.leaf(ty, ctx, depth);
        }
        match self.rng.gen_range(0..5) {
            0 => self.leaf(ty, ctx, depth),
            // let x = e1 in e2
            1 => {
                let bound_ty = self.simple_type();
                let value = self.expr(&bound_ty, ctx, depth - 1);
                let name = self.fresh();
                let mut ctx2 = ctx.to_vec();
                ctx2.push((name.clone(), bound_ty));
                let body = self.expr(ty, &ctx2, depth - 1);
                Expr::synth(ExprKind::Let {
                    name,
                    value: Box::new(value),
                    body: Box::new(body),
                })
            }
            // if c then t else f (both branches at ty)
            2 => {
                let c = self.expr(&Type::Int, ctx, depth - 1);
                let t = self.expr(ty, ctx, depth - 1);
                let f = self.expr(ty, ctx, depth - 1);
                Expr::synth(ExprKind::If(Box::new(c), Box::new(t), Box::new(f)))
            }
            // application of a generated lambda
            3 => {
                let arg_ty = self.simple_type();
                let param = self.fresh();
                let mut ctx2 = ctx.to_vec();
                ctx2.push((param.clone(), arg_ty.clone()));
                let body = self.expr(ty, &ctx2, depth - 1);
                let lam = Expr::synth(ExprKind::Lam {
                    param,
                    ann: Some(arg_ty.clone()),
                    body: Box::new(body),
                });
                let arg = self.expr(&arg_ty, ctx, depth - 1);
                Expr::synth(ExprKind::App(Box::new(lam), Box::new(arg)))
            }
            _ => self.structured(ty, ctx, depth),
        }
    }

    fn leaf(&mut self, ty: &Type, ctx: &[(String, Type)], depth: u32) -> Expr {
        match ty {
            Type::Int => Expr::synth(ExprKind::Int(self.rng.gen_range(-9..10))),
            Type::Str => Expr::synth(ExprKind::Str(
                ["a", "b", "xyz", ""][self.rng.gen_range(0..4usize)].to_string(),
            )),
            Type::Unit => Expr::synth(ExprKind::Unit),
            Type::Pair(a, b) => Expr::synth(ExprKind::Pair(
                Box::new(self.leaf(a, ctx, depth)),
                Box::new(self.leaf(b, ctx, depth)),
            )),
            Type::List(elem) => {
                let n = self.rng.gen_range(0..4);
                Expr::synth(ExprKind::List(
                    (0..n).map(|_| self.leaf(elem, ctx, depth)).collect(),
                ))
            }
            Type::Record(fields) => Expr::synth(ExprKind::Record(
                fields
                    .iter()
                    .map(|(name, ty)| (name.clone(), self.leaf(ty, ctx, depth)))
                    .collect(),
            )),
            Type::Fun(a, b) => {
                let param = self.fresh();
                let mut ctx2 = ctx.to_vec();
                ctx2.push((param.clone(), (**a).clone()));
                let body = if depth == 0 {
                    self.leaf(b, &ctx2, 0)
                } else {
                    self.expr(b, &ctx2, depth - 1)
                };
                Expr::synth(ExprKind::Lam {
                    param,
                    ann: Some((**a).clone()),
                    body: Box::new(body),
                })
            }
            Type::Signal(payload) => self.signal(payload, ctx, depth),
            Type::Float => Expr::synth(ExprKind::Float(1.5)),
            Type::Named(_) => {
                // Shade leaves.
                if self.rng.gen_bool(0.5) {
                    Expr::synth(ExprKind::CtorApp("Dark".to_string(), vec![]))
                } else {
                    Expr::synth(ExprKind::CtorApp(
                        "Bright".to_string(),
                        vec![self.leaf(&Type::Int, ctx, depth)],
                    ))
                }
            }
            Type::Var(_) => unreachable!("generator uses ground types"),
        }
    }

    fn structured(&mut self, ty: &Type, ctx: &[(String, Type)], depth: u32) -> Expr {
        match ty {
            Type::Int => match self.rng.gen_range(0..4) {
                3 => self.case_over_shade(ty, ctx, depth),
                0 => {
                    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
                    let op = ops[self.rng.gen_range(0..ops.len())];
                    Expr::synth(ExprKind::BinOp(
                        op,
                        Box::new(self.expr(&Type::Int, ctx, depth - 1)),
                        Box::new(self.expr(&Type::Int, ctx, depth - 1)),
                    ))
                }
                1 => {
                    if self.rng.gen_bool(0.5) {
                        Expr::synth(ExprKind::Fst(Box::new(self.expr(
                            &Type::pair(Type::Int, Type::Int),
                            ctx,
                            depth - 1,
                        ))))
                    } else {
                        let rec_ty = Type::record([
                            ("x".to_string(), Type::Int),
                            ("y".to_string(), Type::Str),
                        ]);
                        Expr::synth(ExprKind::Field(
                            Box::new(self.expr(&rec_ty, ctx, depth - 1)),
                            "x".to_string(),
                        ))
                    }
                }
                _ => Expr::synth(ExprKind::BinOp(
                    BinOp::Lt,
                    Box::new(self.expr(&Type::Int, ctx, depth - 1)),
                    Box::new(self.expr(&Type::Int, ctx, depth - 1)),
                )),
            },
            Type::Str => Expr::synth(ExprKind::BinOp(
                BinOp::Append,
                Box::new(self.expr(&Type::Str, ctx, depth - 1)),
                Box::new(self.expr(&Type::Str, ctx, depth - 1)),
            )),
            Type::Pair(a, b) => Expr::synth(ExprKind::Pair(
                Box::new(self.expr(a, ctx, depth - 1)),
                Box::new(self.expr(b, ctx, depth - 1)),
            )),
            Type::Record(fields) => Expr::synth(ExprKind::Record(
                fields
                    .iter()
                    .map(|(name, ty)| (name.clone(), self.expr(ty, ctx, depth - 1)))
                    .collect(),
            )),
            Type::Named(_) => {
                if self.rng.gen_bool(0.5) {
                    Expr::synth(ExprKind::CtorApp(
                        "Bright".to_string(),
                        vec![self.expr(&Type::Int, ctx, depth - 1)],
                    ))
                } else {
                    // A case producing a Shade from a Shade.
                    self.case_over_shade(ty, ctx, depth)
                }
            }
            Type::List(elem) => match self.rng.gen_range(0..3) {
                // cons onto a generated list
                0 => Expr::synth(ExprKind::BinOp(
                    BinOp::Cons,
                    Box::new(self.expr(elem, ctx, depth - 1)),
                    Box::new(self.expr(ty, ctx, depth - 1)),
                )),
                // a nonempty literal (so head/tail stay total elsewhere)
                1 => {
                    let n = self.rng.gen_range(1..4);
                    Expr::synth(ExprKind::List(
                        (0..n).map(|_| self.expr(elem, ctx, depth - 1)).collect(),
                    ))
                }
                _ => self.leaf(ty, ctx, depth),
            },
            other => self.leaf(other, ctx, depth),
        }
    }

    /// Generates a signal expression of payload type `payload`.
    fn signal(&mut self, payload: &Type, ctx: &[(String, Type)], depth: u32) -> Expr {
        let sig_ty = Type::signal(payload.clone());
        // Existing signal variable?
        let candidates: Vec<&(String, Type)> = ctx.iter().filter(|(_, t)| *t == sig_ty).collect();
        if !candidates.is_empty() && self.rng.gen_bool(0.3) {
            let (name, _) = candidates[self.rng.gen_range(0..candidates.len())];
            return Expr::synth(ExprKind::Var(name.clone()));
        }
        if depth == 0 {
            return self.input_for(payload);
        }
        match self.rng.gen_range(0..5) {
            // lift1 f s
            0 => {
                let from = if self.rng.gen_bool(0.5) {
                    Type::Int
                } else {
                    payload.clone()
                };
                let f = self.leaf(&Type::fun(from.clone(), payload.clone()), ctx, depth - 1);
                let s = self.signal(&from, ctx, depth - 1);
                Expr::synth(ExprKind::Lift {
                    func: Box::new(f),
                    args: vec![s],
                })
            }
            // lift2 f s1 s2
            1 => {
                let f = self.leaf(
                    &Type::fun(Type::Int, Type::fun(Type::Int, payload.clone())),
                    ctx,
                    depth - 1,
                );
                let s1 = self.signal(&Type::Int, ctx, depth - 1);
                let s2 = self.signal(&Type::Int, ctx, depth - 1);
                Expr::synth(ExprKind::Lift {
                    func: Box::new(f),
                    args: vec![s1, s2],
                })
            }
            // foldp f b s
            2 => {
                let f = self.leaf(
                    &Type::fun(Type::Int, Type::fun(payload.clone(), payload.clone())),
                    ctx,
                    depth - 1,
                );
                let b = self.expr(payload, ctx, depth - 1);
                let s = self.signal(&Type::Int, ctx, depth - 1);
                Expr::synth(ExprKind::Foldp {
                    func: Box::new(f),
                    init: Box::new(b),
                    signal: Box::new(s),
                })
            }
            // async s
            3 => Expr::synth(ExprKind::Async(Box::new(self.signal(
                payload,
                ctx,
                depth - 1,
            )))),
            // let x = s in <signal using x>
            _ => {
                let inner_payload = if self.rng.gen_bool(0.5) {
                    Type::Int
                } else {
                    payload.clone()
                };
                let bound = self.signal(&inner_payload, ctx, depth - 1);
                let name = self.fresh();
                let mut ctx2 = ctx.to_vec();
                ctx2.push((name.clone(), Type::signal(inner_payload)));
                let body = self.signal(payload, &ctx2, depth - 1);
                Expr::synth(ExprKind::Let {
                    name,
                    value: Box::new(bound),
                    body: Box::new(body),
                })
            }
        }
    }

    /// `case <Shade expr> of | Bright b -> e | Dark -> e` at target `ty`.
    fn case_over_shade(&mut self, ty: &Type, ctx: &[(String, Type)], depth: u32) -> Expr {
        let scrutinee = self.expr(&Type::Named("Shade".to_string()), ctx, depth - 1);
        let binder = self.fresh();
        let mut ctx2 = ctx.to_vec();
        ctx2.push((binder.clone(), Type::Int));
        let bright_body = self.expr(ty, &ctx2, depth - 1);
        let dark_body = self.expr(ty, ctx, depth - 1);
        Expr::synth(ExprKind::Case {
            scrutinee: Box::new(scrutinee),
            branches: vec![
                CaseBranch {
                    pattern: Pattern::Ctor {
                        name: "Bright".to_string(),
                        binders: vec![binder],
                    },
                    body: bright_body,
                },
                CaseBranch {
                    pattern: Pattern::Ctor {
                        name: "Dark".to_string(),
                        binders: vec![],
                    },
                    body: dark_body,
                },
            ],
        })
    }

    fn input_for(&mut self, payload: &Type) -> Expr {
        let name = match payload {
            Type::Int => ["Mouse.x", "Mouse.y", "Window.width", "Keyboard.lastPressed"]
                [self.rng.gen_range(0..4usize)],
            Type::Str => "Words.input",
            Type::Pair(_, _) => "Mouse.position",
            Type::Unit => "Mouse.clicks",
            other => panic!("no standard input for payload {other}"),
        };
        Expr::synth(ExprKind::Input(name.to_string()))
    }
}

fn generated_term(seed: u64) -> (Expr, Type) {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        counter: 0,
    };
    let reactive = gen.rng.gen_bool(0.6);
    let ty = if reactive {
        let payload = match gen.rng.gen_range(0..3) {
            0 => Type::Int,
            1 => Type::Str,
            _ => Type::pair(Type::Int, Type::Int),
        };
        Type::signal(payload)
    } else {
        gen.simple_type()
    };
    let depth = gen.rng.gen_range(1..5);
    let e = gen.expr(&ty, &[], depth);
    (e, ty)
}

#[test]
fn theorem1_holds_on_generated_terms() {
    let env = InputEnv::standard();
    let adts = test_adts();
    for seed in 0..600u64 {
        let (e, ty) = generated_term(seed);

        // (1) Well typed at the target type, by both type systems.
        let checked = type_of_with(&env, &adts, &e)
            .unwrap_or_else(|err| panic!("seed {seed}: checker rejected: {err}\n{}", pretty(&e)));
        assert_eq!(
            checked,
            ty,
            "seed {seed}: unexpected type for {}",
            pretty(&e)
        );
        let inferred = infer_type_with(&env, &adts, &e)
            .unwrap_or_else(|err| panic!("seed {seed}: inference rejected: {err}"));
        assert_eq!(inferred, ty, "seed {seed}: inference disagrees");

        // (2) Normalizes within fuel.
        let normal = normalize(&e, DEFAULT_FUEL)
            .unwrap_or_else(|err| panic!("seed {seed}: evaluation failed: {err}\n{}", pretty(&e)));

        // (3) Final term in the Fig. 5 grammar.
        assert!(
            is_final(&normal),
            "seed {seed}: not final: {}",
            pretty(&normal)
        );
        FinalTerm::from_expr(&normal)
            .unwrap_or_else(|err| panic!("seed {seed}: IL violation: {err}"));

        // (4) Preservation.
        let normal_ty = type_of_with(&env, &adts, &normal).unwrap_or_else(|err| {
            panic!(
                "seed {seed}: normal form ill-typed: {err}\nsource: {}\nnormal: {}",
                pretty(&e),
                pretty(&normal)
            )
        });
        assert_eq!(normal_ty, ty, "seed {seed}: type not preserved");
    }
}

#[test]
fn pretty_printer_round_trips_generated_terms() {
    let env = InputEnv::standard();
    let adts = test_adts();
    for seed in 0..400u64 {
        let (e, _ty) = generated_term(seed);
        let printed = pretty(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("seed {seed}: reparse failed: {err}\n{printed}"));
        // Reparsing yields bare `Ctor` references where the generator made
        // saturated applications; resolve before comparing.
        let reparsed = adts.resolve(&reparsed).unwrap();
        // Semantic equality: same type and same normal form.
        assert_eq!(
            type_of_with(&env, &adts, &e).unwrap(),
            type_of_with(&env, &adts, &reparsed).unwrap(),
            "seed {seed}"
        );
        let n1 = normalize(&e, DEFAULT_FUEL).unwrap();
        let n2 = normalize(&reparsed, DEFAULT_FUEL).unwrap();
        // Negative integer literals have no surface syntax (they print as
        // `(0 - n)`), so compare at the printer's fixed point: one extra
        // print→parse cycle canonicalizes both sides.
        let canon = |n: &Expr| {
            let reparsed = parse_expr(&pretty(n)).expect("printed normal forms re-parse");
            pretty(&adts.resolve(&reparsed).unwrap())
        };
        assert_eq!(
            canon(&n1),
            canon(&n2),
            "seed {seed}: normal forms differ after round trip"
        );
    }
}

/// The environment-based big-step interpreter agrees with the Fig. 6
/// small-step machine on all generated data-typed terms.
#[test]
fn big_step_agrees_with_small_step() {
    use felm::eval_big::{eval, Env};
    use felm::translate::expr_to_value;

    let mut compared = 0;
    for seed in 0..600u64 {
        let (e, ty) = generated_term(seed);
        if !matches!(
            ty,
            Type::Int
                | Type::Str
                | Type::Pair(_, _)
                | Type::List(_)
                | Type::Record(_)
                | Type::Named(_)
        ) {
            continue;
        }
        let normal = normalize(&e, DEFAULT_FUEL).unwrap();
        let small = expr_to_value(&normal).expect("data-typed result");
        let big = eval(&Env::empty(), &e).unwrap();
        assert_eq!(
            small,
            big,
            "seed {seed}: interpreters disagree on {}",
            pretty(&e)
        );
        compared += 1;
    }
    assert!(
        compared > 100,
        "expected many data-typed terms, got {compared}"
    );
}

#[test]
fn generated_reactive_terms_translate_and_run() {
    use elm_runtime::{Occurrence, SyncRuntime, Value};
    use felm::translate::translate;

    let env = InputEnv::standard();
    let mut ran = 0;
    for seed in 0..200u64 {
        let (e, ty) = generated_term(seed);
        if !matches!(ty, Type::Signal(_)) {
            continue;
        }
        let normal = normalize(&e, DEFAULT_FUEL).unwrap();
        let FinalTerm::Signal(term) = FinalTerm::from_expr(&normal).unwrap() else {
            // A signal-typed term can still be a let over a value body.
            continue;
        };
        let graph = translate(&term, &env)
            .unwrap_or_else(|err| panic!("seed {seed}: translation failed: {err}"));
        // Drive every declared input once; must not panic or get stuck.
        let mut rt = SyncRuntime::new(&graph);
        for node in graph.nodes() {
            if let elm_runtime::NodeKind::Input { name } = &node.kind {
                let v = env
                    .get(name)
                    .map(|d| d.default.clone())
                    .unwrap_or(Value::Unit);
                rt.feed(Occurrence::input(node.id, v)).unwrap();
            }
        }
        rt.run_to_quiescence();
        ran += 1;
    }
    assert!(ran > 50, "expected many runnable reactive terms, got {ran}");
}
