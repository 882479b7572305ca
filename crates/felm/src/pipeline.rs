//! The full FElm pipeline: parse → typecheck → normalize → extract →
//! translate.
//!
//! [`compile_source`] strings the stages together, producing either a plain
//! value (for non-reactive programs) or a runnable
//! [`elm_runtime::SignalGraph`]. This is the front half of the
//! Elm-to-JavaScript compiler (`elm-compiler` reuses it for code
//! generation) and the engine behind the interpreter examples.

use std::fmt;

use elm_runtime::{SignalGraph, Value};

use crate::ast::Type;
use crate::check::TypeError;
use crate::env::{Adts, InputEnv};
use crate::eval::{normalize, EvalError, DEFAULT_FUEL};
use crate::infer::infer_type_with;
use crate::intermediate::{FinalTerm, IlError, SignalTerm};
use crate::parser::{parse_program, ParseError};
use crate::translate::{expr_to_value, translate, TranslateError};

/// The stack a thread that compiles untrusted sources starts with. At
/// [`crate::parser::MAX_NESTING`] the deepest measured programs (nested
/// parentheses, `let`s, operators, lambda parameters, top-level
/// definitions) need about 2.3 MiB in a release build and 27 MiB in a
/// debug build; this leaves more than twice that.
pub const COMPILE_STACK_BYTES: usize = 64 << 20;

/// Any failure along the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// Lexing / parsing failed.
    Parse(ParseError),
    /// Type checking failed.
    Type(TypeError),
    /// Stage-one evaluation failed (impossible for well-typed programs).
    Eval(EvalError),
    /// The normal form violated the intermediate-language grammar.
    Intermediate(IlError),
    /// Graph construction failed.
    Translate(TranslateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::Eval(e) => write!(f, "{e}"),
            CompileError::Intermediate(e) => write!(f, "{e}"),
            CompileError::Translate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<EvalError> for CompileError {
    fn from(e: EvalError) -> Self {
        CompileError::Eval(e)
    }
}

impl From<IlError> for CompileError {
    fn from(e: IlError) -> Self {
        CompileError::Intermediate(e)
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        CompileError::Translate(e)
    }
}

/// What a program denotes after both evaluation stages.
#[derive(Clone, Debug)]
pub enum ProgramResult {
    /// The program is pure: `main` is a plain value.
    Value(Value),
    /// The program is reactive: `main` is a signal graph.
    Reactive(SignalGraph),
}

/// A fully compiled program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The inferred type of `main`.
    pub program_type: Type,
    /// The program's `data` declarations.
    pub adts: Adts,
    /// The validated intermediate term (for inspection / codegen).
    pub final_term: FinalTerm,
    /// The runnable result.
    pub result: ProgramResult,
}

impl CompiledProgram {
    /// The signal graph, if the program is reactive.
    pub fn graph(&self) -> Option<&SignalGraph> {
        match &self.result {
            ProgramResult::Reactive(g) => Some(g),
            ProgramResult::Value(_) => None,
        }
    }
}

/// Compiles a whole FElm program (definitions + `main`).
///
/// # Errors
///
/// Returns the first error from any pipeline stage.
///
/// ```
/// use felm::{env::InputEnv, pipeline::compile_source};
/// let p = compile_source(
///     "main = lift2 (\\y z -> y / z) Mouse.x Window.width",
///     &InputEnv::standard(),
/// ).unwrap();
/// assert!(p.graph().is_some());
/// ```
pub fn compile_source(src: &str, env: &InputEnv) -> Result<CompiledProgram, CompileError> {
    let program = parse_program(src)?;
    let adts = Adts::from_defs(&program.datas)?;
    let expr = program.to_expr()?;
    // Resolve bare constructor references against the declarations before
    // typing and evaluation.
    let expr = adts.resolve(&expr)?;
    let program_type = infer_type_with(env, &adts, &expr)?;
    let normal = normalize(&expr, DEFAULT_FUEL)?;
    let final_term = FinalTerm::from_expr(&normal)?;
    let result = match &final_term {
        FinalTerm::Value(v) => {
            let value = expr_to_value(v).unwrap_or(Value::Unit);
            ProgramResult::Value(value)
        }
        FinalTerm::Signal(s) => ProgramResult::Reactive(build_graph(s, env)?),
    };
    Ok(CompiledProgram {
        program_type,
        adts,
        final_term,
        result,
    })
}

fn build_graph(term: &SignalTerm, env: &InputEnv) -> Result<SignalGraph, CompileError> {
    Ok(translate(term, env)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elm_runtime::{changed_values, Occurrence, SyncRuntime};

    #[test]
    fn compiles_the_slideshow_skeleton() {
        // Paper Fig. 14 (sans graphics): count clicks, pick an index.
        let src = "\
count s = foldp (\\x c -> c + 1) 0 s
index1 = count Mouse.clicks
main = lift (\\i -> i % 3) index1";
        let p = compile_source(src, &InputEnv::standard()).unwrap();
        assert_eq!(p.program_type, Type::signal(Type::Int));
        let g = p.graph().unwrap();
        let clicks = g.input_named("Mouse.clicks").unwrap();
        let outs =
            SyncRuntime::run_trace(g, (0..5).map(|_| Occurrence::input(clicks, Value::Unit)))
                .unwrap();
        assert_eq!(
            changed_values(&outs),
            [1, 2, 0, 1, 2].map(Value::Int).to_vec()
        );
    }

    #[test]
    fn pure_programs_compile_to_values() {
        let p = compile_source("main = 6 * 7", &InputEnv::standard()).unwrap();
        assert_eq!(p.program_type, Type::Int);
        let ProgramResult::Value(v) = &p.result else {
            panic!()
        };
        assert_eq!(v, &Value::Int(42));
        assert!(p.graph().is_none());
    }

    #[test]
    fn each_stage_reports_errors() {
        let env = InputEnv::standard();
        assert!(matches!(
            compile_source("main = ((", &env),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile_source("main = 1 + ()", &env),
            Err(CompileError::Type(_))
        ));
        assert!(matches!(
            compile_source("main = lift (\\x -> Mouse.x) Mouse.y", &env),
            Err(CompileError::Type(_))
        ));
        assert!(matches!(
            compile_source("x = 1", &env),
            Err(CompileError::Parse(_))
        ));
    }

    #[test]
    fn programs_nested_past_the_bound_are_refused() {
        let deep = |n: usize| format!("main = {}1{}", "(".repeat(n), ")".repeat(n));
        let defs = |n: usize| {
            let mut src: String = (0..n).map(|i| format!("f{i} = {i}\n")).collect();
            src.push_str("main = f0");
            src
        };
        let compiled = std::thread::Builder::new()
            .stack_size(COMPILE_STACK_BYTES)
            .spawn(move || {
                let env = InputEnv::standard();
                [deep(550), deep(100_000), defs(810), defs(1000)]
                    .map(|src| compile_source(&src, &env).map_err(|e| e.to_string()))
            })
            .unwrap()
            .join()
            .unwrap();
        let [shallow, deep, few, many] = compiled;
        assert!(shallow.is_ok() && few.is_ok(), "{shallow:?} {few:?}");
        for refused in [deep, many] {
            let message = refused.unwrap_err();
            assert!(message.contains("nests deeper than 900"), "{message}");
        }
    }

    #[test]
    fn example3_wiring_compiles_with_async() {
        // §2 Example 3's structure with the HTTP fetch replaced by string
        // work (the environment crate supplies the real mock service).
        let src = "\
getImage tags = lift (\\t -> \"img:\" ++ t) tags
scene = \\a -> \\b -> (a, b)
main = lift2 scene Mouse.x (async (getImage Words.input))";
        let p = compile_source(src, &InputEnv::standard()).unwrap();
        let g = p.graph().unwrap();
        assert_eq!(g.async_sources().len(), 1);
        assert_eq!(
            p.program_type,
            Type::signal(Type::pair(Type::Int, Type::Str))
        );
    }
}
