//! Recursive-descent parser for FElm.
//!
//! The concrete syntax follows the paper's examples: top-level definitions
//! (`name args = expr`, one per line, `main` distinguished), lambdas
//! (`\x y -> e`, optionally annotated `\(x : Int) -> e`), `let … in`,
//! `if … then … else`, the signal primitives `liftN`, `foldp`, `async`, and
//! qualified input names like `Mouse.x`.
//!
//! `liftN`, `foldp`, and `async` are primitive syntactic forms that take
//! all their operands at once (as in Fig. 3), not curried functions.

use std::fmt;

use crate::ast::{BinOp, CaseBranch, DataDef, Expr, ExprKind, ListOp, Pattern, SignalPrimOp, Type};
use crate::span::Span;
use crate::token::{lex, LexError, SpannedToken, Token};

/// The deepest a program may nest. It bounds the parser's own recursion
/// (parentheses, lambda parameters, `let`/`if`/`case` bodies, operator,
/// application and field chains, types) and the depth of the desugared
/// expression, in which each top-level definition adds a `let` level.
/// Every later stage (constructor resolution, inference, normalization,
/// translation) recurses over that expression, so a program that nests
/// deeper is refused with a parse error instead of overflowing the
/// compiling thread's stack. Chosen by measurement: without the bound, a
/// release build compiling on a 2 MiB thread overflowed at about 550
/// nested parentheses and at about 810 levels of every other measured
/// shape (`let`s, operators, `if`s, lambda parameters, definitions), so
/// every program that compiled there stays under it. At the bound the
/// deepest measured shapes need about 2.3 MiB of stack in a release
/// build and 27 MiB in a debug build; a thread that compiles untrusted
/// sources starts with [`crate::pipeline::COMPILE_STACK_BYTES`].
pub const MAX_NESTING: usize = 900;

/// A parse failure with location.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the problem is.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        let span = match e {
            LexError::UnexpectedChar(_, s)
            | LexError::UnterminatedString(s)
            | LexError::UnterminatedComment(s)
            | LexError::BadNumber(_, s) => s,
        };
        ParseError {
            message: e.to_string(),
            span,
        }
    }
}

/// A top-level definition `name = expr`.
#[derive(Clone, Debug, PartialEq)]
pub struct Def {
    /// The defined name.
    pub name: String,
    /// The right-hand side (parameters already desugared to lambdas).
    pub body: Expr,
}

/// A parsed program: `data` declarations plus an ordered list of value
/// definitions, one of which should be `main`.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Algebraic data type declarations, in source order.
    pub datas: Vec<DataDef>,
    /// Definitions in source order.
    pub defs: Vec<Def>,
}

impl Program {
    /// Desugars the program into a single expression: earlier definitions
    /// become nested `let`s scoping over later ones, with `main`'s body as
    /// the final body.
    ///
    /// # Errors
    ///
    /// Fails if the program has no `main` definition.
    pub fn to_expr(&self) -> Result<Expr, ParseError> {
        let main_ix = self
            .defs
            .iter()
            .position(|d| d.name == "main")
            .ok_or_else(|| ParseError {
                message: "program has no `main` definition".into(),
                span: Span::dummy(),
            })?;
        // Each definition sits under one `let` per definition before it.
        for (lets, def) in self.defs[..=main_ix].iter().enumerate() {
            if lets + 1 + def.body.depth() > MAX_NESTING {
                return Err(too_deep(def.body.span));
            }
        }
        let main_body = self.defs[main_ix].body.clone();
        let mut expr = main_body;
        for def in self.defs[..main_ix].iter().rev() {
            let span = def.body.span;
            expr = Expr::new(
                ExprKind::Let {
                    name: def.name.clone(),
                    value: Box::new(def.body.clone()),
                    body: Box::new(expr),
                },
                span,
            );
        }
        Ok(expr)
    }
}

fn too_deep(span: Span) -> ParseError {
    ParseError {
        message: format!("the program nests deeper than {MAX_NESTING} levels"),
        span,
    }
}

/// Parses a complete program (one definition per top-level line).
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// ```
/// use felm::parser::parse_program;
/// let prog = parse_program("double x = x + x\nmain = lift double Mouse.x").unwrap();
/// assert_eq!(prog.defs.len(), 2);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut defs = Vec::new();
    let mut datas = Vec::new();
    p.skip_newlines();
    while !p.at(&Token::Eof) {
        if p.at(&Token::Data) {
            datas.push(p.data_def()?);
        } else {
            defs.push(p.definition()?);
        }
        if !p.at(&Token::Eof) {
            p.expect(&Token::Newline)?;
            p.skip_newlines();
        }
    }
    Ok(Program { datas, defs })
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.skip_newlines();
    let e = p.expr()?;
    p.skip_newlines();
    p.expect(&Token::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Nesting levels open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> SpannedToken {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, t: &Token) -> bool {
        self.peek() == t
    }

    fn skip_newlines(&mut self) {
        while self.at(&Token::Newline) {
            self.bump();
        }
    }

    fn expect(&mut self, t: &Token) -> Result<SpannedToken, ParseError> {
        if self.at(t) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    /// Opens `levels` more levels of nesting; the caller closes them once
    /// it has built its node.
    fn nest(&mut self, levels: usize) -> Result<(), ParseError> {
        self.depth += levels;
        if self.depth > MAX_NESTING {
            return Err(too_deep(self.peek_span()));
        }
        Ok(())
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.peek_span(),
        }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            Token::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    // ---- definitions -----------------------------------------------------

    /// A capitalized single-segment name (constructor or type name).
    fn upper_ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            Token::QualIdent(name) if !name.contains('.') => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(self.error(format!("expected a capitalized name, found `{other}`"))),
        }
    }

    /// `data Name = Ctor T1 T2 | Ctor2 | …`
    fn data_def(&mut self) -> Result<DataDef, ParseError> {
        self.expect(&Token::Data)?;
        let (name, _) = self.upper_ident()?;
        self.expect(&Token::Equals)?;
        let mut ctors = Vec::new();
        loop {
            let (ctor, _) = self.upper_ident()?;
            let mut args = Vec::new();
            while self.starts_type_atom() {
                args.push(self.ty_atom()?);
            }
            ctors.push((ctor, args));
            if self.at(&Token::Pipe) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(DataDef { name, ctors })
    }

    fn starts_type_atom(&self) -> bool {
        matches!(
            self.peek(),
            Token::QualIdent(_) | Token::LParen | Token::LBracket | Token::LBrace
        )
    }

    fn definition(&mut self) -> Result<Def, ParseError> {
        let (name, _span) = self.ident()?;
        let mut params = Vec::new();
        while let Token::Ident(_) = self.peek() {
            params.push(self.ident()?.0);
        }
        self.expect(&Token::Equals)?;
        self.nest(params.len())?;
        let mut body = self.expr()?;
        self.depth -= params.len();
        for p in params.into_iter().rev() {
            let span = body.span;
            body = Expr::new(
                ExprKind::Lam {
                    param: p,
                    ann: None,
                    body: Box::new(body),
                },
                span,
            );
        }
        Ok(Def { name, body })
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nest(1)?;
        let e = self.expr_form();
        self.depth -= 1;
        e
    }

    fn expr_form(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Backslash => self.lambda(),
            Token::Let => self.let_expr(),
            Token::If => self.if_expr(),
            Token::Case => self.case_expr(),
            _ => self.binary(0),
        }
    }

    /// `case e of | pat -> body | pat -> body …` (a leading `|` before the
    /// first branch is required, keeping the grammar layout-free).
    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&Token::Case)?.span;
        let scrutinee = self.expr()?;
        self.skip_newlines();
        self.expect(&Token::Of)?;
        let mut branches = Vec::new();
        // Newlines before a `|` continue the case; otherwise they separate
        // top-level definitions and must be left for the program parser.
        loop {
            let mark = self.pos;
            self.skip_newlines();
            if !self.at(&Token::Pipe) {
                self.pos = mark;
                break;
            }
            self.bump();
            let pattern = self.pattern()?;
            self.expect(&Token::Arrow)?;
            let body = self.expr()?;
            branches.push(CaseBranch { pattern, body });
        }
        if branches.is_empty() {
            return Err(self.error("case needs at least one `| pattern -> body` branch".into()));
        }
        let span = start.to(branches.last().map(|b| b.body.span).unwrap_or(start));
        Ok(Expr::new(
            ExprKind::Case {
                scrutinee: Box::new(scrutinee),
                branches,
            },
            span,
        ))
    }

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().clone() {
            Token::QualIdent(name) if !name.contains('.') => {
                self.bump();
                let mut binders = Vec::new();
                while let Token::Ident(_) = self.peek() {
                    binders.push(self.ident()?.0);
                }
                Ok(Pattern::Ctor { name, binders })
            }
            Token::Ident(name) => {
                self.bump();
                if name == "_" {
                    Ok(Pattern::Wildcard)
                } else {
                    Ok(Pattern::Var(name))
                }
            }
            other => Err(self.error(format!("expected a pattern, found `{other}`"))),
        }
    }

    fn lambda(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&Token::Backslash)?.span;
        let mut params: Vec<(String, Option<Type>)> = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Ident(_) => {
                    let (name, _) = self.ident()?;
                    params.push((name, None));
                }
                Token::LParen => {
                    // `\(x : T) -> e`
                    self.bump();
                    let (name, _) = self.ident()?;
                    self.expect(&Token::Colon)?;
                    let ty = self.ty()?;
                    self.expect(&Token::RParen)?;
                    params.push((name, Some(ty)));
                }
                Token::Arrow => break,
                other => {
                    return Err(self.error(format!(
                        "expected parameter or `->` in lambda, found `{other}`"
                    )))
                }
            }
        }
        if params.is_empty() {
            return Err(self.error("lambda needs at least one parameter".into()));
        }
        self.expect(&Token::Arrow)?;
        self.nest(params.len())?;
        let mut body = self.expr()?;
        self.depth -= params.len();
        let span = start.to(body.span);
        for (p, ann) in params.into_iter().rev() {
            body = Expr::new(
                ExprKind::Lam {
                    param: p,
                    ann,
                    body: Box::new(body),
                },
                span,
            );
        }
        Ok(body)
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&Token::Let)?.span;
        let (name, _) = self.ident()?;
        let mut params = Vec::new();
        while let Token::Ident(_) = self.peek() {
            params.push(self.ident()?.0);
        }
        self.expect(&Token::Equals)?;
        self.nest(params.len())?;
        let mut value = self.expr()?;
        self.depth -= params.len();
        for p in params.into_iter().rev() {
            let span = value.span;
            value = Expr::new(
                ExprKind::Lam {
                    param: p,
                    ann: None,
                    body: Box::new(value),
                },
                span,
            );
        }
        self.skip_newlines();
        self.expect(&Token::In)?;
        let body = self.expr()?;
        let span = start.to(body.span);
        Ok(Expr::new(
            ExprKind::Let {
                name,
                value: Box::new(value),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn if_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&Token::If)?.span;
        let cond = self.expr()?;
        self.expect(&Token::Then)?;
        let then = self.expr()?;
        self.expect(&Token::Else)?;
        let els = self.expr()?;
        let span = start.to(els.span);
        Ok(Expr::new(
            ExprKind::If(Box::new(cond), Box::new(then), Box::new(els)),
            span,
        ))
    }

    /// Operator precedence climbing. Levels, loosest first:
    /// `||` < `&&` < comparisons < `++ ::` (right-assoc) < `+ -` < `* / %`.
    /// Parses the operands and the operators of level `min_level` or
    /// tighter; one frame per operand, whatever the level.
    fn binary(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        const LEVELS: [&[&str]; 6] = [
            &["||"],
            &["&&"],
            &["==", "/=", "<", "<=", ">", ">="],
            &["++", "::"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        const RIGHT_ASSOC_LEVEL: u8 = 3;
        let mut lhs = self.application()?;
        let depth = self.depth;
        while let Token::Op(sym) = *self.peek() {
            let level = match LEVELS.iter().position(|ops| ops.contains(&sym)) {
                Some(level) if level as u8 >= min_level => level as u8,
                _ => break,
            };
            self.bump();
            self.nest(1)?;
            // `::` (and `++`, harmlessly) associate to the right:
            // 1 :: 2 :: [] is 1 :: (2 :: []).
            let rhs = if level == RIGHT_ASSOC_LEVEL {
                self.binary(level)?
            } else {
                self.binary(level + 1)?
            };
            let span = lhs.span.to(rhs.span);
            let op = BinOp::from_symbol(sym).expect("lexer produces known operators");
            lhs = Expr::new(ExprKind::BinOp(op, Box::new(lhs), Box::new(rhs)), span);
        }
        self.depth = depth;
        Ok(lhs)
    }

    /// Juxtaposition application, plus the primitive forms that consume a
    /// fixed number of operands (`liftN`, `foldp`, `async`, `fst`, `snd`).
    fn application(&mut self) -> Result<Expr, ParseError> {
        let head = self.operand()?;
        let mut expr = head;
        let depth = self.depth;
        while self.starts_atom() {
            self.nest(1)?;
            let arg = self.atom()?;
            let span = expr.span.to(arg.span);
            expr = Expr::new(ExprKind::App(Box::new(expr), Box::new(arg)), span);
        }
        self.depth = depth;
        Ok(expr)
    }

    /// One operand: either a primitive form with its operands, or an atom.
    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Lift(n) => {
                let start = self.bump().span;
                let func = self.atom()?;
                let mut args = Vec::with_capacity(n);
                for k in 0..n {
                    if !self.starts_atom() {
                        return Err(self.error(format!(
                            "lift{n} needs {n} signal argument(s), found only {k}"
                        )));
                    }
                    args.push(self.atom()?);
                }
                let span = start.to(args.last().map(|a| a.span).unwrap_or(func.span));
                Ok(Expr::new(
                    ExprKind::Lift {
                        func: Box::new(func),
                        args,
                    },
                    span,
                ))
            }
            Token::Foldp => {
                let start = self.bump().span;
                let func = self.atom()?;
                let init = self.atom()?;
                let signal = self.atom()?;
                let span = start.to(signal.span);
                Ok(Expr::new(
                    ExprKind::Foldp {
                        func: Box::new(func),
                        init: Box::new(init),
                        signal: Box::new(signal),
                    },
                    span,
                ))
            }
            Token::Async => {
                let start = self.bump().span;
                let inner = self.atom()?;
                let span = start.to(inner.span);
                Ok(Expr::new(ExprKind::Async(Box::new(inner)), span))
            }
            Token::Fst => {
                let start = self.bump().span;
                let inner = self.atom()?;
                let span = start.to(inner.span);
                Ok(Expr::new(ExprKind::Fst(Box::new(inner)), span))
            }
            Token::Snd => {
                let start = self.bump().span;
                let inner = self.atom()?;
                let span = start.to(inner.span);
                Ok(Expr::new(ExprKind::Snd(Box::new(inner)), span))
            }
            Token::Head | Token::Tail | Token::IsEmpty | Token::Length => {
                let t = self.bump();
                let op = match t.token {
                    Token::Head => ListOp::Head,
                    Token::Tail => ListOp::Tail,
                    Token::IsEmpty => ListOp::IsEmpty,
                    Token::Length => ListOp::Length,
                    _ => unreachable!(),
                };
                let inner = self.atom()?;
                let span = t.span.to(inner.span);
                Ok(Expr::new(ExprKind::ListOp(op, Box::new(inner)), span))
            }
            Token::Ith => {
                let start = self.bump().span;
                let index = self.atom()?;
                let list = self.atom()?;
                let span = start.to(list.span);
                Ok(Expr::new(
                    ExprKind::Ith(Box::new(index), Box::new(list)),
                    span,
                ))
            }
            Token::Merge | Token::SampleOn | Token::DropRepeats | Token::KeepIf => {
                let t = self.bump();
                let op = match t.token {
                    Token::Merge => SignalPrimOp::Merge,
                    Token::SampleOn => SignalPrimOp::SampleOn,
                    Token::DropRepeats => SignalPrimOp::DropRepeats,
                    Token::KeepIf => SignalPrimOp::KeepIf,
                    _ => unreachable!(),
                };
                let mut args = Vec::with_capacity(op.arity());
                for k in 0..op.arity() {
                    if !self.starts_atom() {
                        return Err(self.error(format!(
                            "{} needs {} operand(s), found only {k}",
                            op.keyword(),
                            op.arity()
                        )));
                    }
                    args.push(self.atom()?);
                }
                let span = t.span.to(args.last().map(|a| a.span).unwrap_or(t.span));
                Ok(Expr::new(ExprKind::SignalPrim { op, args }, span))
            }
            _ => self.atom(),
        }
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::Ident(_)
                | Token::QualIdent(_)
                | Token::LParen
                | Token::LBracket
                | Token::LBrace
                | Token::Lift(_)
                | Token::Foldp
                | Token::Async
                | Token::Fst
                | Token::Snd
                | Token::Head
                | Token::Tail
                | Token::IsEmpty
                | Token::Length
                | Token::Ith
                | Token::Merge
                | Token::SampleOn
                | Token::DropRepeats
                | Token::KeepIf
        )
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let base = self.atom_base()?;
        self.postfix(base)
    }

    /// `.field` postfix chains: `r.pos.x`.
    fn postfix(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        let depth = self.depth;
        while self.at(&Token::Dot) {
            self.bump();
            self.nest(1)?;
            let (field, span) = self.ident()?;
            let full = e.span.to(span);
            e = Expr::new(ExprKind::Field(Box::new(e), field), full);
        }
        self.depth = depth;
        Ok(e)
    }

    fn atom_base(&mut self) -> Result<Expr, ParseError> {
        let t = self.bump();
        let span = t.span;
        match t.token {
            Token::Int(n) => Ok(Expr::new(ExprKind::Int(n), span)),
            Token::Float(x) => Ok(Expr::new(ExprKind::Float(x), span)),
            Token::Str(s) => Ok(Expr::new(ExprKind::Str(s), span)),
            Token::Ident(name) => Ok(Expr::new(ExprKind::Var(name), span)),
            Token::QualIdent(name) => {
                if name.contains('.') {
                    Ok(Expr::new(ExprKind::Input(name), span))
                } else {
                    // A bare capitalized name is a constructor reference,
                    // resolved against the program's `data` declarations.
                    Ok(Expr::new(ExprKind::Ctor(name), span))
                }
            }
            Token::LParen => {
                if self.at(&Token::RParen) {
                    let end = self.bump().span;
                    return Ok(Expr::new(ExprKind::Unit, span.to(end)));
                }
                let first = self.expr()?;
                if self.at(&Token::Comma) {
                    self.bump();
                    let second = self.expr()?;
                    let end = self.expect(&Token::RParen)?.span;
                    Ok(Expr::new(
                        ExprKind::Pair(Box::new(first), Box::new(second)),
                        span.to(end),
                    ))
                } else {
                    self.expect(&Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBrace => {
                let mut fields = Vec::new();
                if self.at(&Token::RBrace) {
                    let end = self.bump().span;
                    return Ok(Expr::new(ExprKind::Record(fields), span.to(end)));
                }
                loop {
                    let (name, _) = self.ident()?;
                    self.expect(&Token::Equals)?;
                    let value = self.expr()?;
                    fields.push((name, value));
                    if self.at(&Token::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let end = self.expect(&Token::RBrace)?.span;
                Ok(Expr::new(ExprKind::Record(fields), span.to(end)))
            }
            Token::LBracket => {
                let mut items = Vec::new();
                if self.at(&Token::RBracket) {
                    let end = self.bump().span;
                    return Ok(Expr::new(ExprKind::List(items), span.to(end)));
                }
                loop {
                    items.push(self.expr()?);
                    if self.at(&Token::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let end = self.expect(&Token::RBracket)?.span;
                Ok(Expr::new(ExprKind::List(items), span.to(end)))
            }
            Token::Lift(_)
            | Token::Foldp
            | Token::Async
            | Token::Fst
            | Token::Snd
            | Token::Head
            | Token::Tail
            | Token::IsEmpty
            | Token::Length
            | Token::Ith
            | Token::Merge
            | Token::SampleOn
            | Token::DropRepeats
            | Token::KeepIf => {
                // Primitive forms are operands, handled one level up; they
                // reach here only in argument position without parentheses.
                Err(ParseError {
                    message: format!(
                        "`{}` with its operands must be parenthesized in argument position",
                        t.token
                    ),
                    span,
                })
            }
            other => Err(ParseError {
                message: format!("expected an expression, found `{other}`"),
                span,
            }),
        }
    }

    // ---- types -------------------------------------------------------------

    fn ty(&mut self) -> Result<Type, ParseError> {
        let lhs = self.ty_atom()?;
        if !self.at(&Token::Arrow) {
            return Ok(lhs);
        }
        self.bump();
        self.nest(1)?;
        let rhs = self.ty();
        self.depth -= 1;
        rhs.map(|rhs| Type::fun(lhs, rhs))
    }

    fn ty_atom(&mut self) -> Result<Type, ParseError> {
        self.nest(1)?;
        let ty = self.ty_atom_inner();
        self.depth -= 1;
        ty
    }

    fn ty_atom_inner(&mut self) -> Result<Type, ParseError> {
        let t = self.bump();
        match t.token {
            Token::QualIdent(name) => match name.as_str() {
                "Int" => Ok(Type::Int),
                "Float" => Ok(Type::Float),
                "String" => Ok(Type::Str),
                "Signal" => {
                    let inner = self.ty_atom()?;
                    Ok(Type::signal(inner))
                }
                other if !other.contains('.') => Ok(Type::Named(other.to_string())),
                other => Err(ParseError {
                    message: format!("unknown type name `{other}`"),
                    span: t.span,
                }),
            },
            Token::LParen => {
                if self.at(&Token::RParen) {
                    self.bump();
                    return Ok(Type::Unit);
                }
                let first = self.ty()?;
                if self.at(&Token::Comma) {
                    self.bump();
                    let second = self.ty()?;
                    self.expect(&Token::RParen)?;
                    Ok(Type::pair(first, second))
                } else {
                    self.expect(&Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBracket => {
                let inner = self.ty()?;
                self.expect(&Token::RBracket)?;
                Ok(Type::list(inner))
            }
            Token::LBrace => {
                let mut fields = Vec::new();
                if !self.at(&Token::RBrace) {
                    loop {
                        let (name, _) = self.ident()?;
                        self.expect(&Token::Colon)?;
                        let ty = self.ty()?;
                        fields.push((name, ty));
                        if self.at(&Token::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Token::RBrace)?;
                Ok(Type::record(fields))
            }
            other => Err(ParseError {
                message: format!("expected a type, found `{other}`"),
                span: t.span,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExprKind as K;

    fn pe(src: &str) -> Expr {
        parse_expr(src).unwrap()
    }

    #[test]
    fn parses_fig7_expression() {
        let e = pe("lift2 (\\y z -> y / z) Mouse.x Window.width");
        let K::Lift { func, args } = &e.kind else {
            panic!("expected lift: {e:?}")
        };
        assert!(matches!(func.kind, K::Lam { .. }));
        assert_eq!(args.len(), 2);
        assert!(matches!(&args[0].kind, K::Input(n) if n == "Mouse.x"));
        assert!(matches!(&args[1].kind, K::Input(n) if n == "Window.width"));
    }

    #[test]
    fn application_is_left_associative_and_binds_tighter_than_ops() {
        let e = pe("f x + g y");
        let K::BinOp(BinOp::Add, l, r) = &e.kind else {
            panic!("expected +: {e:?}")
        };
        assert!(matches!(l.kind, K::App(..)));
        assert!(matches!(r.kind, K::App(..)));

        let e = pe("f x y");
        let K::App(fx, _y) = &e.kind else { panic!() };
        assert!(matches!(fx.kind, K::App(..)));
    }

    #[test]
    fn operator_precedence_levels() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let e = pe("1 + 2 * 3");
        let K::BinOp(BinOp::Add, _, r) = &e.kind else {
            panic!()
        };
        assert!(matches!(r.kind, K::BinOp(BinOp::Mul, ..)));
        // a == b && c parses as (a == b) && c
        let e = pe("a == b && c");
        let K::BinOp(BinOp::And, l, _) = &e.kind else {
            panic!()
        };
        assert!(matches!(l.kind, K::BinOp(BinOp::Eq, ..)));
    }

    #[test]
    fn lambda_sugar_and_annotations() {
        let e = pe("\\x y -> x + y");
        let K::Lam { param, body, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(param, "x");
        assert!(matches!(body.kind, K::Lam { .. }));

        let e = pe("\\(x : Int) -> x");
        let K::Lam { ann, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(ann, &Some(Type::Int));
    }

    #[test]
    fn let_with_params_and_if() {
        let e = pe("let add a b = a + b in if add 1 2 then 1 else 0");
        let K::Let { name, value, body } = &e.kind else {
            panic!()
        };
        assert_eq!(name, "add");
        assert!(matches!(value.kind, K::Lam { .. }));
        assert!(matches!(body.kind, K::If(..)));
    }

    #[test]
    fn foldp_and_async_forms() {
        let e = pe("foldp (\\k c -> c + 1) 0 Keyboard.lastPressed");
        assert!(matches!(e.kind, K::Foldp { .. }));
        let e = pe("async (lift f Mouse.y)");
        let K::Async(inner) = &e.kind else { panic!() };
        assert!(matches!(inner.kind, K::Lift { .. }));
    }

    #[test]
    fn pairs_units_and_projections() {
        assert!(matches!(pe("()").kind, K::Unit));
        assert!(matches!(pe("(1, 2)").kind, K::Pair(..)));
        assert!(matches!(pe("fst (1, 2)").kind, K::Fst(..)));
        assert!(matches!(pe("snd (1, 2)").kind, K::Snd(..)));
    }

    #[test]
    fn lift_requires_exact_arity() {
        let err = parse_expr("lift2 f Mouse.x").unwrap_err();
        assert!(err.message.contains("lift2 needs 2"));
    }

    #[test]
    fn unparenthesized_primitive_in_argument_position_errors() {
        let err = parse_expr("f async s").unwrap_err();
        assert!(err.message.contains("parenthesized"));
    }

    #[test]
    fn program_parsing_and_desugaring() {
        let src = "\
double x = x + x
count s = foldp (\\x c -> c + 1) 0 s
main = lift double Mouse.x";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.defs.len(), 3);
        assert_eq!(prog.defs[0].name, "double");
        let expr = prog.to_expr().unwrap();
        // main body wrapped in lets for double and count.
        let K::Let { name, body, .. } = &expr.kind else {
            panic!()
        };
        assert_eq!(name, "double");
        let K::Let { name, .. } = &body.kind else {
            panic!()
        };
        assert_eq!(name, "count");
    }

    #[test]
    fn program_without_main_is_rejected_at_desugar() {
        let prog = parse_program("x = 1").unwrap();
        assert!(prog.to_expr().is_err());
    }

    #[test]
    fn multiline_definitions_with_continuations() {
        let src = "\
scene input pos =
  (input, pos)
main =
  lift2 (\\a b -> (a, b)) Mouse.x Mouse.y";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.defs.len(), 2);
    }

    #[test]
    fn type_annotations_parse_signal_types() {
        let e = pe("\\(f : Int -> Int) -> f");
        let K::Lam { ann, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(ann, &Some(Type::fun(Type::Int, Type::Int)));

        let e = pe("\\(s : Signal (Int, Int)) -> s");
        let K::Lam { ann, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(ann, &Some(Type::signal(Type::pair(Type::Int, Type::Int))));
    }
}
