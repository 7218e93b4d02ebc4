//! Recursive-descent parser for the mini-DML dialect.
//!
//! Precedence (loosest to tightest), mirroring R/DML:
//! `|` < `&` < comparisons < `+ -` < `* / %*%` < unary `- !` < `^` < call.

use crate::ast::{Arg, BinOp, Expr, Program, Stmt, UnaryOp};
use crate::lexer::{lex, LexError, Token, TokenKind};
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Deepest nesting [`parse`] accepts, counted two ways: groups (blocks,
/// parentheses, call arguments and exponents) open inside one another, and
/// operators stack on their operands. Parsing and evaluation recurse once
/// per level, so bounding both keeps any script within a 2 MiB stack.
pub const MAX_DEPTH: usize = 256;

/// Parse a whole script.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        groups: 0,
    };
    let statements = p.statements_until(TokenKind::Eof)?;
    Ok(Program { statements })
}

/// A parsed expression and its height in operators.
type Parsed = Result<(Expr, usize), ParseError>;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Groups open around the current token.
    groups: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        let t = self.next();
        if t.kind == kind {
            Ok(t)
        } else {
            Err(ParseError {
                line: t.line,
                message: format!("expected {kind}, found {}", t.kind),
            })
        }
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            line: self.peek().line,
            message: format!("nested deeper than {MAX_DEPTH} levels"),
        }
    }

    /// `f` parsed inside one more group.
    fn group<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.groups == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.groups += 1;
        let r = f(self);
        self.groups -= 1;
        r
    }

    /// The height of an operator over operands `h` operators high.
    fn stack(&self, h: usize) -> Result<usize, ParseError> {
        if h == MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(h + 1)
    }

    fn statements_until(&mut self, end: TokenKind) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.eat(&TokenKind::Semicolon) {}
            if self.peek().kind == end {
                self.next();
                return Ok(out);
            }
            if self.peek().kind == TokenKind::Eof {
                let t = self.peek();
                return Err(ParseError {
                    line: t.line,
                    message: format!("expected {end} before end of input"),
                });
            }
            out.push(self.statement()?);
        }
    }

    /// `{ statements }`.
    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        self.group(|p| p.statements_until(TokenKind::RBrace))
    }

    /// `( expr )` after `while` or `if`.
    fn condition(&mut self) -> Result<Expr, ParseError> {
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        Ok(cond)
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek().line;
        match self.peek().kind.clone() {
            TokenKind::While => {
                self.next();
                let cond = self.condition()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::If => {
                self.next();
                let cond = self.condition()?;
                let then_body = self.block()?;
                let else_body = if self.eat(&TokenKind::Else) {
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            TokenKind::Ident(name)
                // Assignment (ident '=') or expression statement.
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Assign) => {
                    self.next(); // ident
                    self.next(); // '='
                    let value = self.expr()?;
                    Ok(Stmt::Assign { name, value, line })
                }
            _ => {
                let value = self.expr()?;
                Ok(Stmt::Expr { value, line })
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.or_expr()?.0)
    }

    /// A left-associative chain `next (op next)*` of the operators `op`
    /// maps tokens to.
    fn chain(
        &mut self,
        op: fn(&TokenKind) -> Option<BinOp>,
        next: fn(&mut Self) -> Parsed,
    ) -> Parsed {
        let (mut lhs, mut h) = next(self)?;
        while let Some(op) = op(&self.peek().kind) {
            self.next();
            let (rhs, rh) = next(self)?;
            h = self.stack(h.max(rh))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, h))
    }

    fn or_expr(&mut self) -> Parsed {
        self.chain(
            |k| (k == &TokenKind::Or).then_some(BinOp::Or),
            Self::and_expr,
        )
    }

    fn and_expr(&mut self) -> Parsed {
        self.chain(
            |k| (k == &TokenKind::And).then_some(BinOp::And),
            Self::cmp_expr,
        )
    }

    fn cmp_expr(&mut self) -> Parsed {
        let (lhs, lh) = self.add_expr()?;
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok((lhs, lh)),
        };
        self.next();
        let (rhs, rh) = self.add_expr()?;
        let h = self.stack(lh.max(rh))?;
        Ok((Expr::Binary(op, Box::new(lhs), Box::new(rhs)), h))
    }

    fn add_expr(&mut self) -> Parsed {
        self.chain(
            |k| match k {
                TokenKind::Plus => Some(BinOp::Add),
                TokenKind::Minus => Some(BinOp::Sub),
                _ => None,
            },
            Self::mul_expr,
        )
    }

    fn mul_expr(&mut self) -> Parsed {
        self.chain(
            |k| match k {
                TokenKind::Star => Some(BinOp::Mul),
                TokenKind::Slash => Some(BinOp::Div),
                TokenKind::MatMul => Some(BinOp::MatMul),
                _ => None,
            },
            Self::unary_expr,
        )
    }

    /// Prefix operators, read in a loop: their height bounds them.
    fn unary_expr(&mut self) -> Parsed {
        let mut ops = Vec::new();
        loop {
            let op = match self.peek().kind {
                TokenKind::Minus => UnaryOp::Neg,
                TokenKind::Not => UnaryOp::Not,
                _ => break,
            };
            self.next();
            ops.push(op);
        }
        let (mut e, mut h) = self.pow_expr()?;
        for op in ops.into_iter().rev() {
            h = self.stack(h)?;
            e = Expr::Unary(op, Box::new(e));
        }
        Ok((e, h))
    }

    fn pow_expr(&mut self) -> Parsed {
        let (base, bh) = self.postfix_expr()?;
        if !self.eat(&TokenKind::Caret) {
            return Ok((base, bh));
        }
        // Right-associative: the exponent nests like a group.
        let (exp, eh) = self.group(Self::unary_expr)?;
        let h = self.stack(bh.max(eh))?;
        Ok((Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)), h))
    }

    fn postfix_expr(&mut self) -> Parsed {
        let t = self.next();
        match t.kind {
            TokenKind::Number(v) => Ok((Expr::Number(v), 0)),
            TokenKind::Str(s) => Ok((Expr::Str(s), 0)),
            TokenKind::Ident(name) => {
                if !self.eat(&TokenKind::LParen) {
                    return Ok((Expr::Ident(name), 0));
                }
                let (args, h) = self.group(Self::call_args)?;
                Ok((Expr::Call { name, args }, h))
            }
            TokenKind::LParen => {
                let e = self.group(Self::or_expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(ParseError {
                line: t.line,
                message: format!("expected an expression, found {other}"),
            }),
        }
    }

    /// A call's arguments through its closing `)`, with their height.
    fn call_args(&mut self) -> Result<(Vec<Arg>, usize), ParseError> {
        let mut args = Vec::new();
        let mut h = 0;
        if self.eat(&TokenKind::RParen) {
            return Ok((args, h));
        }
        loop {
            // Named argument: ident '=' expr (but not '==').
            let mut name = None;
            if let TokenKind::Ident(n) = self.peek().kind.clone() {
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Assign) {
                    self.pos += 2;
                    name = Some(n);
                }
            }
            let (value, vh) = self.or_expr()?;
            args.push(Arg { name, value });
            h = h.max(vh);
            if self.eat(&TokenKind::RParen) {
                return Ok((args, h));
            }
            self.expect(TokenKind::Comma)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr_of(src: &str) -> Expr {
        let prog = parse(src).unwrap();
        match prog.statements.into_iter().next().unwrap() {
            Stmt::Assign { value, .. } | Stmt::Expr { value, .. } => value,
            other => panic!("unexpected statement {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = expr_of("x = a + b * c");
        let Expr::Binary(BinOp::Add, _, rhs) = e else {
            panic!("expected +, got {e:?}")
        };
        assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn matmul_binds_like_mul() {
        let e = expr_of("q = t(V) %*% y + z");
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn pow_is_right_associative_and_tight() {
        let e = expr_of("x = tolerance ^ 2");
        assert!(matches!(e, Expr::Binary(BinOp::Pow, _, _)));
        let e = expr_of("x = -a ^ 2"); // -(a^2) in R
        let Expr::Unary(UnaryOp::Neg, inner) = e else {
            panic!("expected unary neg")
        };
        assert!(matches!(*inner, Expr::Binary(BinOp::Pow, _, _)));
    }

    #[test]
    fn named_arguments() {
        let e = expr_of("w = matrix(0, rows=ncol(V), cols=1)");
        let Expr::Call { name, args } = e else {
            panic!()
        };
        assert_eq!(name, "matrix");
        assert_eq!(args.len(), 3);
        assert_eq!(args[1].name.as_deref(), Some("rows"));
        assert!(matches!(args[1].value, Expr::Call { .. }));
    }

    #[test]
    fn while_and_if_blocks() {
        let prog = parse(
            "i = 0\n\
             while (i < 10 & nr2 > t) {\n\
               i = i + 1;\n\
               if (i == 5) { j = 1 } else { j = 2 }\n\
             }",
        )
        .unwrap();
        assert_eq!(prog.statements.len(), 2);
        let Stmt::While { body, .. } = &prog.statements[1] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
        assert!(matches!(body[1], Stmt::If { .. }));
    }

    #[test]
    fn parses_full_listing1() {
        let src = include_str!("listing1.dml");
        let prog = parse(src).unwrap();
        assert!(prog.statements.len() > 10);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("a = 1\nb = *").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unclosed_block_is_an_error() {
        assert!(parse("while (a < b) { x = 1").is_err());
    }
}
