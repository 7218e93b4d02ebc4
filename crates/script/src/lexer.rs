//! Lexer for the mini-DML dialect — the language of the paper's Listing 1
//! (SystemML's DML), restricted to the constructs its ML scripts use.

use std::fmt;

/// A token with its 1-based line number (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Ident(String),
    Number(f64),
    Str(String),
    // operators
    MatMul, // %*%
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Assign, // =
    Eq,     // ==
    Ne,     // !=
    Lt,
    Le,
    Gt,
    Ge,
    And, // &
    Or,  // |
    Not, // !
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semicolon,
    // keywords
    While,
    If,
    Else,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Number(v) => write!(f, "number {v}"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::MatMul => write!(f, "'%*%'"),
            TokenKind::Plus => write!(f, "'+'"),
            TokenKind::Minus => write!(f, "'-'"),
            TokenKind::Star => write!(f, "'*'"),
            TokenKind::Slash => write!(f, "'/'"),
            TokenKind::Caret => write!(f, "'^'"),
            TokenKind::Assign => write!(f, "'='"),
            TokenKind::Eq => write!(f, "'=='"),
            TokenKind::Ne => write!(f, "'!='"),
            TokenKind::Lt => write!(f, "'<'"),
            TokenKind::Le => write!(f, "'<='"),
            TokenKind::Gt => write!(f, "'>'"),
            TokenKind::Ge => write!(f, "'>='"),
            TokenKind::And => write!(f, "'&'"),
            TokenKind::Or => write!(f, "'|'"),
            TokenKind::Not => write!(f, "'!'"),
            TokenKind::LParen => write!(f, "'('"),
            TokenKind::RParen => write!(f, "')'"),
            TokenKind::LBrace => write!(f, "'{{'"),
            TokenKind::RBrace => write!(f, "'}}'"),
            TokenKind::Comma => write!(f, "','"),
            TokenKind::Semicolon => write!(f, "';'"),
            TokenKind::While => write!(f, "'while'"),
            TokenKind::If => write!(f, "'if'"),
            TokenKind::Else => write!(f, "'else'"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Lexing error: unexpected character or malformed literal.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a script. `#` starts a line comment (as in DML).
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1usize;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // comment to end of line
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '%' => {
                chars.next();
                let ok = chars.next() == Some('*') && chars.next() == Some('%');
                if !ok {
                    return Err(LexError {
                        line,
                        message: "expected '%*%' (matrix multiply)".into(),
                    });
                }
                push!(TokenKind::MatMul);
            }
            '+' => {
                chars.next();
                push!(TokenKind::Plus);
            }
            '-' => {
                chars.next();
                push!(TokenKind::Minus);
            }
            '*' => {
                chars.next();
                push!(TokenKind::Star);
            }
            '/' => {
                chars.next();
                push!(TokenKind::Slash);
            }
            '^' => {
                chars.next();
                push!(TokenKind::Caret);
            }
            '(' => {
                chars.next();
                push!(TokenKind::LParen);
            }
            ')' => {
                chars.next();
                push!(TokenKind::RParen);
            }
            '{' => {
                chars.next();
                push!(TokenKind::LBrace);
            }
            '}' => {
                chars.next();
                push!(TokenKind::RBrace);
            }
            ',' => {
                chars.next();
                push!(TokenKind::Comma);
            }
            ';' => {
                chars.next();
                push!(TokenKind::Semicolon);
            }
            '&' => {
                chars.next();
                push!(TokenKind::And);
            }
            '|' => {
                chars.next();
                push!(TokenKind::Or);
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(TokenKind::Eq);
                } else {
                    push!(TokenKind::Assign);
                }
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(TokenKind::Ne);
                } else {
                    push!(TokenKind::Not);
                }
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(TokenKind::Le);
                } else {
                    push!(TokenKind::Lt);
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(TokenKind::Ge);
                } else {
                    push!(TokenKind::Gt);
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(LexError {
                                line,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some(c) => s.push(c),
                    }
                }
                push!(TokenKind::Str(s));
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' {
                        s.push(c);
                        chars.next();
                        // allow a sign right after an exponent marker
                        if s.ends_with('e') || s.ends_with('E') {
                            if let Some(sign) = chars.next_if(|&c| c == '+' || c == '-') {
                                s.push(sign);
                            }
                        }
                    } else {
                        break;
                    }
                }
                let v: f64 = s.parse().map_err(|_| LexError {
                    line,
                    message: format!("malformed number '{s}'"),
                })?;
                push!(TokenKind::Number(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match s.as_str() {
                    "while" => push!(TokenKind::While),
                    "if" => push!(TokenKind::If),
                    "else" => push!(TokenKind::Else),
                    _ => push!(TokenKind::Ident(s)),
                }
            }
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_listing1_fragment() {
        let ks = kinds("q = ((t(V) %*% (V %*% p)) + eps * p);");
        assert!(ks.contains(&TokenKind::MatMul));
        assert!(ks.contains(&TokenKind::Ident("t".into())));
        assert!(ks.contains(&TokenKind::Ident("eps".into())));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn comments_and_numbers() {
        let ks = kinds("x = 0.001 # tolerance\ny = 1e-6\nz = 2.5E+3");
        assert!(ks.contains(&TokenKind::Number(0.001)));
        assert!(ks.contains(&TokenKind::Number(1e-6)));
        assert!(ks.contains(&TokenKind::Number(2.5e3)));
    }

    #[test]
    fn comparison_operators() {
        let ks = kinds("a <= b & c != d | !e == f");
        assert!(ks.contains(&TokenKind::Le));
        assert!(ks.contains(&TokenKind::Ne));
        assert!(ks.contains(&TokenKind::Not));
        assert!(ks.contains(&TokenKind::Eq));
    }

    #[test]
    fn string_literals_and_keywords() {
        let ks = kinds("while (i < 10) { write(w, \"out\"); }");
        assert!(ks.contains(&TokenKind::While));
        assert!(ks.contains(&TokenKind::Str("out".into())));
    }

    #[test]
    fn line_numbers_track() {
        let toks = lex("a = 1\nb = 2\nc = 3").unwrap();
        let b = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a = @").is_err());
        assert!(lex("%x%").is_err());
        assert!(lex("\"unclosed").is_err());
    }
}
