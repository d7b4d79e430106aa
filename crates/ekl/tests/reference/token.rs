//! The lexer `everest_ekl::token` replaced, kept verbatim (its unit
//! tests aside) as the reference the byte lexer is held to
//! (`lexer_props.rs`).
//!
//! It copies the source into a `Vec<char>`, collects a `String` per
//! word, per number and per punctuation probe, and owns every token's
//! text: slow, and obviously right about what a character is.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Keywords: `kernel`, `index`, `input`, `let`, `output`, `of`,
    /// `int`, `select`, `sum`.
    Keyword(String),
    /// An identifier.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// Punctuation and operators.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "keyword '{k}'"),
            Token::Ident(s) => write!(f, "identifier '{s}'"),
            Token::Int(v) => write!(f, "integer {v}"),
            Token::Float(v) => write!(f, "float {v}"),
            Token::Punct(p) => write!(f, "'{p}'"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus its source line (1-based), for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

const KEYWORDS: &[&str] = &[
    "kernel", "index", "input", "let", "output", "of", "int", "select", "sum", "exp", "log",
    "sqrt", "abs", "min", "max",
];

/// Errors produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes EKL source text.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed numbers.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Spanned>, LexError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '#' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if KEYWORDS.contains(&word.as_str()) {
                tokens.push(Spanned {
                    token: Token::Keyword(word),
                    line,
                });
            } else {
                tokens.push(Spanned {
                    token: Token::Ident(word),
                    line,
                });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '-' || chars[i] == '+')
                        && i > start
                        && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
            {
                // `0..8` range syntax: stop before `..`
                if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                    break;
                }
                if chars[i] == '.' || chars[i] == 'e' || chars[i] == 'E' {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let token = if is_float {
                Token::Float(text.parse().map_err(|_| LexError {
                    line,
                    message: format!("bad float literal '{text}'"),
                })?)
            } else {
                Token::Int(text.parse().map_err(|_| LexError {
                    line,
                    message: format!("bad integer literal '{text}'"),
                })?)
            };
            tokens.push(Spanned { token, line });
            continue;
        }
        // multi-char punctuation first
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        let punct = match two.as_str() {
            ".." => Some(".."),
            "<=" => Some("<="),
            ">=" => Some(">="),
            "==" => Some("=="),
            "!=" => Some("!="),
            _ => None,
        };
        if let Some(p) = punct {
            tokens.push(Spanned {
                token: Token::Punct(p),
                line,
            });
            i += 2;
            continue;
        }
        let single = match c {
            '{' => "{",
            '}' => "}",
            '[' => "[",
            ']' => "]",
            '(' => "(",
            ')' => ")",
            ',' => ",",
            ':' => ":",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '<' => "<",
            '>' => ">",
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character '{other}'"),
                })
            }
        };
        tokens.push(Spanned {
            token: Token::Punct(single),
            line,
        });
        i += 1;
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
    });
    Ok(tokens)
}
