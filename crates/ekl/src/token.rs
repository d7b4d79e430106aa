//! Tokens and lexer for the EVEREST Kernel Language.
//!
//! The lexer walks the source's bytes and lends words out of it: a
//! [`Token`] borrows its text from the source string, so lexing
//! allocates the token vector and nothing per token.

use std::fmt;

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'s> {
    /// Keywords: `kernel`, `index`, `input`, `let`, `output`, `of`,
    /// `int`, `select`, `sum`.
    Keyword(&'s str),
    /// An identifier.
    Ident(&'s str),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// Punctuation and operators.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub token: Token<'s>,
    /// 1-based source line.
    pub line: usize,
}

const KEYWORDS: &[&str] = &[
    "kernel", "index", "input", "let", "output", "of", "int", "select", "sum", "exp", "log",
    "sqrt", "abs", "min", "max",
];

/// Errors produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
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
pub fn tokenize(source: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        // The ASCII characters `char::is_whitespace` accepts.
        if matches!(b, b' ' | b'\t'..=b'\r') {
            i += 1;
            continue;
        }
        if b == b'#' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &source[start..i];
            let token = if KEYWORDS.contains(&word) {
                Token::Keyword(word)
            } else {
                Token::Ident(word)
            };
            tokens.push(Spanned { token, line });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || matches!(bytes[i], b'.' | b'e' | b'E')
                    || (matches!(bytes[i], b'-' | b'+')
                        && i > start
                        && matches!(bytes[i - 1], b'e' | b'E')))
            {
                // `0..8` range syntax: stop before `..`
                if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                    break;
                }
                is_float |= matches!(bytes[i], b'.' | b'e' | b'E');
                i += 1;
            }
            let text = &source[start..i];
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
        let punct = match bytes.get(i..i + 2) {
            Some(b"..") => Some(".."),
            Some(b"<=") => Some("<="),
            Some(b">=") => Some(">="),
            Some(b"==") => Some("=="),
            Some(b"!=") => Some("!="),
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
        let single = match b {
            b'{' => "{",
            b'}' => "}",
            b'[' => "[",
            b']' => "]",
            b'(' => "(",
            b')' => ")",
            b',' => ",",
            b':' => ":",
            b'=' => "=",
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'/' => "/",
            b'<' => "<",
            b'>' => ">",
            _ => {
                // Whatever is left is judged as a character, not a byte:
                // every token above ends on an ASCII byte, so `i` is on a
                // character boundary. Unicode whitespace (U+00A0, U+2003,
                // ...) separates tokens as the ASCII kinds above do.
                let other = source[i..].chars().next().expect("i < len");
                if other.is_whitespace() {
                    i += other.len_utf8();
                    continue;
                }
                return Err(LexError {
                    line,
                    message: format!("unexpected character '{other}'"),
                });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn tokenizes_declaration() {
        let toks = kinds("index x : 0..60");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("index"),
                Token::Ident("x"),
                Token::Punct(":"),
                Token::Int(0),
                Token::Punct(".."),
                Token::Int(60),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn range_after_integer_is_not_a_float() {
        let toks = kinds("3..14");
        assert_eq!(
            toks,
            vec![
                Token::Int(3),
                Token::Punct(".."),
                Token::Int(14),
                Token::Eof
            ]
        );
    }

    #[test]
    fn float_literals() {
        assert_eq!(kinds("3.5")[0], Token::Float(3.5));
        assert_eq!(kinds("1e-3")[0], Token::Float(1e-3));
        assert_eq!(kinds("2.5e2")[0], Token::Float(250.0));
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = tokenize("# header\nlet y = 1 # trailing\nlet z = 2").unwrap();
        assert_eq!(toks[0].token, Token::Keyword("let"));
        assert_eq!(toks[0].line, 2);
        let z_let = toks
            .iter()
            .filter(|t| t.token == Token::Keyword("let"))
            .nth(1)
            .unwrap();
        assert_eq!(z_let.line, 3);
    }

    #[test]
    fn comparison_operators() {
        let toks = kinds("a <= b < c == d != e >= f");
        assert!(toks.contains(&Token::Punct("<=")));
        assert!(toks.contains(&Token::Punct("<")));
        assert!(toks.contains(&Token::Punct("==")));
        assert!(toks.contains(&Token::Punct("!=")));
        assert!(toks.contains(&Token::Punct(">=")));
    }

    #[test]
    fn unknown_character_errors_with_line() {
        let err = tokenize("let a = 1\nlet b = $").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains('$'));
    }
}
