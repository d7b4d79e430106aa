//! The SQL lexer the borrowing one replaced: a `String` per identifier
//! and string literal, and an upper-cased copy of every word to match
//! keywords. Kept as the reference the lexer is held to
//! (`lexer_tokenizes_as_the_owned_reference` in `query_props.rs`): the
//! same token kinds, payloads and offsets, or the same error.

use everest_query::error::{QueryError, QueryResult};
pub(crate) use everest_query::token::Keyword;

fn keyword(word: &str) -> Option<Keyword> {
    let upper = word.to_ascii_uppercase();
    Some(match upper.as_str() {
        "SELECT" => Keyword::Select,
        "FROM" => Keyword::From,
        "WHERE" => Keyword::Where,
        "GROUP" => Keyword::Group,
        "ORDER" => Keyword::Order,
        "BY" => Keyword::By,
        "ASC" => Keyword::Asc,
        "DESC" => Keyword::Desc,
        "LIMIT" => Keyword::Limit,
        "JOIN" => Keyword::Join,
        "INNER" => Keyword::Inner,
        "ON" => Keyword::On,
        "AND" => Keyword::And,
        "OR" => Keyword::Or,
        "NOT" => Keyword::Not,
        "AS" => Keyword::As,
        _ => return None,
    })
}

/// What a token is.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// A reserved word.
    Keyword(Keyword),
    /// An identifier (table, column, alias).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A single-quoted string literal (quotes stripped).
    Str(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One token with its starting byte offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset into the source where the token starts.
    pub offset: usize,
}

/// Tokenizes SQL text. Returns a `Lex` error with the byte offset of
/// the first character that cannot start any token.
pub(crate) fn tokenize(source: &str) -> QueryResult<Vec<Token>> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let offset = i;
        let kind = match b {
            b',' => {
                i += 1;
                TokenKind::Comma
            }
            b'.' => {
                i += 1;
                TokenKind::Dot
            }
            b'*' => {
                i += 1;
                TokenKind::Star
            }
            b'(' => {
                i += 1;
                TokenKind::LParen
            }
            b')' => {
                i += 1;
                TokenKind::RParen
            }
            b'+' => {
                i += 1;
                TokenKind::Plus
            }
            b'-' => {
                i += 1;
                TokenKind::Minus
            }
            b'/' => {
                i += 1;
                TokenKind::Slash
            }
            b'=' => {
                i += 1;
                TokenKind::Eq
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ne
                } else {
                    return Err(QueryError::Lex {
                        offset,
                        message: "expected '=' after '!'".to_string(),
                    });
                }
            }
            b'<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    i += 2;
                    TokenKind::Le
                }
                Some(&b'>') => {
                    i += 2;
                    TokenKind::Ne
                }
                _ => {
                    i += 1;
                    TokenKind::Lt
                }
            },
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ge
                } else {
                    i += 1;
                    TokenKind::Gt
                }
            }
            b'\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(QueryError::Lex {
                        offset,
                        message: "unterminated string literal".to_string(),
                    });
                }
                let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
                i = j + 1;
                TokenKind::Str(text)
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &source[start..i];
                if is_float {
                    match text.parse::<f64>() {
                        Ok(v) => TokenKind::Float(v),
                        Err(_) => {
                            return Err(QueryError::Lex {
                                offset,
                                message: format!("invalid float literal '{text}'"),
                            })
                        }
                    }
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => TokenKind::Int(v),
                        Err(_) => {
                            return Err(QueryError::Lex {
                                offset,
                                message: format!("integer literal '{text}' out of range"),
                            })
                        }
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                match keyword(word) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(word.to_string()),
                }
            }
            other => {
                return Err(QueryError::Lex {
                    offset,
                    message: format!("unexpected byte 0x{other:02x}"),
                })
            }
        };
        tokens.push(Token { kind, offset });
    }
    Ok(tokens)
}
