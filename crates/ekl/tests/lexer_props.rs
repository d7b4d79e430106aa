//! The byte lexer against the `Vec<char>` lexer it replaced
//! (`reference/token.rs`): the same token kinds, payloads and lines, or
//! the same `LexError`, on generated kernels, on those kernels with
//! bytes overwritten, and on strings drawn from the grammar's alphabet
//! with non-ASCII whitespace and letters mixed in.

#[path = "reference/token.rs"]
mod reference;

use proptest::prelude::*;

use everest_ekl::token::{tokenize, Token};

/// One token or the error, in a form both lexers map onto. Floats go by
/// bit pattern so that equal means identical.
#[derive(Debug, PartialEq)]
enum Lexed {
    Keyword(String),
    Ident(String),
    Int(i64),
    Float(u64),
    Punct(&'static str),
    Eof,
}

type Outcome = Result<Vec<(Lexed, usize)>, (usize, String)>;

fn new_lexer(source: &str) -> Outcome {
    let tokens = tokenize(source).map_err(|e| (e.line, e.message))?;
    Ok(tokens
        .into_iter()
        .map(|spanned| {
            let lexed = match spanned.token {
                Token::Keyword(k) => Lexed::Keyword(k.to_string()),
                Token::Ident(s) => Lexed::Ident(s.to_string()),
                Token::Int(v) => Lexed::Int(v),
                Token::Float(v) => Lexed::Float(v.to_bits()),
                Token::Punct(p) => Lexed::Punct(p),
                Token::Eof => Lexed::Eof,
            };
            (lexed, spanned.line)
        })
        .collect())
}

fn old_lexer(source: &str) -> Outcome {
    let tokens = reference::tokenize(source).map_err(|e| (e.line, e.message))?;
    Ok(tokens
        .into_iter()
        .map(|spanned| {
            let lexed = match spanned.token {
                reference::Token::Keyword(k) => Lexed::Keyword(k),
                reference::Token::Ident(s) => Lexed::Ident(s),
                reference::Token::Int(v) => Lexed::Int(v),
                reference::Token::Float(v) => Lexed::Float(v.to_bits()),
                reference::Token::Punct(p) => Lexed::Punct(p),
                reference::Token::Eof => Lexed::Eof,
            };
            (lexed, spanned.line)
        })
        .collect())
}

/// A straight-line kernel of `picks.len()` statements in the shapes the
/// repository benchmark generates: elementwise, `select`, `sum`, with a
/// comment and a builtin call thrown in.
fn kernel_source(picks: &[(u8, u16, u16)]) -> String {
    let mut src = String::from(
        "# generated\nkernel k {\n  index i : 0..16\n  index j : 0..4\n  \
         input a : [i]\n  input t : [i] of int\n  input m : [i, j]\n",
    );
    for (k, &(shape, c1, c2)) in picks.iter().enumerate() {
        let prev = match k {
            0 => "a[i]".to_string(),
            _ => format!("s{}[i]", k - 1),
        };
        let (c1, c2) = (f64::from(c1) / 1000.0, f64::from(c2) * 1e-3);
        let line = match shape % 5 {
            0 => format!("let s{k}[i] = {c1:.3} * {prev} + {c2:e} * a[i]"),
            1 => format!("let s{k}[i] = select({prev} <= {c1:.3}, a[i], -{c2:.3} * {prev})"),
            2 => format!("let s{k}[i] = sum(j)({c2:.3} * m[i, j] * {prev}) + {c1:.3}"),
            3 => format!("let s{k}[i] = max(sqrt(abs({prev})), {c1}) / 2 # tail"),
            _ => format!("let s{k}[i] = select(t[i] != 3, {prev}, 1.5E+2) - {c1:.1}"),
        };
        src.push_str("  ");
        src.push_str(&line);
        src.push('\n');
    }
    src.push_str(&format!(
        "  output s{}\n}}\n",
        picks.len().saturating_sub(1)
    ));
    src
}

/// What random strings are spelt from: every character the grammar
/// reads, the shapes numbers and ranges are made of, the four kinds of
/// whitespace `char::is_whitespace` knows (ASCII, vertical tab, Latin-1
/// and multi-byte), letters outside ASCII, and characters no token
/// starts with.
#[rustfmt::skip]
const ALPHABET: &[&str] = &[
    "a", "s1", "_x", "let", "sum", "of", "kernel", "select", "0", "7", "42", "1.5", "2.", "3e",
    "e", "E", "1e-3", "9E+2", "..", ".", "0..8", "<=", ">=", "==", "!=", "<", ">", "=", "!", "+",
    "-", "*", "/", "(", ")", "[", "]", "{", "}", ",", ":", "#", " ", "\t", "\n", "\r", "\u{b}",
    "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{2028}", "\u{3000}", "é", "λ", "𝛼", "$", "@",
    "\u{0}", "99999999999999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_lexer_matches_the_char_lexer_on_generated_kernels(
        picks in proptest::collection::vec((any::<u8>(), 0u16..2000, 0u16..2000), 1..24),
    ) {
        let source = kernel_source(&picks);
        let lexed = new_lexer(&source);
        prop_assert!(lexed.is_ok(), "{lexed:?}");
        prop_assert_eq!(lexed, old_lexer(&source));
        prop_assert!(everest_ekl::parse(&source).is_ok(), "{source}");
    }

    #[test]
    fn byte_lexer_matches_the_char_lexer_on_mutated_kernels(
        picks in proptest::collection::vec((any::<u8>(), 0u16..2000, 0u16..2000), 1..8),
        edits in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..6),
    ) {
        let mut source = kernel_source(&picks);
        for (at, with) in edits {
            // Overwrite one character with a spelling from the alphabet:
            // the text stays UTF-8 and may stop lexing anywhere.
            let at = (0..=at % source.len())
                .rev()
                .find(|&i| source.is_char_boundary(i))
                .expect("0 is a boundary");
            let width = source[at..].chars().next().map_or(0, char::len_utf8);
            source.replace_range(at..at + width, ALPHABET[with % ALPHABET.len()]);
        }
        prop_assert_eq!(new_lexer(&source), old_lexer(&source), "{:?}", source);
    }

    #[test]
    fn byte_lexer_matches_the_char_lexer_on_alphabet_strings(
        picks in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let source: String = picks.iter().map(|&p| ALPHABET[p % ALPHABET.len()]).collect();
        prop_assert_eq!(new_lexer(&source), old_lexer(&source), "{:?}", source);
    }
}

#[test]
fn the_traps_the_byte_lexer_must_not_fall_into() {
    for source in [
        "let\u{a0}y\u{2003}=\u{3000}1",       // Unicode whitespace separates
        "let y = é",                          // a character, not a byte
        "let y = 1 # caf\u{e9} λ\nlet z = $", // non-ASCII inside a comment; line 2
        "index i : 0..8",                     // stops before `..`
        "x\u{b}y\u{c}z\u{85}w",               // VT, FF, NEL
        "1.5.2 3e 1e+ 4.e5",                  // malformed floats
        "a\u{2028}b\nc",                      // a separator that is no newline
    ] {
        assert_eq!(new_lexer(source), old_lexer(source), "{source:?}");
    }
    assert_eq!(
        new_lexer("let y = é").unwrap_err(),
        (1, "unexpected character 'é'".to_string())
    );
}
