//! Parser for the ConDRust coordination subset of Rust.
//!
//! ConDRust (Suchert et al., ECOOP 2023) accepts imperative Rust whose
//! loop bodies are composed of operator calls, and compiles it to a
//! deterministic dataflow graph. The subset accepted here matches the
//! paper's Fig. 4 shape:
//!
//! ```text
//! fn map_match(samples: Vec<Sample>) -> Vec<Match> {
//!     let mut out = Vec::new();
//!     let mut hmm = viterbi_state();          // optional state threads
//!     for s in samples {
//!         let c = candidates(s);
//!         let m = hmm.step(c, s);             // stateful call
//!         if plausible(m) {                   // filtered push
//!             out.push(m);
//!         }
//!     }
//!     out
//! }
//! ```

use std::fmt;

/// A call expression: `callee(args)` or `receiver.method(args)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Optional state-thread receiver variable.
    pub receiver: Option<String>,
    /// Function or method name.
    pub callee: String,
    /// Argument variable names.
    pub args: Vec<String>,
}

/// A statement inside the `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopStmt {
    /// `let NAME = call;`
    Let {
        /// Bound variable.
        name: String,
        /// Call producing the value.
        call: Call,
    },
    /// `out.push(VAR);`
    Push {
        /// Pushed variable.
        value: String,
    },
    /// `if pred(args) { out.push(VAR); }`
    IfPush {
        /// Predicate call.
        predicate: Call,
        /// Pushed variable.
        value: String,
    },
}

/// A parsed ConDRust function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// The input collection parameter.
    pub param: String,
    /// State-thread declarations: `(variable, constructor)`.
    pub states: Vec<(String, String)>,
    /// Output accumulator name (the `Vec` pushed into and returned).
    pub out: String,
    /// Loop variable.
    pub loop_var: String,
    /// Loop body statements in order.
    pub body: Vec<LoopStmt>,
}

/// Parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "condrust parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest parameter or return type the parser accepts, a bare name
/// being one level and each `<...>` one more (the same bound as the
/// textual IR parser's).
const MAX_TYPE_DEPTH: usize = 64;

struct Lexer {
    tokens: Vec<(String, usize)>,
    pos: usize,
}

fn lex(source: &str) -> Vec<(String, usize)> {
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
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push((chars[start..i].iter().collect(), line));
            continue;
        }
        // two-char tokens
        if c == '-' && chars.get(i + 1) == Some(&'>') {
            tokens.push(("->".to_string(), line));
            i += 2;
            continue;
        }
        if c == ':' && chars.get(i + 1) == Some(&':') {
            tokens.push(("::".to_string(), line));
            i += 2;
            continue;
        }
        tokens.push((c.to_string(), line));
        i += 1;
    }
    tokens.push(("<eof>".to_string(), line));
    tokens
}

impl Lexer {
    fn peek(&self) -> &str {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].0
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].1
    }

    fn bump(&mut self) -> String {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].0.clone();
        self.pos += 1;
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        let line = self.line();
        let got = self.bump();
        if got == token {
            Ok(())
        } else {
            Err(ParseError {
                line,
                message: format!("expected '{token}', found '{got}'"),
            })
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        let got = self.bump();
        if got
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            Ok(got)
        } else {
            Err(ParseError {
                line,
                message: format!("expected identifier, found '{got}'"),
            })
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.peek() == token {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips a type expression: IDENT (`<` type (`,` type)* `>`)?, found
    /// `level` levels deep (a bare name is one). The recursion stops at
    /// [`MAX_TYPE_DEPTH`], so `Vec<Vec<...>>` nested a hundred thousand
    /// times is an error and not a stack overflow.
    fn skip_type(&mut self, level: usize) -> Result<(), ParseError> {
        self.expect_ident()?;
        if self.eat("<") {
            if level == MAX_TYPE_DEPTH {
                return Err(self.error(format!("type nests deeper than {MAX_TYPE_DEPTH} levels")));
            }
            loop {
                self.skip_type(level + 1)?;
                if self.eat(",") {
                    continue;
                }
                self.expect(">")?;
                break;
            }
        }
        Ok(())
    }
}

/// Parses one ConDRust function.
///
/// # Errors
///
/// Returns [`ParseError`] when the source falls outside the supported
/// subset (the determinism guarantee only covers this shape).
pub fn parse_function(source: &str) -> Result<Function, ParseError> {
    let mut lx = Lexer {
        tokens: lex(source),
        pos: 0,
    };
    lx.expect("fn")?;
    let name = lx.expect_ident()?;
    lx.expect("(")?;
    let param = lx.expect_ident()?;
    lx.expect(":")?;
    lx.skip_type(1)?;
    lx.expect(")")?;
    lx.expect("->")?;
    lx.skip_type(1)?;
    lx.expect("{")?;

    // Preamble: `let mut out = Vec::new();` plus state declarations.
    let mut out: Option<String> = None;
    let mut states: Vec<(String, String)> = Vec::new();
    loop {
        if lx.peek() == "for" {
            break;
        }
        lx.expect("let")?;
        lx.expect("mut")?;
        let var = lx.expect_ident()?;
        lx.expect("=")?;
        let head = lx.expect_ident()?;
        if head == "Vec" {
            lx.expect("::")?;
            lx.expect("new")?;
            lx.expect("(")?;
            lx.expect(")")?;
            lx.expect(";")?;
            if out.is_some() {
                return Err(lx.error("multiple output vectors"));
            }
            out = Some(var);
        } else {
            lx.expect("(")?;
            lx.expect(")")?;
            lx.expect(";")?;
            states.push((var, head));
        }
    }
    let out = out.ok_or_else(|| lx.error("missing `let mut out = Vec::new();`"))?;

    lx.expect("for")?;
    let loop_var = lx.expect_ident()?;
    lx.expect("in")?;
    let iterated = lx.expect_ident()?;
    if iterated != param {
        return Err(lx.error(format!(
            "loop must iterate over the parameter '{param}', found '{iterated}'"
        )));
    }
    lx.expect("{")?;

    let mut body = Vec::new();
    loop {
        match lx.peek() {
            "}" => {
                lx.bump();
                break;
            }
            "let" => {
                lx.bump();
                let name = lx.expect_ident()?;
                lx.expect("=")?;
                let call = parse_call(&mut lx)?;
                lx.expect(";")?;
                body.push(LoopStmt::Let { name, call });
            }
            "if" => {
                lx.bump();
                let predicate = parse_call(&mut lx)?;
                lx.expect("{")?;
                let target = lx.expect_ident()?;
                if target != out {
                    return Err(lx.error(format!("can only push into '{out}'")));
                }
                lx.expect(".")?;
                lx.expect("push")?;
                lx.expect("(")?;
                let value = lx.expect_ident()?;
                lx.expect(")")?;
                lx.expect(";")?;
                lx.expect("}")?;
                body.push(LoopStmt::IfPush { predicate, value });
            }
            other if other == out => {
                lx.bump();
                lx.expect(".")?;
                lx.expect("push")?;
                lx.expect("(")?;
                let value = lx.expect_ident()?;
                lx.expect(")")?;
                lx.expect(";")?;
                body.push(LoopStmt::Push { value });
            }
            other => {
                return Err(lx.error(format!("unexpected '{other}' in loop body")));
            }
        }
    }

    // Tail: `out` then `}`.
    let tail = lx.expect_ident()?;
    if tail != out {
        return Err(lx.error(format!("function must return '{out}'")));
    }
    lx.expect("}")?;
    if lx.peek() != "<eof>" {
        return Err(lx.error("trailing tokens after function"));
    }

    Ok(Function {
        name,
        param,
        states,
        out,
        loop_var,
        body,
    })
}

fn parse_call(lx: &mut Lexer) -> Result<Call, ParseError> {
    let first = lx.expect_ident()?;
    let (receiver, callee) = if lx.eat(".") {
        let method = lx.expect_ident()?;
        (Some(first), method)
    } else {
        (None, first)
    };
    lx.expect("(")?;
    let mut args = Vec::new();
    if !lx.eat(")") {
        loop {
            args.push(lx.expect_ident()?);
            if lx.eat(",") {
                continue;
            }
            lx.expect(")")?;
            break;
        }
    }
    Ok(Call {
        receiver,
        callee,
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP_MATCH: &str = "
        fn map_match(samples: Vec<Sample>) -> Vec<Match> {
            let mut out = Vec::new();
            let mut hmm = viterbi_state();
            for s in samples {
                let c = candidates(s);
                let m = hmm.step(c, s);
                if plausible(m) {
                    out.push(m);
                }
            }
            out
        }";

    #[test]
    fn parses_fig4_shape() {
        let f = parse_function(MAP_MATCH).unwrap();
        assert_eq!(f.name, "map_match");
        assert_eq!(f.param, "samples");
        assert_eq!(
            f.states,
            vec![("hmm".to_string(), "viterbi_state".to_string())]
        );
        assert_eq!(f.loop_var, "s");
        assert_eq!(f.body.len(), 3);
        let LoopStmt::Let { call, .. } = &f.body[1] else {
            panic!()
        };
        assert_eq!(call.receiver.as_deref(), Some("hmm"));
        assert_eq!(call.callee, "step");
        assert_eq!(call.args, vec!["c".to_string(), "s".to_string()]);
    }

    #[test]
    fn parses_unconditional_push() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    let y = double(x);
                    out.push(y);
                }
                out
            }",
        )
        .unwrap();
        assert!(matches!(&f.body[1], LoopStmt::Push { value } if value == "y"));
    }

    #[test]
    fn rejects_iterating_non_parameter() {
        let err = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in other {
                    out.push(x);
                }
                out
            }",
        )
        .unwrap_err();
        assert!(err.message.contains("iterate over the parameter"));
    }

    #[test]
    fn rejects_missing_out_vec() {
        let err = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                for x in xs {
                }
                xs
            }",
        )
        .unwrap_err();
        assert!(err.message.contains("let mut out"));
    }

    #[test]
    fn rejects_pushing_elsewhere() {
        let err = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    if p(x) { other.push(x); }
                }
                out
            }",
        )
        .unwrap_err();
        assert!(err.message.contains("can only push into"));
    }

    #[test]
    fn rejects_returning_wrong_variable() {
        let err = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    out.push(x);
                }
                xs
            }",
        )
        .unwrap_err();
        assert!(err.message.contains("must return"));
    }

    #[test]
    fn nested_generics_in_types_are_skipped() {
        let f = parse_function(
            "fn f(xs: Vec<Pair<f64, Vec<i64>>>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    out.push(x);
                }
                out
            }",
        )
        .unwrap();
        assert_eq!(f.param, "xs");
    }

    #[test]
    fn types_nest_to_the_bound_and_no_further() {
        let function = |levels: usize| {
            let ty = format!("{}f64{}", "Vec<".repeat(levels - 1), ">".repeat(levels - 1));
            format!("fn f(\n  xs: {ty}) -> Vec<f64> {{\n  let mut out = Vec::new();\n  for x in xs {{\n    out.push(x);\n  }}\n  out\n}}")
        };
        parse_function(&function(MAX_TYPE_DEPTH)).expect("at the bound");
        for levels in [MAX_TYPE_DEPTH + 1, 200_000] {
            let err = parse_function(&function(levels)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("condrust parse error at line 2: type nests deeper than {MAX_TYPE_DEPTH} levels")
            );
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse_function("fn f(xs: Vec<f64>) -> Vec<f64> {\n  let mut out = Vec::new();\n  for x in xs {\n    let = bad(x);\n  }\n  out\n}").unwrap_err();
        assert_eq!(err.line, 4);
    }
}
