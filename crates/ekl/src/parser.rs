//! Recursive-descent parser for EKL.

use std::fmt;

use crate::ast::{BinOp, Builtin, CmpOp, Dim, Expr, Item, Kernel};
use crate::token::{tokenize, Spanned, Token};

/// Parse error with source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::token::LexError> for ParseError {
    fn from(e: crate::token::LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parses EKL source into a [`Kernel`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), everest_ekl::parser::ParseError> {
/// let kernel = everest_ekl::parser::parse(
///     "kernel scale {\n\
///        index i : 0..4\n\
///        input a : [i]\n\
///        let y[i] = 2.0 * a[i]\n\
///        output y\n\
///      }",
/// )?;
/// assert_eq!(kernel.name, "scale");
/// assert_eq!(kernel.items.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Kernel, ParseError> {
    let tokens = tokenize(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let kernel = p.parse_kernel()?;
    p.expect_eof()?;
    Ok(kernel)
}

/// Deepest expression the parser accepts, counted in levels of its
/// tree with a leaf as one and a pair of parentheses as a level of its
/// own. Checking, lowering and dropping an expression recurse once per
/// level, so the bound is what keeps a hostile source — ten thousand
/// parentheses, or `a + a + a + ...` over a hundred thousand terms,
/// which the operator loops would happily turn into a left-deep tree —
/// from overflowing the stack. No kernel in the repository comes near
/// it (RRTMG, the generated corpus, the query kernels and the examples
/// all stay under twenty).
pub(crate) const MAX_EXPR_DEPTH: usize = 256;

/// An expression and the height of its tree.
type Tall = (Expr, usize);

struct Parser<'s> {
    tokens: Vec<Spanned<'s>>,
    pos: usize,
    /// Expressions open on the parser's own stack.
    nesting: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Token<'s> {
        self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> Token<'s> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.bump() {
            Token::Punct(got) if got == p => Ok(()),
            other => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected '{p}', found {other}"),
            }),
        }
    }

    fn expect_keyword(&mut self, k: &str) -> Result<(), ParseError> {
        match self.bump() {
            Token::Keyword(got) if got == k => Ok(()),
            other => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected '{k}', found {other}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Token::Ident(s) => Ok(s.to_string()),
            other => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Token::Int(v) => Ok(v),
            other => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected integer, found {other}"),
            }),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Token::Punct(got) if got == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected {} after kernel", self.peek())))
        }
    }

    fn parse_kernel(&mut self) -> Result<Kernel, ParseError> {
        self.expect_keyword("kernel")?;
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut items = Vec::new();
        loop {
            match self.peek() {
                Token::Punct("}") => {
                    self.pos += 1;
                    break;
                }
                Token::Keyword("index") => items.push(self.parse_index()?),
                Token::Keyword("input") => items.push(self.parse_input()?),
                Token::Keyword("let") => items.push(self.parse_let()?),
                Token::Keyword("output") => items.push(self.parse_output()?),
                Token::Keyword(other) => {
                    return Err(self.error(format!("unexpected keyword '{other}'")))
                }
                other => return Err(self.error(format!("expected item, found {other}"))),
            }
        }
        Ok(Kernel { name, items })
    }

    fn parse_index(&mut self) -> Result<Item, ParseError> {
        self.expect_keyword("index")?;
        let name = self.expect_ident()?;
        self.expect_punct(":")?;
        let line = self.line();
        let lo = self.expect_int()?;
        self.expect_punct("..")?;
        let hi = self.expect_int()?;
        if hi <= lo {
            return Err(ParseError {
                line,
                message: format!("empty index range {lo}..{hi}"),
            });
        }
        Ok(Item::Index { name, lo, hi })
    }

    fn parse_input(&mut self) -> Result<Item, ParseError> {
        self.expect_keyword("input")?;
        let name = self.expect_ident()?;
        self.expect_punct(":")?;
        self.expect_punct("[")?;
        let mut dims = Vec::new();
        if !self.eat_punct("]") {
            loop {
                match self.bump() {
                    Token::Int(v) if v > 0 => dims.push(Dim::Literal(v as u64)),
                    Token::Int(v) => {
                        return Err(ParseError {
                            line: self.tokens[self.pos - 1].line,
                            message: format!("dimension must be positive, got {v}"),
                        })
                    }
                    Token::Ident(s) => dims.push(Dim::Index(s.to_string())),
                    other => {
                        return Err(ParseError {
                            line: self.tokens[self.pos - 1].line,
                            message: format!("expected dimension, found {other}"),
                        })
                    }
                }
                if self.eat_punct(",") {
                    continue;
                }
                self.expect_punct("]")?;
                break;
            }
        }
        let mut integer = false;
        if self.peek() == Token::Keyword("of") {
            self.pos += 1;
            self.expect_keyword("int")?;
            integer = true;
        }
        Ok(Item::Input {
            name,
            dims,
            integer,
        })
    }

    fn parse_let(&mut self) -> Result<Item, ParseError> {
        self.expect_keyword("let")?;
        let name = self.expect_ident()?;
        let mut indices = Vec::new();
        if self.eat_punct("[") && !self.eat_punct("]") {
            loop {
                indices.push(self.expect_ident()?);
                if self.eat_punct(",") {
                    continue;
                }
                self.expect_punct("]")?;
                break;
            }
        }
        self.expect_punct("=")?;
        let (value, _) = self.parse_expr()?;
        Ok(Item::Let {
            name,
            indices,
            value,
        })
    }

    fn parse_output(&mut self) -> Result<Item, ParseError> {
        self.expect_keyword("output")?;
        let name = self.expect_ident()?;
        Ok(Item::Output { name })
    }

    // ---- expressions ------------------------------------------------------
    //
    // Every function returns the expression with its height, and every
    // node is sized through `over` as it is built, so no tree taller
    // than `MAX_EXPR_DEPTH` ever exists; `nested` bounds the parser's
    // own recursion on the way down, before there is a tree to measure.

    /// Names the line of the token just read, which is part of the
    /// expression that went too deep (the next one may not be).
    fn too_deep(&self) -> ParseError {
        ParseError {
            line: self.tokens[self.pos - 1].line,
            message: format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
        }
    }

    /// The height of a node (or a pair of parentheses) whose tallest
    /// child is `below` high.
    fn over(&self, below: usize) -> Result<usize, ParseError> {
        if below < MAX_EXPR_DEPTH {
            Ok(below + 1)
        } else {
            Err(self.too_deep())
        }
    }

    /// Runs `parse` one level further down the parser's stack.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.nesting == MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    fn binary(&self, op: BinOp, (lhs, l): Tall, (rhs, r): Tall) -> Result<Tall, ParseError> {
        let expr = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        Ok((expr, self.over(l.max(r))?))
    }

    fn parse_expr(&mut self) -> Result<Tall, ParseError> {
        self.nested(Self::parse_compare)
    }

    fn parse_compare(&mut self) -> Result<Tall, ParseError> {
        let (lhs, l) = self.parse_addsub()?;
        let op = match self.peek() {
            Token::Punct("<=") => Some(CmpOp::Le),
            Token::Punct("<") => Some(CmpOp::Lt),
            Token::Punct(">=") => Some(CmpOp::Ge),
            Token::Punct(">") => Some(CmpOp::Gt),
            Token::Punct("==") => Some(CmpOp::Eq),
            Token::Punct("!=") => Some(CmpOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let (rhs, r) = self.parse_addsub()?;
            let expr = Expr::Compare {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            Ok((expr, self.over(l.max(r))?))
        } else {
            Ok((lhs, l))
        }
    }

    fn parse_addsub(&mut self) -> Result<Tall, ParseError> {
        let mut lhs = self.parse_muldiv()?;
        loop {
            let op = match self.peek() {
                Token::Punct("+") => BinOp::Add,
                Token::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_muldiv()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_muldiv(&mut self) -> Result<Tall, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Punct("*") => BinOp::Mul,
                Token::Punct("/") => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Tall, ParseError> {
        if self.eat_punct("-") {
            let (inner, height) = self.nested(Self::parse_unary)?;
            return Ok((Expr::Neg(Box::new(inner)), self.over(height)?));
        }
        self.parse_primary()
    }

    /// Dispatches on the first token. Each form that recurses lives in a
    /// function of its own, so a level of nesting costs the stack that
    /// form's locals and not every form's.
    fn parse_primary(&mut self) -> Result<Tall, ParseError> {
        match self.bump() {
            Token::Int(v) => Ok((Expr::Int(v), 1)),
            Token::Float(v) => Ok((Expr::Float(v), 1)),
            Token::Punct("(") => {
                let (inner, height) = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok((inner, self.over(height)?))
            }
            Token::Keyword("select") => self.parse_select(),
            Token::Keyword("sum") => self.parse_sum(),
            Token::Keyword("min") => self.parse_min_max(BinOp::Min),
            Token::Keyword("max") => self.parse_min_max(BinOp::Max),
            Token::Keyword("exp") => self.parse_call(Builtin::Exp),
            Token::Keyword("log") => self.parse_call(Builtin::Log),
            Token::Keyword("sqrt") => self.parse_call(Builtin::Sqrt),
            Token::Keyword("abs") => self.parse_call(Builtin::Abs),
            Token::Ident(name) => self.parse_ref(name),
            other => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected expression, found {other}"),
            }),
        }
    }

    fn parse_select(&mut self) -> Result<Tall, ParseError> {
        self.expect_punct("(")?;
        let (cond, c) = self.parse_expr()?;
        self.expect_punct(",")?;
        let (then, t) = self.parse_expr()?;
        self.expect_punct(",")?;
        let (otherwise, o) = self.parse_expr()?;
        self.expect_punct(")")?;
        let expr = Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        };
        Ok((expr, self.over(c.max(t).max(o))?))
    }

    fn parse_sum(&mut self) -> Result<Tall, ParseError> {
        self.expect_punct("(")?;
        let mut indices = vec![self.expect_ident()?];
        while self.eat_punct(",") {
            indices.push(self.expect_ident()?);
        }
        self.expect_punct(")")?;
        self.expect_punct("(")?;
        let (body, height) = self.parse_expr()?;
        self.expect_punct(")")?;
        let expr = Expr::Sum {
            indices,
            body: Box::new(body),
        };
        Ok((expr, self.over(height)?))
    }

    fn parse_min_max(&mut self, op: BinOp) -> Result<Tall, ParseError> {
        self.expect_punct("(")?;
        let lhs = self.parse_expr()?;
        self.expect_punct(",")?;
        let rhs = self.parse_expr()?;
        self.expect_punct(")")?;
        self.binary(op, lhs, rhs)
    }

    fn parse_call(&mut self, builtin: Builtin) -> Result<Tall, ParseError> {
        self.expect_punct("(")?;
        let (arg, height) = self.parse_expr()?;
        self.expect_punct(")")?;
        let expr = Expr::Call {
            builtin,
            arg: Box::new(arg),
        };
        Ok((expr, self.over(height)?))
    }

    fn parse_ref(&mut self, name: &str) -> Result<Tall, ParseError> {
        let name = name.to_string();
        if !self.eat_punct("[") {
            return Ok((
                Expr::Ref {
                    name,
                    subscripts: None,
                },
                1,
            ));
        }
        let mut subscripts = Vec::new();
        let mut tallest = 0;
        if !self.eat_punct("]") {
            loop {
                let (subscript, height) = self.parse_expr()?;
                subscripts.push(subscript);
                tallest = tallest.max(height);
                if self.eat_punct(",") {
                    continue;
                }
                self.expect_punct("]")?;
                break;
            }
        }
        let expr = Expr::Ref {
            name,
            subscripts: Some(subscripts),
        };
        Ok((expr, self.over(tallest)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_kernel() {
        let k =
            parse("kernel k { index i : 0..4 input a : [i] let y[i] = a[i] output y }").unwrap();
        assert_eq!(k.name, "k");
        assert_eq!(k.items.len(), 4);
        assert!(matches!(&k.items[0], Item::Index { name, lo: 0, hi: 4 } if name == "i"));
    }

    #[test]
    fn parse_precedence() {
        let k = parse("kernel k { let y = 1 + 2 * 3 }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("expected top-level add, got {value:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parse_select_and_compare() {
        let k = parse("kernel k { let s = select(p <= 1.5, 1, 0) }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        let Expr::Select { cond, .. } = value else {
            panic!("expected select")
        };
        assert!(matches!(**cond, Expr::Compare { op: CmpOp::Le, .. }));
    }

    #[test]
    fn parse_sum_with_multiple_indices() {
        let k = parse("kernel k { let t = sum(i, j)(a[i] * b[j]) }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        let Expr::Sum { indices, .. } = value else {
            panic!("expected sum")
        };
        assert_eq!(indices, &["i".to_string(), "j".to_string()]);
    }

    #[test]
    fn parse_subscripted_subscripts() {
        let k = parse("kernel k { let t[x] = k_major[i_T[x], g] }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        let Expr::Ref { subscripts, .. } = value else {
            panic!()
        };
        let subs = subscripts.as_ref().unwrap();
        assert!(matches!(
            &subs[0],
            Expr::Ref {
                subscripts: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parse_index_arithmetic_in_subscript() {
        let k = parse("kernel k { let t[x, dt] = j_T[x] + dt }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parse_scalar_input_and_empty_subscripts() {
        let k = parse("kernel k { input s : [] let y = s + 1.0 }").unwrap();
        assert!(matches!(
            &k.items[0],
            Item::Input { dims, .. } if dims.is_empty()
        ));
    }

    #[test]
    fn error_on_empty_range() {
        // The range is on line 2; the token after it is on line 3.
        let err = parse("kernel k {\n  index i : 5..3\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "empty index range 5..3");
    }

    #[test]
    fn error_reports_line() {
        // The dimension list is cut off by the `}` on line 4.
        let err = parse("kernel k {\n  index i : 0..4\n  input a : [\n}").unwrap_err();
        assert_eq!(err.line, 4);
    }

    #[test]
    fn min_max_parse_as_binary() {
        let k = parse("kernel k { let y = min(1.0, max(2.0, 3.0)) }").unwrap();
        let Item::Let { value, .. } = &k.items[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Binary { op: BinOp::Min, .. }));
    }

    /// `let y[i] = <expr>` in a kernel that declares `a`, on line 4.
    fn kernel_around(expr: &str) -> String {
        format!("kernel deep {{\n  index i : 0..4\n  input a : [i]\n  let y[i] = {expr}\n  output y\n}}")
    }

    fn assert_too_deep(expr: &str) {
        let err = parse(&kernel_around(expr)).unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(
            err.to_string(),
            format!("parse error at line 4: expression nests deeper than {MAX_EXPR_DEPTH} levels")
        );
    }

    #[test]
    fn parentheses_nest_to_the_bound_and_no_further() {
        let wrapped = |n: usize| format!("{}a[i]{}", "(".repeat(n), ")".repeat(n));
        // The subscripted leaf is two levels (`a[..]` over `i`).
        parse(&kernel_around(&wrapped(MAX_EXPR_DEPTH - 2))).expect("at the bound");
        assert_too_deep(&wrapped(MAX_EXPR_DEPTH - 1));
        assert_too_deep(&wrapped(20_000));
        // A call or a subscript is one level, its brackets included.
        let called = |n: usize| format!("{}a[i]{}", "abs(".repeat(n), ")".repeat(n));
        parse(&kernel_around(&called(MAX_EXPR_DEPTH - 2))).expect("at the bound");
        assert_too_deep(&called(MAX_EXPR_DEPTH - 1));
        let indexed = |n: usize| format!("{}i{}", "a[".repeat(n), "]".repeat(n));
        parse(&kernel_around(&indexed(MAX_EXPR_DEPTH - 1))).expect("at the bound");
        assert_too_deep(&indexed(MAX_EXPR_DEPTH));
    }

    #[test]
    fn unary_minus_chains_to_the_bound_and_no_further() {
        let negated = |n: usize| format!("{}a[i]", "-".repeat(n));
        parse(&kernel_around(&negated(MAX_EXPR_DEPTH - 2))).expect("at the bound");
        assert_too_deep(&negated(MAX_EXPR_DEPTH - 1));
        assert_too_deep(&negated(200_000));
    }

    #[test]
    fn operator_chains_grow_a_tree_to_the_bound_and_no_further() {
        let summed = |terms: usize| vec!["a[i]"; terms].join(" + ");
        // `terms - 1` additions over a two-level leaf.
        parse(&kernel_around(&summed(MAX_EXPR_DEPTH - 1))).expect("at the bound");
        assert_too_deep(&summed(MAX_EXPR_DEPTH));
        assert_too_deep(&summed(200_000));
        let multiplied = |terms: usize| vec!["a[i]"; terms].join(" * ");
        parse(&kernel_around(&multiplied(MAX_EXPR_DEPTH - 1))).expect("at the bound");
        assert_too_deep(&multiplied(MAX_EXPR_DEPTH));
        // A chain that is wide, not deep, is no deeper for its length.
        let wide = vec![format!("({})", summed(8)); 24].join(" * ");
        parse(&kernel_around(&format!("({wide}) + ({wide})"))).expect("wide");
    }

    #[test]
    fn an_expression_at_the_bound_checks_and_lowers() {
        let wrapped = format!(
            "{}a[i]{}",
            "(".repeat(MAX_EXPR_DEPTH - 2),
            ")".repeat(MAX_EXPR_DEPTH - 2)
        );
        let summed = vec!["a[i]"; MAX_EXPR_DEPTH - 1].join(" - ");
        for expr in [wrapped, summed] {
            let kernel = parse(&kernel_around(&expr)).expect("parses");
            let program = crate::check::check(&kernel).expect("checks");
            let module = crate::lower::lower_to_loops(&program).expect("lowers");
            assert!(module.num_ops() > 0);
        }
    }
}
