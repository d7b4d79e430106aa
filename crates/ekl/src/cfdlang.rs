//! CFDlang frontend — the legacy tensor DSL the SDK keeps supporting
//! (paper §V-A/§V-B; Rink et al., RWDSL 2018).
//!
//! CFDlang programs declare typed tensor variables and assign tensor
//! expressions built from `+`, `-`, `*` (elementwise), `#` (outer
//! product) and `.` (contraction over the adjacent dimension pair).
//! The frontend translates them into EKL items, re-using the validated
//! EKL pipeline (checker, evaluator, loop lowering). The paper's Fig. 5
//! has both input languages converge at the `teil` tensor level; here
//! they converge at EKL's checked AST, which lowers straight to
//! `scf`/`arith`/`memref`.
//!
//! ```text
//! var input  A : [4 8]
//! var input  B : [8 2]
//! var output C : [4 2]
//! C = A . B
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{BinOp, Dim, Expr, Item, Kernel};
use crate::check::{check, Program};
use crate::parser::MAX_EXPR_DEPTH;

/// CFDlang front-end errors.
#[derive(Debug, Clone, PartialEq)]
pub struct CfdError {
    /// 1-based line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CfdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfdlang error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CfdError {}

fn err(line: usize, message: impl Into<String>) -> CfdError {
    CfdError {
        line,
        message: message.into(),
    }
}

/// Variable role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Input,
    Output,
    Temp,
}

/// A parsed expression tree.
#[derive(Debug, Clone, PartialEq)]
enum CExpr {
    Var(String),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Outer(Box<CExpr>, Box<CExpr>),
    Contract(Box<CExpr>, Box<CExpr>),
}

/// Compiles CFDlang source into a validated EKL [`Program`] named
/// `program_name`.
///
/// # Errors
///
/// Returns [`CfdError`] on syntax errors, unknown variables, shape
/// mismatches, or assignments to inputs.
pub fn compile(source: &str, program_name: &str) -> Result<Program, CfdError> {
    let mut vars: BTreeMap<String, (Role, Vec<u64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut assigns: Vec<(usize, String, CExpr)> = Vec::new();

    for (ln, raw) in source.lines().enumerate() {
        let line_no = ln + 1;
        // '#' doubles as the outer-product operator, so only full-line
        // comments are supported.
        let line = if raw.trim_start().starts_with('#') {
            ""
        } else {
            raw.trim()
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("var ") {
            let (role, rest) = if let Some(r) = rest.trim().strip_prefix("input ") {
                (Role::Input, r)
            } else if let Some(r) = rest.trim().strip_prefix("output ") {
                (Role::Output, r)
            } else {
                (Role::Temp, rest.trim())
            };
            let (name, ty) = rest
                .split_once(':')
                .ok_or_else(|| err(line_no, "expected `name : [dims]`"))?;
            let name = name.trim().to_string();
            let ty = ty.trim();
            if !ty.starts_with('[') || !ty.ends_with(']') {
                return Err(err(line_no, format!("expected `[dims]`, found `{ty}`")));
            }
            let dims: Vec<u64> = ty[1..ty.len() - 1]
                .split_whitespace()
                .map(|d| {
                    d.parse::<u64>()
                        .map_err(|_| err(line_no, format!("bad dimension '{d}'")))
                })
                .collect::<Result<_, _>>()?;
            if vars.contains_key(&name) {
                return Err(err(line_no, format!("duplicate variable '{name}'")));
            }
            vars.insert(name.clone(), (role, dims));
            order.push(name);
        } else if let Some((target, expr)) = line.split_once('=') {
            let target = target.trim().to_string();
            let expr = parse_expr(expr.trim(), line_no)?;
            assigns.push((line_no, target, expr));
        } else {
            return Err(err(line_no, format!("cannot parse '{line}'")));
        }
    }

    // Translate to EKL items.
    let mut items: Vec<Item> = Vec::new();
    let mut index_count = 0usize;
    let mut declared_extents: BTreeMap<String, u64> = BTreeMap::new();

    for name in &order {
        let (role, dims) = &vars[name];
        if *role == Role::Input {
            items.push(Item::Input {
                name: name.clone(),
                dims: dims.iter().map(|&d| Dim::Literal(d)).collect(),
                integer: false,
            });
        }
    }

    let mut defined: BTreeMap<String, Vec<u64>> = vars
        .iter()
        .filter(|(_, (role, _))| *role == Role::Input)
        .map(|(n, (_, d))| (n.clone(), d.clone()))
        .collect();
    let mut outputs = Vec::new();

    for (line_no, target, expr) in &assigns {
        let (role, declared_dims) = vars
            .get(target)
            .ok_or_else(|| err(*line_no, format!("assignment to undeclared '{target}'")))?
            .clone();
        if role == Role::Input {
            return Err(err(*line_no, format!("cannot assign to input '{target}'")));
        }
        // Build the EKL expression with fresh free indices for the result.
        let shape = infer_shape(expr, &defined, *line_no)?;
        if shape != declared_dims {
            return Err(err(
                *line_no,
                format!(
                    "'{target}' declared as {declared_dims:?} but expression has shape {shape:?}"
                ),
            ));
        }
        let free: Vec<String> = shape
            .iter()
            .map(|&extent| fresh_index(&mut index_count, extent, &mut declared_extents, &mut items))
            .collect::<Vec<_>>();
        let value = translate(
            expr,
            &free,
            &defined,
            &mut index_count,
            &mut declared_extents,
            &mut items,
            *line_no,
        )?;
        items.push(Item::Let {
            name: target.clone(),
            indices: free,
            value,
        });
        defined.insert(target.clone(), shape);
        if role == Role::Output && !outputs.contains(target) {
            outputs.push(target.clone());
        }
    }
    for o in &outputs {
        items.push(Item::Output { name: o.clone() });
    }

    let kernel = Kernel {
        name: program_name.to_string(),
        items,
    };
    check(&kernel).map_err(|e| err(0, e.message))
}

/// Declares (or reuses) an index of the given extent; returns its name.
fn fresh_index(
    count: &mut usize,
    extent: u64,
    declared: &mut BTreeMap<String, u64>,
    items: &mut Vec<Item>,
) -> String {
    let name = format!("cfd_i{}", *count);
    *count += 1;
    declared.insert(name.clone(), extent);
    items.push(Item::Index {
        name: name.clone(),
        lo: 0,
        hi: extent as i64,
    });
    name
}

fn infer_shape(
    expr: &CExpr,
    defined: &BTreeMap<String, Vec<u64>>,
    line: usize,
) -> Result<Vec<u64>, CfdError> {
    match expr {
        CExpr::Var(name) => defined
            .get(name)
            .cloned()
            .ok_or_else(|| err(line, format!("use of undefined variable '{name}'"))),
        CExpr::Add(a, b) | CExpr::Sub(a, b) | CExpr::Mul(a, b) => {
            let sa = infer_shape(a, defined, line)?;
            let sb = infer_shape(b, defined, line)?;
            if sa != sb {
                return Err(err(
                    line,
                    format!("elementwise operands differ: {sa:?} vs {sb:?}"),
                ));
            }
            Ok(sa)
        }
        CExpr::Outer(a, b) => {
            let mut sa = infer_shape(a, defined, line)?;
            sa.extend(infer_shape(b, defined, line)?);
            Ok(sa)
        }
        CExpr::Contract(a, b) => {
            let sa = infer_shape(a, defined, line)?;
            let sb = infer_shape(b, defined, line)?;
            let (Some(&ka), Some(&kb)) = (sa.last(), sb.first()) else {
                return Err(err(line, "contraction of a scalar"));
            };
            if ka != kb {
                return Err(err(line, format!("contraction dims differ: {ka} vs {kb}")));
            }
            let mut out = sa[..sa.len() - 1].to_vec();
            out.extend(&sb[1..]);
            Ok(out)
        }
    }
}

/// Translates `expr` to an EKL expression whose free result dims are
/// bound to `free`.
#[allow(clippy::too_many_arguments)]
fn translate(
    expr: &CExpr,
    free: &[String],
    defined: &BTreeMap<String, Vec<u64>>,
    count: &mut usize,
    declared: &mut BTreeMap<String, u64>,
    items: &mut Vec<Item>,
    line: usize,
) -> Result<Expr, CfdError> {
    match expr {
        CExpr::Var(name) => Ok(Expr::Ref {
            name: name.clone(),
            subscripts: Some(free.iter().map(|i| Expr::name(i)).collect()),
        }),
        CExpr::Add(a, b) | CExpr::Sub(a, b) | CExpr::Mul(a, b) => {
            let op = match expr {
                CExpr::Add(..) => BinOp::Add,
                CExpr::Sub(..) => BinOp::Sub,
                _ => BinOp::Mul,
            };
            Ok(Expr::Binary {
                op,
                lhs: Box::new(translate(a, free, defined, count, declared, items, line)?),
                rhs: Box::new(translate(b, free, defined, count, declared, items, line)?),
            })
        }
        CExpr::Outer(a, b) => {
            let ra = infer_shape(a, defined, line)?.len();
            let (fa, fb) = free.split_at(ra);
            Ok(Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(translate(a, fa, defined, count, declared, items, line)?),
                rhs: Box::new(translate(b, fb, defined, count, declared, items, line)?),
            })
        }
        CExpr::Contract(a, b) => {
            let sa = infer_shape(a, defined, line)?;
            let extent = *sa.last().expect("checked by infer_shape");
            let sum_index = fresh_index(count, extent, declared, items);
            let ra = sa.len() - 1;
            let (fa, fb) = free.split_at(ra);
            let mut lhs_free: Vec<String> = fa.to_vec();
            lhs_free.push(sum_index.clone());
            let mut rhs_free: Vec<String> = vec![sum_index.clone()];
            rhs_free.extend(fb.iter().cloned());
            let product = Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(translate(
                    a, &lhs_free, defined, count, declared, items, line,
                )?),
                rhs: Box::new(translate(
                    b, &rhs_free, defined, count, declared, items, line,
                )?),
            };
            Ok(Expr::Sum {
                indices: vec![sum_index],
                body: Box::new(product),
            })
        }
    }
}

/// An expression and the height of the EKL tree it translates to.
type Tall = (CExpr, usize);

/// Parses one assignment's right-hand side; parentheses group.
///
/// The expression may nest at most [`MAX_EXPR_DEPTH`] levels, the bound
/// EKL's own parser sets, counted on the EKL tree it translates to: a
/// variable is two levels (`A[i, ..]`), an operator adds one, a
/// contraction two (a sum over a product) and a pair of parentheses one,
/// as in EKL. That keeps the parser's recursion, the shape inference and
/// translation below and EKL's `check` and `lower` inside the depth EKL
/// source may reach — ten thousand parentheses, or `A + A + ...` over a
/// hundred thousand terms, are an error and not a stack overflow.
fn parse_expr(text: &str, line: usize) -> Result<CExpr, CfdError> {
    let tokens = tokenize(text, line)?;
    let mut parser = ExprParser {
        tokens: &tokens,
        pos: 0,
        line,
        open: 0,
    };
    let (expr, _) = parser.parse_binary(0)?;
    if parser.pos != tokens.len() {
        return Err(err(line, "trailing tokens after expression"));
    }
    Ok(expr)
}

fn tokenize(text: &str, line: usize) -> Result<Vec<String>, CfdError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c.is_ascii_alphanumeric() || c == '_' {
            let mut word = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    word.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(word);
        } else if "+-*.#()".contains(c) {
            tokens.push(c.to_string());
            chars.next();
        } else {
            return Err(err(line, format!("unexpected character '{c}'")));
        }
    }
    Ok(tokens)
}

/// How tightly a binary operator binds: `.` tighter than `#`, which
/// binds tighter than `*`, then `+` and `-`.
fn precedence(op: &str) -> Option<usize> {
    match op {
        "+" | "-" => Some(0),
        "*" => Some(1),
        "#" => Some(2),
        "." => Some(3),
        _ => None,
    }
}

struct ExprParser<'t> {
    tokens: &'t [String],
    pos: usize,
    line: usize,
    /// Parentheses open on the parser's own stack.
    open: usize,
}

impl<'t> ExprParser<'t> {
    fn peek(&self) -> Option<&'t str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    /// The height of `levels` levels over a tallest child `below` high.
    fn over(&self, below: usize, levels: usize) -> Result<usize, CfdError> {
        if below + levels <= MAX_EXPR_DEPTH {
            Ok(below + levels)
        } else {
            Err(err(
                self.line,
                format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
            ))
        }
    }

    /// A left-associative chain of operators that bind at least `min`
    /// tightly. Precedence climbing recurses only into a parenthesis or a
    /// tighter operator's right operand, so a pair of parentheses costs
    /// two or three frames of the stack, not one per precedence level.
    fn parse_binary(&mut self, min: usize) -> Result<Tall, CfdError> {
        let (mut lhs, mut height) = self.parse_primary()?;
        while let Some(op) = self.peek() {
            let Some(tier) = precedence(op).filter(|&tier| tier >= min) else {
                break;
            };
            self.pos += 1;
            let (rhs, r) = self.parse_binary(tier + 1)?;
            let (a, b) = (Box::new(lhs), Box::new(rhs));
            let (expr, levels) = match op {
                "+" => (CExpr::Add(a, b), 1),
                "-" => (CExpr::Sub(a, b), 1),
                "*" => (CExpr::Mul(a, b), 1),
                "#" => (CExpr::Outer(a, b), 1),
                _ => (CExpr::Contract(a, b), 2),
            };
            lhs = expr;
            height = self.over(height.max(r), levels)?;
        }
        Ok((lhs, height))
    }

    fn parse_primary(&mut self) -> Result<Tall, CfdError> {
        let Some(token) = self.peek() else {
            return Err(err(self.line, "unexpected end of expression"));
        };
        self.pos += 1;
        if token == "(" {
            // Checked on the way down: the height is known only on the way up.
            self.over(self.open, 1)?;
            self.open += 1;
            let (inner, height) = self.parse_binary(0)?;
            self.open -= 1;
            if self.peek() != Some(")") {
                return Err(err(self.line, "missing ')'"));
            }
            self.pos += 1;
            Ok((inner, self.over(height, 1)?))
        } else if token
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            Ok((CExpr::Var(token.to_string()), 2))
        } else {
            Err(err(self.line, format!("unexpected token '{token}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{evaluate, Tensor};
    use std::collections::HashMap;

    fn run(source: &str, inputs: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
        let program = compile(source, "cfd").expect("compiles");
        let map: HashMap<String, Tensor> = inputs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        evaluate(&program, &map)
            .expect("evaluates")
            .into_iter()
            .collect()
    }

    #[test]
    fn matrix_multiply_via_contraction() {
        let out = run(
            "var input A : [2 3]
             var input B : [3 2]
             var output C : [2 2]
             C = A . B",
            &[
                (
                    "A",
                    Tensor::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                ),
                (
                    "B",
                    Tensor::from_data(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]),
                ),
            ],
        );
        assert_eq!(out["C"].data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn outer_product_and_elementwise() {
        let out = run(
            "var input u : [2]
             var input v : [3]
             var output M : [2 3]
             var output S : [2]
             M = u # v
             S = u + u * u",
            &[
                ("u", Tensor::from_data(&[2], vec![2.0, 3.0])),
                ("v", Tensor::from_data(&[3], vec![1.0, 10.0, 100.0])),
            ],
        );
        assert_eq!(out["M"].data, vec![2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
        assert_eq!(out["S"].data, vec![6.0, 12.0]); // u + u*u
    }

    #[test]
    fn intermediates_chain_like_cfd_kernels() {
        // the CFDlang interpolation pattern: tmp = A . u ; out = A . tmp
        let a = Tensor::from_data(&[2, 2], vec![0.0, 1.0, 1.0, 0.0]); // swap
        let u = Tensor::from_data(&[2], vec![5.0, 7.0]);
        let out = run(
            "var input A : [2 2]
             var input u : [2]
             var t : [2]
             var output r : [2]
             t = A . u
             r = A . t",
            &[("A", a), ("u", u)],
        );
        assert_eq!(out["r"].data, vec![5.0, 7.0], "double swap is identity");
    }

    #[test]
    fn rank3_contraction() {
        // T[2,2,3] . v[3] -> [2,2]
        let t = Tensor::from_data(&[2, 2, 3], (0..12).map(|v| v as f64).collect());
        let v = Tensor::from_data(&[3], vec![1.0, 1.0, 1.0]);
        let out = run(
            "var input T : [2 2 3]
             var input v : [3]
             var output R : [2 2]
             R = T . v",
            &[("T", t), ("v", v)],
        );
        assert_eq!(out["R"].data, vec![3.0, 12.0, 21.0, 30.0]);
    }

    #[test]
    fn lowered_cfdlang_matches_interp() {
        let program = compile(
            "var input A : [3 4]
             var input B : [4 3]
             var output C : [3 3]
             C = A . B + A . B",
            "cfd",
        )
        .expect("compiles");
        let module = crate::lower::lower_to_loops(&program).expect("lowers");
        everest_ir::verify::verify_module(
            &everest_ir::registry::Context::with_all_dialects(),
            &module,
        )
        .expect("verifies");
    }

    #[test]
    fn shape_errors_are_reported() {
        let e = compile(
            "var input A : [2 3]
             var input B : [2 3]
             var output C : [2 2]
             C = A . B",
            "cfd",
        )
        .unwrap_err();
        assert!(e.message.contains("contraction dims differ"), "{e}");

        let e = compile(
            "var input A : [2]
             var output C : [3]
             C = A + A",
            "cfd",
        )
        .unwrap_err();
        assert!(e.message.contains("declared as"), "{e}");
    }

    #[test]
    fn zero_and_overflowing_dimensions_are_rejected() {
        // `[0]` used to compile to an index `0..0` whose `let` the
        // evaluator ran once; a dimension past `i64::MAX` to a reversed one.
        for dim in ["0", "9223372036854775808"] {
            let e = compile(
                &format!("var input u : [{dim}]\nvar output w : [{dim}]\nw = u + u"),
                "k",
            )
            .unwrap_err();
            assert!(e.message.contains("has empty range"), "{e}");
        }
    }

    #[test]
    fn misuse_errors() {
        let e = compile("var input A : [2]\nA = A + A", "cfd").unwrap_err();
        assert!(e.message.contains("cannot assign to input"));
        let e = compile("var output C : [2]\nC = X + X", "cfd").unwrap_err();
        assert!(e.message.contains("undefined variable"));
        let e = compile("frobnicate", "cfd").unwrap_err();
        assert!(e.message.contains("cannot parse"));
    }

    /// `C = <expr>` over a square `A`, on line 3.
    fn program_around(expr: &str) -> String {
        format!("var input A : [2 2]\nvar output C : [2 2]\nC = {expr}\n")
    }

    fn assert_too_deep(expr: &str) {
        let e = compile(&program_around(expr), "deep").unwrap_err();
        assert_eq!(
            e.to_string(),
            format!(
                "cfdlang error at line 3: expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )
        );
    }

    #[test]
    fn expressions_nest_to_the_bound_and_no_further() {
        let wrapped = |n: usize| format!("{}A{}", "(".repeat(n), ")".repeat(n));
        let summed = |terms: usize| vec!["A"; terms].join(" + ");
        let contracted = |terms: usize| vec!["A"; terms].join(" . ");
        // A variable is two levels, `+` one more and `.` two.
        for at_bound in [
            wrapped(MAX_EXPR_DEPTH - 2),
            summed(MAX_EXPR_DEPTH - 1),
            contracted(MAX_EXPR_DEPTH / 2),
        ] {
            let program = compile(&program_around(&at_bound), "deep").expect("at the bound");
            let module = crate::lower::lower_to_loops(&program).expect("lowers");
            assert!(module.num_ops() > 0);
        }
        assert_too_deep(&wrapped(MAX_EXPR_DEPTH - 1));
        assert_too_deep(&summed(MAX_EXPR_DEPTH));
        assert_too_deep(&contracted(MAX_EXPR_DEPTH / 2 + 1));
        assert_too_deep(&wrapped(20_000));
        assert_too_deep(&summed(200_000));
    }
}
