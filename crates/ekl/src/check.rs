//! Semantic analysis: name resolution, rank/shape checking and
//! int/float kind inference.
//!
//! Produces a [`Program`], the validated form consumed by the
//! [evaluator](crate::interp) and the [lowering](crate::lower).

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{Dim, Expr, Item, Kernel};

/// The kind (element type) of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Integer-valued (usable as a subscript).
    Int,
    /// Real-valued.
    Float,
    /// Boolean (comparison result; only usable as a `select` condition).
    Bool,
}

/// Information about a declared or defined tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorInfo {
    /// Static shape (extents of the defining indices for `let` tensors).
    pub shape: Vec<u64>,
    /// Whether elements are integers.
    pub integer: bool,
    /// `true` for `input` tensors, `false` for `let`-defined ones.
    pub is_input: bool,
}

/// A validated `let` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedLet {
    /// Defined tensor name.
    pub name: String,
    /// LHS (free) indices.
    pub indices: Vec<String>,
    /// RHS expression (validated).
    pub value: Expr,
    /// Inferred element kind (Int or Float).
    pub kind: Kind,
}

/// A validated kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Kernel name.
    pub name: String,
    /// Index variables: name → `(lo, hi)` half-open range.
    pub indices: BTreeMap<String, (i64, i64)>,
    /// All tensors by name.
    pub tensors: BTreeMap<String, TensorInfo>,
    /// Input tensor names in declaration order.
    pub inputs: Vec<String>,
    /// Validated `let` statements in order.
    pub lets: Vec<TypedLet>,
    /// Output tensor names in declaration order.
    pub outputs: Vec<String>,
}

impl Program {
    /// Extent of an index variable.
    ///
    /// # Panics
    ///
    /// Panics if the index is undeclared (cannot happen for validated
    /// programs).
    pub fn extent(&self, index: &str) -> u64 {
        let (lo, hi) = self.indices[index];
        (hi - lo) as u64
    }
}

/// Semantic error with context.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.message)
    }
}

impl std::error::Error for CheckError {}

fn err(message: impl Into<String>) -> CheckError {
    CheckError {
        message: message.into(),
    }
}

/// Validates a parsed kernel.
///
/// # Errors
///
/// Returns a [`CheckError`] describing the first violation: duplicate or
/// unknown names, empty index ranges, rank mismatches, unbound indices,
/// or kind errors (e.g. a float used as a subscript).
pub fn check(kernel: &Kernel) -> Result<Program, CheckError> {
    let mut program = Program {
        name: kernel.name.clone(),
        indices: BTreeMap::new(),
        tensors: BTreeMap::new(),
        inputs: Vec::new(),
        lets: Vec::new(),
        outputs: Vec::new(),
    };

    for item in &kernel.items {
        match item {
            Item::Index { name, lo, hi } => {
                if program.indices.contains_key(name) || program.tensors.contains_key(name) {
                    return Err(err(format!("duplicate name '{name}'")));
                }
                if *lo != 0 {
                    return Err(err(format!(
                        "index '{name}' must start at 0 (got {lo}); shift subscripts instead"
                    )));
                }
                if hi <= lo {
                    return Err(err(format!("index '{name}' has empty range {lo}..{hi}")));
                }
                program.indices.insert(name.clone(), (*lo, *hi));
            }
            Item::Input {
                name,
                dims,
                integer,
            } => {
                if program.indices.contains_key(name) || program.tensors.contains_key(name) {
                    return Err(err(format!("duplicate name '{name}'")));
                }
                let shape: Vec<u64> = dims
                    .iter()
                    .map(|d| match d {
                        Dim::Literal(v) => Ok(*v),
                        Dim::Index(i) => program
                            .indices
                            .get(i)
                            .map(|(lo, hi)| (hi - lo) as u64)
                            .ok_or_else(|| {
                                err(format!("unknown index '{i}' in shape of '{name}'"))
                            }),
                    })
                    .collect::<Result<_, _>>()?;
                program.tensors.insert(
                    name.clone(),
                    TensorInfo {
                        shape,
                        integer: *integer,
                        is_input: true,
                    },
                );
                program.inputs.push(name.clone());
            }
            Item::Let {
                name,
                indices,
                value,
            } => {
                if program.indices.contains_key(name) || program.tensors.contains_key(name) {
                    return Err(err(format!("duplicate name '{name}'")));
                }
                for i in indices {
                    if !program.indices.contains_key(i) {
                        return Err(err(format!("undeclared index '{i}' on lhs of '{name}'")));
                    }
                }
                let mut bound: Vec<String> = indices.clone();
                let kind = check_expr(&program, value, &mut bound)?;
                if kind == Kind::Bool {
                    return Err(err(format!(
                        "'{name}' is a bare comparison; wrap it in select(...)"
                    )));
                }
                let shape: Vec<u64> = indices.iter().map(|i| program.extent(i)).collect();
                program.tensors.insert(
                    name.clone(),
                    TensorInfo {
                        shape,
                        integer: kind == Kind::Int,
                        is_input: false,
                    },
                );
                program.lets.push(TypedLet {
                    name: name.clone(),
                    indices: indices.clone(),
                    value: value.clone(),
                    kind,
                });
            }
            Item::Output { name } => {
                let info = program
                    .tensors
                    .get(name)
                    .ok_or_else(|| err(format!("output '{name}' is not defined")))?;
                if info.is_input {
                    return Err(err(format!("output '{name}' must be a let-defined tensor")));
                }
                if program.outputs.contains(name) {
                    return Err(err(format!("duplicate output '{name}'")));
                }
                program.outputs.push(name.clone());
            }
        }
    }
    if program.outputs.is_empty() {
        return Err(err("kernel has no outputs"));
    }
    Ok(program)
}

/// Type-checks an expression; `bound` is the set of in-scope index names.
fn check_expr(program: &Program, expr: &Expr, bound: &mut Vec<String>) -> Result<Kind, CheckError> {
    match expr {
        Expr::Int(_) => Ok(Kind::Int),
        Expr::Float(_) => Ok(Kind::Float),
        Expr::Ref { name, subscripts } => {
            if program.indices.contains_key(name) {
                if subscripts.is_some() {
                    return Err(err(format!("index '{name}' cannot be subscripted")));
                }
                if !bound.contains(name) {
                    return Err(err(format!(
                        "index '{name}' is unbound here; bind it on the lhs or in a sum(...)"
                    )));
                }
                return Ok(Kind::Int);
            }
            let info = program
                .tensors
                .get(name)
                .ok_or_else(|| err(format!("unknown name '{name}'")))?;
            let subs = match subscripts {
                Some(s) => s.as_slice(),
                None if info.shape.is_empty() => &[],
                None => {
                    return Err(err(format!(
                        "tensor '{name}' of rank {} used without subscripts",
                        info.shape.len()
                    )))
                }
            };
            if subs.len() != info.shape.len() {
                return Err(err(format!(
                    "tensor '{name}' of rank {} subscripted with {} indices",
                    info.shape.len(),
                    subs.len()
                )));
            }
            for s in subs {
                let k = check_expr(program, s, bound)?;
                if k != Kind::Int {
                    return Err(err(format!("subscript of '{name}' must be integer-valued")));
                }
            }
            Ok(if info.integer { Kind::Int } else { Kind::Float })
        }
        Expr::Binary { lhs, rhs, .. } => {
            let a = check_expr(program, lhs, bound)?;
            let b = check_expr(program, rhs, bound)?;
            if a == Kind::Bool || b == Kind::Bool {
                return Err(err("comparisons can only be used inside select(...)"));
            }
            Ok(if a == Kind::Float || b == Kind::Float {
                Kind::Float
            } else {
                Kind::Int
            })
        }
        Expr::Compare { lhs, rhs, .. } => {
            let a = check_expr(program, lhs, bound)?;
            let b = check_expr(program, rhs, bound)?;
            if a == Kind::Bool || b == Kind::Bool {
                return Err(err("cannot compare comparison results"));
            }
            Ok(Kind::Bool)
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            let c = check_expr(program, cond, bound)?;
            if c != Kind::Bool {
                return Err(err("select condition must be a comparison"));
            }
            let a = check_expr(program, then, bound)?;
            let b = check_expr(program, otherwise, bound)?;
            if a == Kind::Bool || b == Kind::Bool {
                return Err(err("select branches must be values"));
            }
            Ok(if a == Kind::Float || b == Kind::Float {
                Kind::Float
            } else {
                Kind::Int
            })
        }
        Expr::Sum { indices, body } => {
            for i in indices {
                if !program.indices.contains_key(i) {
                    return Err(err(format!("sum over undeclared index '{i}'")));
                }
                if bound.contains(i) {
                    return Err(err(format!("sum re-binds index '{i}'")));
                }
            }
            let before = bound.len();
            bound.extend(indices.iter().cloned());
            let kind = check_expr(program, body, bound)?;
            bound.truncate(before);
            if kind == Kind::Bool {
                return Err(err("cannot sum comparisons"));
            }
            Ok(kind)
        }
        Expr::Call { builtin, arg } => {
            let k = check_expr(program, arg, bound)?;
            if k == Kind::Bool {
                return Err(err(format!("{builtin:?} argument must be a value")));
            }
            let _ = builtin;
            Ok(Kind::Float)
        }
        Expr::Neg(inner) => {
            let k = check_expr(program, inner, bound)?;
            if k == Kind::Bool {
                return Err(err("cannot negate a comparison"));
            }
            Ok(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Program, CheckError> {
        check(&parse(src).expect("parses"))
    }

    #[test]
    fn valid_kernel_produces_program() {
        let p = check_src(
            "kernel k {
               index i : 0..4
               index j : 0..3
               input a : [i, j]
               let row_sum[i] = sum(j)(a[i, j])
               output row_sum
             }",
        )
        .unwrap();
        assert_eq!(p.extent("i"), 4);
        assert_eq!(p.tensors["row_sum"].shape, vec![4]);
        assert_eq!(p.lets[0].kind, Kind::Float);
        assert_eq!(p.outputs, vec!["row_sum".to_string()]);
    }

    #[test]
    fn integer_tensors_and_index_math_are_int_kind() {
        let p = check_src(
            "kernel k {
               index x : 0..4
               index t : 0..2
               input j_T : [x] of int
               let i_T[x, t] = j_T[x] + t
               let y[x] = sum(t)(1.0 * i_T[x, t])
               output y
             }",
        )
        .unwrap();
        assert!(p.tensors["i_T"].integer);
        assert!(!p.tensors["y"].integer);
    }

    #[test]
    fn unbound_index_rejected() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               index j : 0..4
               input a : [i, j]
               let y[i] = a[i, j]
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("unbound"), "{e}");
    }

    #[test]
    fn rank_mismatch_rejected() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i, i]
               let y[i] = a[i]
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("rank 2 subscripted with 1"), "{e}");
    }

    #[test]
    fn float_subscript_rejected() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i]
               input w : [i]
               let y[i] = a[w[i]]
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("must be integer-valued"), "{e}");
    }

    #[test]
    fn bare_comparison_rejected() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i]
               let y[i] = a[i] <= 1.0
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("bare comparison"), "{e}");
    }

    #[test]
    fn select_condition_must_be_comparison() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i]
               let y[i] = select(a[i], 1.0, 2.0)
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("condition must be a comparison"), "{e}");
    }

    #[test]
    fn output_must_be_defined_tensor() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i]
               let y[i] = a[i]
               output a
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("must be a let-defined tensor"), "{e}");

        let e2 =
            check_src("kernel k { index i : 0..4 input a : [i] let y[i] = a[i] }").unwrap_err();
        assert!(e2.message.contains("no outputs"), "{e2}");
    }

    #[test]
    fn sum_rebinding_rejected() {
        let e = check_src(
            "kernel k {
               index i : 0..4
               input a : [i]
               let y[i] = sum(i)(a[i])
               output y
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("re-binds"), "{e}");
    }

    #[test]
    fn duplicate_names_rejected() {
        let e = check_src("kernel k { index i : 0..4 input i : [4] let y = 1.0 output y }")
            .unwrap_err();
        assert!(e.message.contains("duplicate name 'i'"), "{e}");
    }

    #[test]
    fn empty_and_reversed_index_ranges_rejected() {
        // The parser refuses these in text; a kernel built in memory (as
        // the CFDlang front end builds them) reaches `check` directly.
        for hi in [0, -3] {
            let kernel = Kernel {
                name: "k".into(),
                items: vec![
                    Item::Index {
                        name: "i".into(),
                        lo: 0,
                        hi,
                    },
                    Item::Let {
                        name: "y".into(),
                        indices: vec!["i".into()],
                        value: Expr::Float(1.0),
                    },
                    Item::Output { name: "y".into() },
                ],
            };
            let e = check(&kernel).unwrap_err();
            assert!(e.message.contains("index 'i' has empty range"), "{e}");
        }
    }

    #[test]
    fn scalar_let_and_input() {
        let p = check_src(
            "kernel k {
               input s : []
               let y = s * 2.0
               output y
             }",
        )
        .unwrap();
        assert!(p.tensors["y"].shape.is_empty());
    }
}
