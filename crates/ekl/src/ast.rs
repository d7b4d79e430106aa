//! Abstract syntax tree of the EVEREST Kernel Language.
//!
//! EKL is the tensor DSL of paper §V-A.1: a general syntax for the
//! Einstein notation extended — as the paper requires for RRTMG — with
//! `select`, broadcasting, index re-association (index arithmetic in
//! subscripts) and *subscripted subscripts* (tensor references used as
//! indices).

use std::fmt;

/// A complete kernel definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Items in source order.
    pub items: Vec<Item>,
}

/// One top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `index i : lo..hi` — an index variable ranging over `[lo, hi)`.
    Index {
        /// Index name.
        name: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// `input t : [d0, d1, ...]` (`of int` marks an integer tensor).
    Input {
        /// Tensor name.
        name: String,
        /// Dimensions: literals or index names (whose extent is used).
        dims: Vec<Dim>,
        /// Whether elements are integers (index tables).
        integer: bool,
    },
    /// `let t[i, j] = expr` — defines a tensor over the listed free
    /// indices; scalars use an empty list.
    Let {
        /// Tensor name.
        name: String,
        /// Free (LHS) indices.
        indices: Vec<String>,
        /// Right-hand side.
        value: Expr,
    },
    /// `output t` — marks a tensor as a kernel output.
    Output {
        /// Tensor name.
        name: String,
    },
}

/// A dimension specifier in an input declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Dim {
    /// A literal extent.
    Literal(u64),
    /// The extent of a declared index variable.
    Index(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Elementwise minimum (`min(a, b)`).
    Min,
    /// Elementwise maximum (`max(a, b)`).
    Max,
}

/// Comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "le",
            CmpOp::Lt => "lt",
            CmpOp::Ge => "ge",
            CmpOp::Gt => "gt",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        };
        write!(f, "{s}")
    }
}

/// Unary builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `exp(x)`
    Exp,
    /// `log(x)`
    Log,
    /// `sqrt(x)`
    Sqrt,
    /// `abs(x)`
    Abs,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (index- or value-typed depending on context).
    Int(i64),
    /// Float literal.
    Float(f64),
    /// A reference: an index variable (`x`), a scalar tensor (`strato`)
    /// or a subscripted tensor (`k[i, j]`). Subscripts may themselves be
    /// arbitrary integer expressions, including tensor references — the
    /// paper's subscripted subscripts.
    Ref {
        /// Referenced name.
        name: String,
        /// Subscripts (`None` = bare name; `Some(vec![])` = explicit `[]`).
        subscripts: Option<Vec<Expr>>,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A comparison (produces a boolean, only usable in `select`).
    Compare {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `select(cond, then, else)`.
    Select {
        /// Condition (a comparison).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `sum(i, j)(body)` — explicit Einstein summation over indices.
    Sum {
        /// Summation indices.
        indices: Vec<String>,
        /// Summed expression.
        body: Box<Expr>,
    },
    /// A unary builtin call.
    Call {
        /// Which builtin.
        builtin: Builtin,
        /// Argument.
        arg: Box<Expr>,
    },
    /// Unary negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for references without subscripts.
    pub fn name(n: &str) -> Expr {
        Expr::Ref {
            name: n.to_string(),
            subscripts: None,
        }
    }
}
