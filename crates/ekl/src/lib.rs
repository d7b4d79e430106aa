//! # everest-ekl
//!
//! The EVEREST Kernel Language (paper §V-A.1): a tensor DSL providing a
//! general syntax for the Einstein notation, extended with the features
//! the paper lists as necessary for the WRF RRTMG radiation kernel —
//! in-place construction, broadcasting, index re-association and
//! subscripted subscripts.
//!
//! The crate provides the full frontend pipeline:
//!
//! * [`token`] / [`parser`] — lexing and parsing EKL text;
//! * [`mod@check`] — semantic analysis to a validated [`check::Program`];
//! * [`interp`] — the evaluator defining the semantics: a [`Program`]
//!   is bound and compiled once into an [`interp::Plan`], a flat
//!   instruction list, and run many times (the tree-walking evaluators
//!   it replaced are the references under `tests/reference/`);
//! * [`lower`] — lowering to loop-level IR (`everest-ir`) for HLS;
//! * [`rrtmg`] — the Fig. 3 major-absorber kernel: EKL template,
//!   synthetic gas-optics inputs and the Fortran-shaped reference
//!   implementation it replaces.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_ekl::{check::check, interp, parser::parse};
//! use std::collections::HashMap;
//!
//! let kernel = parse(
//!     "kernel axpy {
//!        index i : 0..4
//!        input a : [i]
//!        input x : [i]
//!        let y[i] = 2.0 * a[i] + x[i]
//!        output y
//!      }",
//! )?;
//! let program = check(&kernel)?;
//! let mut inputs = HashMap::new();
//! inputs.insert("a".into(), interp::Tensor::from_data(&[4], vec![1.0, 2.0, 3.0, 4.0]));
//! inputs.insert("x".into(), interp::Tensor::from_data(&[4], vec![0.5; 4]));
//! let outputs = interp::evaluate(&program, &inputs)?;
//! assert_eq!(outputs["y"].data, vec![2.5, 4.5, 6.5, 8.5]);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod cfdlang;
pub mod check;
pub mod interp;
pub mod lower;
pub mod parser;
pub mod rrtmg;
pub mod token;

pub use check::{check, Program};
pub use interp::{evaluate, Tensor};
pub use lower::lower_to_loops;
pub use parser::parse;
