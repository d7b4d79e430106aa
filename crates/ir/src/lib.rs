//! # everest-ir
//!
//! An MLIR-style intermediate representation infrastructure plus the
//! EVEREST dialect stack (Pilato et al., *The EVEREST Approach*, DATE
//! 2024, Fig. 5).
//!
//! The crate provides:
//!
//! * an arena-based IR ([`module`]): operations, regions, blocks and SSA
//!   values, with def-use queries and destructive rewrites;
//! * a [type system](types) including the `base2` binary numeral formats
//!   (fixed-point and posit) with bit-accurate [software semantics](base2);
//! * a [dialect registry](registry) and a structural + per-op
//!   [verifier](verify);
//! * a deterministic [printer](mod@print) and a round-tripping
//!   [parser](parse) for the generic textual form;
//! * a [pass manager](pass) with canonicalization passes (constant
//!   folding, CSE, DCE);
//! * the [dialects] the EVEREST flows build: `dfg`, `base2` and `olympus`,
//!   and the core dialects (`func`, `arith`, `scf`, `memref`) that EKL
//!   and CFDlang kernels lower to — EKL's checked AST goes straight to
//!   loops (crate `everest-ekl`), so Fig. 5's tensor level is not an IR
//!   level here.
//!
//! # Examples
//!
//! Build, verify, canonicalize and print a tiny module:
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_ir::dialects::core;
//! use everest_ir::module::Module;
//! use everest_ir::pass::canonicalization_pipeline;
//! use everest_ir::registry::Context;
//! use everest_ir::verify::verify_module;
//!
//! let ctx = Context::with_all_dialects();
//! let mut module = Module::new();
//! let block = module.top_block();
//! let a = core::const_f64(&mut module, block, 3.0);
//! let b = core::const_f64(&mut module, block, 4.0);
//! core::binary(&mut module, block, "arith.addf", a, b);
//!
//! verify_module(&ctx, &module)?;
//! canonicalization_pipeline().run(&ctx, &mut module)?;
//! assert_eq!(module.num_ops(), 0); // unused arithmetic folds away
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod attr;
pub mod base2;
pub mod dialects;
pub mod error;
pub mod ids;
pub mod intern;
pub mod interp;
pub mod location;
pub mod module;
pub mod parse;
pub mod pass;
pub mod print;
pub mod registry;
pub mod types;
// The one module with `unsafe` code, which the workspace lints deny
// everywhere else; its docs say why and what the blocks rely on.
#[allow(unsafe_code)]
pub mod value_list;
pub mod verify;

pub use attr::Attribute;
pub use error::{IrError, IrResult};
pub use ids::{BlockId, OpId, RegionId, ValueId};
pub use intern::Symbol;
pub use location::{OpPath, PathStep};
pub use module::{Module, Operation};
pub use registry::{Context, Dialect, OpSpec, OpTrait};
pub use types::{FixedFormat, MemorySpace, PositFormat, Type};
pub use value_list::ValueList;
