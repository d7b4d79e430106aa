//! The dialects the EVEREST flows build (paper Fig. 5).
//!
//! Blue (EVEREST-contributed) dialects: `dfg` (ConDRust dataflow graphs),
//! `base2` (custom numeral formats) and `olympus` (system architecture).
//! Green (core MLIR) dialects reimplemented here at the granularity the
//! lowerings need: `func`, `arith`, `scf` and `memref`.
//!
//! Fig. 5's tensor level (`ekl`, `cfdlang`, `teil`, `esn`) is not an IR
//! level here: Einstein notation, broadcasting and subscripted
//! subscripts live in EKL's typed AST and checker (crate `everest-ekl`),
//! which lowers straight to `scf`/`arith`/`memref`, and CFDlang
//! translates to EKL. An op kind is registered only if code outside this
//! crate builds, consumes, costs or tests it.
//!
//! Each op's contract is declared once, in its `OpSpec`: arities,
//! regions, required attributes, traits, and its type and attribute
//! rules as a [`Constraint`](crate::constraint::Constraint) list
//! (`with_constraints`). No dialect writes a verifier function; the
//! verifier and the `type-mismatch` lint both read the lists.
//!
//! Every op name registered here and every attribute name an `OpSpec`
//! requires (`with_attr`) is also listed in the interner's constant
//! name table (`intern::REGISTERED`), which seeds those names at fixed
//! ids and answers them without a lock. Adding or removing an op or a
//! required attribute means editing that list too; `registry`'s tests
//! fail until the two agree.

pub mod core;
pub mod dataflow;
pub(crate) mod numerics;
pub mod system;

use crate::registry::Dialect;

/// Returns every dialect in the EVEREST stack, ready for registration in a
/// [`Context`](crate::registry::Context).
pub(crate) fn all_dialects() -> Vec<Dialect> {
    vec![
        core::func_dialect(),
        core::arith_dialect(),
        core::scf_dialect(),
        core::memref_dialect(),
        dataflow::dfg_dialect(),
        numerics::base2_dialect(),
        system::olympus_dialect(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_dialects_registered() {
        let dialects = all_dialects();
        assert_eq!(dialects.len(), 7);
        assert_eq!(dialects.iter().map(Dialect::len).sum::<usize>(), 61);
    }

    #[test]
    fn dialect_names_are_unique() {
        let mut names: Vec<String> = all_dialects().into_iter().map(|d| d.name).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_dialect_has_ops_and_description() {
        for d in all_dialects() {
            assert!(!d.is_empty(), "dialect {} has no ops", d.name);
            assert!(!d.description.is_empty());
        }
    }
}
