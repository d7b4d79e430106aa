//! The optimizer and lexer the owned-rewrite optimizer and the
//! borrowing lexer replaced, kept as the references they are held to in
//! `query_props.rs`.

// Kept whole: not every item they had is called from here.
#![allow(dead_code)]

pub(crate) mod optimizer;
pub(crate) mod token;
