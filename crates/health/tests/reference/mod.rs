//! Implementations the crate replaced, kept as test oracles.

pub mod monitor;
