//! Implementations the crate replaced, kept as test oracles.

pub mod model;
pub mod radiation;
