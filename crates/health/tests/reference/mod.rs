//! Implementations the crate replaced, kept as test oracles.

pub(crate) mod monitor;
