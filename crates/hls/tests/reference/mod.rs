//! The hash-map HLS core the dense tables replaced, kept as the
//! reference `synthesize` is held to
//! (`synthesize_matches_the_hash_map_reference` in `reference_props.rs`).
//!
//! The three files are `cdfg.rs`, `schedule.rs` and the synthesis half
//! of `engine.rs` as they left `src/`: tests, telemetry and
//! `synthesize_many` removed, paths re-pointed, nothing else edited.

// Kept whole: not every field and function it had is read from here.
#![allow(dead_code)]

pub(crate) mod cdfg;
pub(crate) mod engine;
pub(crate) mod schedule;
