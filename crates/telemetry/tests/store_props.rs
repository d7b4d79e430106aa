//! The compact span store against the store it replaced
//! (`reference/`): random scripts of open, arg, close and reset, run
//! step by step on two threads over two registries of each kind, leave
//! equal `spans()` after every step — ids, parents, names, thread ids,
//! which spans are still open and every arg — with the timestamps
//! masked.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use everest_telemetry::{ArgValue, Registry, SpanGuard, SpanRecord};

mod reference;

/// Literal names (kept without a copy by the compact store) and one
/// built at run time.
const NAMES: [&str; 4] = [
    "olympus.generate",
    "ir.pass",
    "hls.synthesize",
    "a \"quoted\" name",
];

/// Keys few enough that a span often sets one twice.
const KEYS: [&str; 4] = ["kernel", "lanes", "cycles", "replication"];

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Opens a span on registry `registry`.
    Open { registry: usize, name: usize },
    /// Sets an arg on the open span `pick` (modulo the open ones).
    Arg { pick: usize, key: usize, value: u64 },
    /// Drops the guard of the open span `pick`.
    Close { pick: usize },
    /// Resets registry `registry`.
    Reset { registry: usize },
}

fn step(kind: u8, a: u8, b: u64) -> Step {
    let a = a as usize;
    match kind % 8 {
        0..=2 => Step::Open {
            registry: a % 2,
            name: (b % 5) as usize,
        },
        3 | 4 => Step::Arg {
            pick: a,
            key: (b % 4) as usize,
            value: b,
        },
        5 | 6 => Step::Close { pick: a },
        _ => Step::Reset { registry: a % 2 },
    }
}

/// A value of every `ArgValue` kind, drawn from `b`.
fn value(b: u64) -> ArgValue {
    match b % 4 {
        0 => ArgValue::U64(b),
        1 => ArgValue::F64((b % 1000) as f64 / 8.0),
        2 => ArgValue::Str(format!("k{}", b % 7)),
        _ => ArgValue::Bool(b % 8 == 3),
    }
}

/// Both stores' registries, index for index.
#[derive(Clone)]
struct Pair {
    compact: [Arc<Registry>; 2],
    reference: [Arc<reference::Registry>; 2],
}

/// Runs the steps it is sent on its own thread, holding the guards of
/// the spans it opened, and answers each with `()`.
fn worker(pair: Pair, steps: mpsc::Receiver<Step>, done: mpsc::Sender<()>) {
    let mut open: Vec<(SpanGuard, reference::SpanGuard)> = Vec::new();
    for step in steps {
        match step {
            Step::Open { registry, name } => {
                let compact = match NAMES.get(name) {
                    Some(&literal) => pair.compact[registry].span(literal),
                    None => pair.compact[registry].span(format!("built.{registry}")),
                };
                let name = NAMES
                    .get(name)
                    .map_or(format!("built.{registry}"), |n| n.to_string());
                open.push((compact, pair.reference[registry].span(name)));
            }
            Step::Arg {
                pick,
                key,
                value: v,
            } if !open.is_empty() => {
                let (compact, reference) = &open[pick % open.len()];
                compact.arg(KEYS[key], value(v));
                reference.arg(KEYS[key], value(v));
            }
            Step::Close { pick } if !open.is_empty() => {
                let (compact, reference) = open.remove(pick % open.len());
                drop(compact);
                drop(reference);
            }
            Step::Reset { registry } => {
                pair.compact[registry].reset();
                pair.reference[registry].reset();
            }
            Step::Arg { .. } | Step::Close { .. } => {}
        }
        if done.send(()).is_err() {
            return;
        }
    }
}

/// `spans` with every timestamp at 0 (an open span stays open).
fn masked(mut spans: Vec<SpanRecord>) -> Vec<SpanRecord> {
    for span in &mut spans {
        span.start_us = 0.0;
        span.end_us = span.end_us.map(|_| 0.0);
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_compact_store_records_what_the_replaced_one_did(
        script in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>(), any::<bool>()), 1..64),
    ) {
        let pair = Pair {
            compact: [Registry::new(), Registry::new()],
            reference: [reference::Registry::new(), reference::Registry::new()],
        };
        let mut threads = Vec::new();
        let mut senders = Vec::new();
        let (done_tx, done) = mpsc::channel();
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel();
            let (pair, done_tx) = (pair.clone(), done_tx.clone());
            threads.push(thread::spawn(move || worker(pair, rx, done_tx)));
            senders.push(tx);
        }
        for &(kind, a, b, second) in &script {
            senders[usize::from(second)].send(step(kind, a, b)).expect("the worker runs");
            done.recv().expect("the worker answers");
            for r in 0..2 {
                prop_assert_eq!(
                    masked(pair.compact[r].spans()),
                    masked(pair.reference[r].spans())
                );
            }
        }
        // Hanging up drops every guard still open, on its own thread.
        drop(senders);
        for thread in threads {
            thread.join().expect("the worker exits cleanly");
        }
        for r in 0..2 {
            prop_assert_eq!(masked(pair.compact[r].spans()), masked(pair.reference[r].spans()));
        }
    }
}
