//! HMM map matching (paper §II-D: "a Hidden Markov model for map
//! matching of sparse and noisy FCD points on a road network") as the
//! ConDRust operator set of the Fig. 4 streaming matcher: an online
//! Viterbi over a bounded beam.

use std::sync::Arc;

use everest_condrust::registry::Registry;
use everest_condrust::value::Value;

use super::fcd::GpsSample;
use super::network::{Point, RoadNetwork};

/// Matcher parameters.
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Candidate segments per sample.
    pub candidates: usize,
    /// GPS noise standard deviation (m), for the emission model.
    pub sigma_m: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            candidates: 6,
            sigma_m: 25.0,
        }
    }
}

fn emission_log(dist_m: f64, sigma: f64) -> f64 {
    -(dist_m * dist_m) / (2.0 * sigma * sigma)
}

fn transition_log(net: &RoadNetwork, from: usize, to: usize) -> f64 {
    if from == to {
        0.0
    } else {
        let a = &net.segments[from];
        let b = &net.segments[to];
        if a.to == b.from {
            -0.7 // connected continuation
        } else if a.from == b.from || a.to == b.to || a.from == b.to {
            -2.5 // shares an intersection (turn-around etc.)
        } else {
            -8.0 // teleport: strongly penalized
        }
    }
}

/// Fraction of samples matched to a segment on the true path.
pub fn match_accuracy(matched: &[usize], true_segments: &[usize]) -> f64 {
    if matched.is_empty() {
        return 0.0;
    }
    let hits = matched
        .iter()
        .filter(|seg| true_segments.contains(seg))
        .count();
    hits as f64 / matched.len() as f64
}

// ---------------------------------------------------------------------------
// ConDRust integration (Fig. 4)
// ---------------------------------------------------------------------------

/// The ConDRust source of the streaming map matcher — the paper's Fig. 4
/// program shape.
pub const CONDRUST_MAP_MATCH: &str = "
fn map_match(samples: Vec<Sample>) -> Vec<Match> {
    let mut out = Vec::new();
    let mut hmm = hmm_state();
    for s in samples {
        let c = candidates(s);
        let m = hmm.step(c);
        out.push(m);
    }
    out
}";

/// Encodes a GPS sample as a ConDRust value.
pub fn sample_value(sample: &GpsSample) -> Value {
    Value::List(vec![
        Value::F64(sample.position.x),
        Value::F64(sample.position.y),
        Value::F64(sample.hour),
    ])
}

/// Registers the map-matching operators: `candidates` (pure, replicable)
/// and the `hmm_state().step` online Viterbi state thread.
pub fn condrust_registry(net: Arc<RoadNetwork>, config: MatchConfig) -> Registry {
    let mut registry = Registry::new();
    let net_c = Arc::clone(&net);
    registry.register_pure("candidates", move |args| {
        let Some(items) = args[0].as_list() else {
            return Value::List(Vec::new());
        };
        let p = Point {
            x: items[0].as_f64().unwrap_or(0.0),
            y: items[1].as_f64().unwrap_or(0.0),
        };
        let nearest = net_c.nearest_segments(&p, config.candidates);
        Value::List(
            nearest
                .into_iter()
                .map(|(seg, d)| Value::pair(Value::I64(seg as i64), Value::F64(d)))
                .collect(),
        )
    });
    let net_s = Arc::clone(&net);
    registry.register_stateful(
        "hmm_state",
        // Beam of (segment, logp) hypotheses; empty before the first fix.
        || Value::List(Vec::new()),
        move |state, args| {
            const BEAM: usize = 4;
            let hypotheses: Vec<(i64, f64)> = state
                .as_list()
                .unwrap_or(&[])
                .iter()
                .filter_map(|h| match h {
                    Value::Pair(seg, logp) => Some((seg.as_i64()?, logp.as_f64()?)),
                    _ => None,
                })
                .collect();
            let Some(candidates) = args[0].as_list() else {
                return Value::I64(-1);
            };
            // Online Viterbi with a bounded beam: each candidate keeps its
            // best continuation from the previous beam.
            let mut next: Vec<(i64, f64)> = Vec::new();
            for c in candidates {
                let Value::Pair(seg, d) = c else { continue };
                let seg_id = seg.as_i64().unwrap_or(0);
                let dist = d.as_f64().unwrap_or(f64::INFINITY);
                let emit = emission_log(dist, config.sigma_m);
                let score = if hypotheses.is_empty() {
                    emit
                } else {
                    hypotheses
                        .iter()
                        .map(|&(prev, logp)| {
                            logp + transition_log(&net_s, prev as usize, seg_id as usize)
                        })
                        .fold(f64::NEG_INFINITY, f64::max)
                        + emit
                };
                next.push((seg_id, score));
            }
            next.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite log-probs"));
            next.truncate(BEAM);
            let decision = next.first().map(|&(seg, _)| seg).unwrap_or(-1);
            // Renormalize so scores stay bounded over long trajectories.
            let top = next.first().map(|&(_, s)| s).unwrap_or(0.0);
            *state = Value::List(
                next.into_iter()
                    .map(|(seg, s)| Value::pair(Value::I64(seg), Value::F64(s - top)))
                    .collect(),
            );
            Value::I64(decision)
        },
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::fcd::{generate_trajectories, FcdConfig};
    use everest_condrust::exec::{run_parallel, run_sequential};
    use everest_condrust::graph::DataflowGraph;
    use everest_condrust::lang::parse_function;

    fn setup() -> (Arc<RoadNetwork>, Vec<crate::traffic::fcd::Trajectory>) {
        let net = Arc::new(RoadNetwork::grid(8, 8, 100.0));
        let trajectories = generate_trajectories(&net, FcdConfig::default(), 12, 42);
        (net, trajectories)
    }

    /// One segment id per sample, from the ConDRust matcher run in order.
    fn stream_match(net: &Arc<RoadNetwork>, samples: &[GpsSample]) -> Vec<usize> {
        let f = parse_function(CONDRUST_MAP_MATCH).unwrap();
        let graph = DataflowGraph::from_function(&f).unwrap();
        let registry = condrust_registry(Arc::clone(net), MatchConfig::default());
        let items: Vec<Value> = samples.iter().map(sample_value).collect();
        run_sequential(&graph, &registry, &items)
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap() as usize)
            .collect()
    }

    #[test]
    fn viterbi_beats_nearest_segment_baseline() {
        let (net, trajectories) = setup();
        let mut viterbi_acc = 0.0;
        let mut nearest_acc = 0.0;
        for t in &trajectories {
            let matched = stream_match(&net, &t.samples);
            viterbi_acc += match_accuracy(&matched, &t.true_segments);
            let nearest: Vec<usize> = t
                .samples
                .iter()
                .map(|s| net.nearest_segments(&s.position, 1)[0].0)
                .collect();
            nearest_acc += match_accuracy(&nearest, &t.true_segments);
        }
        viterbi_acc /= trajectories.len() as f64;
        nearest_acc /= trajectories.len() as f64;
        assert!(
            viterbi_acc > nearest_acc,
            "HMM ({viterbi_acc:.3}) must beat nearest-segment ({nearest_acc:.3})"
        );
        assert!(viterbi_acc > 0.6, "viterbi accuracy {viterbi_acc:.3}");
    }

    #[test]
    fn viterbi_handles_empty_and_single() {
        let (net, _) = setup();
        assert!(stream_match(&net, &[]).is_empty());
        let one = GpsSample {
            position: Point { x: 50.0, y: 3.0 },
            hour: 9.0,
        };
        assert_eq!(stream_match(&net, &[one]).len(), 1);
    }

    #[test]
    fn condrust_matcher_is_deterministic_and_plausible() {
        let (net, trajectories) = setup();
        let config = MatchConfig::default();
        let f = parse_function(CONDRUST_MAP_MATCH).unwrap();
        let graph = DataflowGraph::from_function(&f).unwrap();
        let registry = condrust_registry(Arc::clone(&net), config);

        let t = &trajectories[0];
        let items: Vec<Value> = t.samples.iter().map(sample_value).collect();
        let sequential = run_sequential(&graph, &registry, &items).unwrap();
        for replication in [1, 4] {
            let parallel = run_parallel(&graph, &registry, &items, replication).unwrap();
            assert_eq!(
                parallel, sequential,
                "determinism at replication {replication}"
            );
        }
        // quality: the streaming matcher still mostly finds the true path
        let matched: Vec<usize> = sequential
            .iter()
            .map(|v| v.as_i64().unwrap() as usize)
            .collect();
        let acc = match_accuracy(&matched, &t.true_segments);
        assert!(acc > 0.5, "streaming matcher accuracy {acc}");
    }

    #[test]
    fn transition_model_prefers_continuity() {
        let (net, _) = setup();
        let seg = &net.segments[0];
        let next = net
            .segments
            .iter()
            .find(|s| s.from == seg.to && s.id != seg.id)
            .unwrap();
        let far = net
            .segments
            .iter()
            .find(|s| s.from != seg.from && s.from != seg.to && s.to != seg.from && s.to != seg.to);
        assert!(transition_log(&net, seg.id, seg.id) > transition_log(&net, seg.id, next.id));
        if let Some(far) = far {
            assert!(transition_log(&net, seg.id, next.id) > transition_log(&net, seg.id, far.id));
        }
    }
}
