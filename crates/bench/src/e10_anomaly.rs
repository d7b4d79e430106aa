//! E10 [§VII] — AutoML anomaly detection: TPE model selection vs random
//! search across trial budgets (mean best F1 over seeds), and the
//! deployed detection node's quality.

use crate::{rule, Report};
use everest_anomaly::dataset::Dataset;
use everest_anomaly::service::{select_model, DetectionNode, Strategy};
use everest_anomaly::synthetic::{f1_score, generate, StreamConfig};

fn split(seed: u64) -> (Dataset, Dataset, Vec<bool>) {
    let stream = generate(StreamConfig::default(), seed);
    let half = stream.data.len() / 2;
    let train = Dataset::from_rows(
        stream.data.rows[..half]
            .iter()
            .zip(&stream.labels[..half])
            .filter(|(_, &l)| !l)
            .map(|(r, _)| r.clone())
            .collect(),
    );
    let validation = Dataset::from_rows(stream.data.rows[half..].to_vec());
    (train, validation, stream.labels[half..].to_vec())
}

fn mean_best_f1(strategy: Strategy, trials: usize, seeds: &[u64]) -> f64 {
    seeds
        .iter()
        .map(|&s| {
            let (train, validation, labels) = split(s);
            select_model(&train, &validation, &labels, trials, strategy, s ^ 0xBEEF).f1
        })
        .sum::<f64>()
        / seeds.len() as f64
}

pub fn series(r: &mut Report) {
    r.banner("E10", "VII", "AutoML model selection: TPE vs random search");
    let seeds = [3u64, 5, 7, 11];
    r.pin(format!(
        "mean best validation F1 over {} seeds:\n",
        seeds.len()
    ));
    r.pin(format!("{:>8} {:>10} {:>10}", "trials", "random", "tpe"));
    r.pin(rule(32));
    for trials in [8usize, 16, 32, 64] {
        let random = mean_best_f1(Strategy::Random, trials, &seeds);
        let tpe = mean_best_f1(Strategy::Tpe, trials, &seeds);
        r.pin(format!("{trials:>8} {random:>10.3} {tpe:>10.3}"));
    }

    r.pin("\ndeployed detection node (seed 3, TPE, 40 trials):");
    let (train, validation, labels) = split(3);
    let selected = select_model(&train, &validation, &labels, 40, Strategy::Tpe, 99);
    r.pin(format!(
        "  winner: {} (validation F1 {:.3})",
        selected
            .params
            .get("family")
            .and_then(|v| v.as_str())
            .unwrap_or("?"),
        selected.f1
    ));
    let mut node = DetectionNode::new(selected, 512, 99);
    let report = node.detect(&validation);
    let mut predictions = vec![false; validation.len()];
    for &i in &report.anomalous_indexes {
        predictions[i] = true;
    }
    let (precision, recall, f1) = f1_score(&labels, &predictions);
    r.pin(format!(
        "  detection report: {} flagged of {} (P {:.2} / R {:.2} / F1 {:.2})",
        report.anomalous_indexes.len(),
        report.scanned,
        precision,
        recall,
        f1
    ));
    r.pin(format!(
        "  JSON output bytes: {}",
        DetectionNode::to_json(&report).len()
    ));
}

pub fn timings(r: &mut Report) {
    let (train, validation, labels) = split(3);
    r.time("e10_anomaly/tpe_select_10_trials", || {
        select_model(&train, &validation, &labels, 10, Strategy::Tpe, 1)
    });
}
