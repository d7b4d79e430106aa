//! Anomaly detection service (paper §VII): the model-selection node
//! searches the detector zoo with TPE, then the detection node scans a
//! stream and emits the JSON report of anomalous indexes.
//!
//! ```sh
//! cargo run --example anomaly_service
//! ```

use everest_sdk::everest_anomaly::dataset::Dataset;
use everest_sdk::everest_anomaly::service::{select_model, DetectionNode, Strategy};
use everest_sdk::everest_anomaly::synthetic::{f1_score, generate, StreamConfig};

fn main() {
    // A sensor-like stream with ~5% injected anomalies.
    let stream = generate(StreamConfig::default(), 7);
    let half = stream.data.len() / 2;
    let train = Dataset::from_rows(stream.data.rows[..half].to_vec());
    let validation = Dataset::from_rows(stream.data.rows[half..].to_vec());
    let labels = stream.labels[half..].to_vec();

    println!("== model-selection node (AutoML, 40 trials) ==");
    for strategy in [Strategy::Random, Strategy::Tpe] {
        let model = select_model(&train, &validation, &labels, 40, strategy, 11);
        println!(
            "{:?}: best F1 {:.3} with {:?}",
            strategy,
            model.f1,
            model
                .params
                .get("family")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
        );
    }

    let selected = select_model(&train, &validation, &labels, 40, Strategy::Tpe, 11);
    println!("\nconvergence (best F1 after each trial):");
    for (k, f1) in selected.trajectory.iter().enumerate().step_by(8) {
        println!("  trial {k:>3}: {f1:.3}");
    }

    println!("\n== detection node ==");
    let mut node = DetectionNode::new(selected, 512, 11);
    let report = node.detect(&validation);
    let mut predictions = vec![false; validation.len()];
    for &i in &report.anomalous_indexes {
        predictions[i] = true;
    }
    let (precision, recall, f1) = f1_score(&labels, &predictions);
    println!(
        "scanned {} points, flagged {} (precision {:.2}, recall {:.2}, F1 {:.2})",
        report.scanned,
        report.anomalous_indexes.len(),
        precision,
        recall,
        f1
    );
    println!("\nJSON output (paper: 'a JSON file containing the indexes'):");
    let json = DetectionNode::to_json(&report);
    for line in json.lines().take(12) {
        println!("{line}");
    }
    println!("...");
}
