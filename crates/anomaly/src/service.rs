//! The two service nodes of paper §VII: *model selection* (AutoML over
//! the detector zoo, TPE-sampled) and *detection* (runs the selected
//! model, emits the anomalous indexes as JSON, continuously updates on
//! recent data).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

use crate::dataset::Dataset;
use crate::detectors::{Centroid, Detector, IqrFence, IsolationForest, Lof, Mahalanobis, ZScore};
use crate::synthetic::f1_score;
use crate::tpe::{ParamValue, Params, SearchSpace, TpeSampler};

/// Search strategy for model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Tree-structured Parzen Estimator (Optuna's sampler).
    Tpe,
    /// Uniform random search (baseline).
    Random,
}

/// The AutoML search space over detector families and hyperparameters.
pub fn detector_space() -> SearchSpace {
    SearchSpace::new()
        .categorical(
            "family",
            ["zscore", "iqr", "mahalanobis", "iforest", "lof", "centroid"],
        )
        .float("contamination", 0.005, 0.2, true)
        .float("iqr_k", 0.5, 3.0, false)
        .float("ridge", 1e-8, 1e-2, true)
        .int("trees", 20, 150)
        .int("sample", 32, 256)
        .int("lof_k", 2, 40)
        .int("centroids", 1, 8)
}

/// Instantiates and fits a detector from sampled hyperparameters.
pub fn fit_detector(params: &Params, train: &Dataset, seed: u64) -> Box<dyn Detector> {
    let contamination = params
        .get("contamination")
        .and_then(ParamValue::as_f64)
        .unwrap_or(0.05);
    match params
        .get("family")
        .and_then(ParamValue::as_str)
        .unwrap_or("zscore")
    {
        "iqr" => Box::new(IqrFence::fit(
            train,
            params
                .get("iqr_k")
                .and_then(ParamValue::as_f64)
                .unwrap_or(1.5),
            contamination,
        )),
        "mahalanobis" => Box::new(Mahalanobis::fit(
            train,
            params
                .get("ridge")
                .and_then(ParamValue::as_f64)
                .unwrap_or(1e-6),
            contamination,
        )),
        "iforest" => Box::new(IsolationForest::fit(
            train,
            params
                .get("trees")
                .and_then(ParamValue::as_i64)
                .unwrap_or(100) as usize,
            params
                .get("sample")
                .and_then(ParamValue::as_i64)
                .unwrap_or(128) as usize,
            contamination,
            seed,
        )),
        "lof" => Box::new(Lof::fit(
            train,
            params
                .get("lof_k")
                .and_then(ParamValue::as_i64)
                .unwrap_or(10) as usize,
            contamination,
        )),
        "centroid" => Box::new(Centroid::fit(
            train,
            params
                .get("centroids")
                .and_then(ParamValue::as_i64)
                .unwrap_or(4) as usize,
            12,
            contamination,
            seed,
        )),
        _ => Box::new(ZScore::fit(train, contamination)),
    }
}

/// Result of a model-selection run.
#[derive(Debug)]
pub struct SelectedModel {
    /// Winning hyperparameters.
    pub params: Params,
    /// Validation F1 of the winner.
    pub f1: f64,
    /// The fitted detector.
    pub detector: Box<dyn Detector>,
    /// Best-so-far F1 after each trial (for convergence plots).
    pub trajectory: Vec<f64>,
}

/// The model-selection node: searches detector families and
/// hyperparameters for `trials` evaluations ("after a specified amount
/// of time, the node will output the best-found model", §VII).
pub fn select_model(
    train: &Dataset,
    validation: &Dataset,
    labels: &[bool],
    trials: usize,
    strategy: Strategy,
    seed: u64,
) -> SelectedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = detector_space();
    let mut sampler = TpeSampler::new();
    let mut best: Option<(Params, f64)> = None;
    let mut trajectory = Vec::with_capacity(trials);
    for trial in 0..trials.max(1) {
        let params = match strategy {
            Strategy::Tpe => sampler.suggest(&space, &mut rng),
            Strategy::Random => space.sample_uniform(&mut rng),
        };
        let detector = fit_detector(&params, train, seed ^ trial as u64);
        let predictions: Vec<bool> = validation
            .rows
            .iter()
            .map(|r| detector.is_anomalous(r))
            .collect();
        let (_, _, f1) = f1_score(labels, &predictions);
        sampler.tell(params.clone(), f1);
        let improved = best.as_ref().map(|(_, b)| f1 > *b).unwrap_or(true);
        if improved {
            best = Some((params, f1));
        }
        trajectory.push(best.as_ref().map(|(_, b)| *b).unwrap_or(0.0));
    }
    let (params, f1) = best.expect("at least one trial ran");
    let detector = fit_detector(&params, train, seed);
    SelectedModel {
        params,
        f1,
        detector,
        trajectory,
    }
}

/// The JSON document produced by the detection node (§VII: "a JSON file
/// containing the indexes of data points that are considered
/// anomalous").
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Detector family that produced the report.
    pub model: String,
    /// Rows scanned.
    pub scanned: usize,
    /// Indexes flagged anomalous.
    pub anomalous_indexes: Vec<usize>,
}

impl Serialize for DetectionReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("model".into(), self.model.to_value()),
            ("scanned".into(), self.scanned.to_value()),
            (
                "anomalous_indexes".into(),
                self.anomalous_indexes.to_value(),
            ),
        ])
    }
}

/// The detection node: holds the current model, scans batches, and
/// continuously refits on a sliding window of recent data.
#[derive(Debug)]
pub struct DetectionNode {
    detector: Box<dyn Detector>,
    params: Params,
    window: Vec<Vec<f64>>,
    window_cap: usize,
    seed: u64,
}

impl DetectionNode {
    /// Creates a node from a selected model.
    pub fn new(selected: SelectedModel, window_cap: usize, seed: u64) -> DetectionNode {
        DetectionNode {
            detector: selected.detector,
            params: selected.params,
            window: Vec::new(),
            window_cap: window_cap.max(16),
            seed,
        }
    }

    /// Creates a node directly from a fitted detector, bypassing
    /// AutoML. Streaming consumers (the `everest-health` monitor) seed
    /// a baseline detector this way and let [`DetectionNode::update`]
    /// refit it online; `params` drive every refit.
    pub fn from_detector(
        detector: Box<dyn Detector>,
        params: Params,
        window_cap: usize,
        seed: u64,
    ) -> DetectionNode {
        DetectionNode {
            detector,
            params,
            window: Vec::new(),
            window_cap: window_cap.max(16),
            seed,
        }
    }

    /// Scores one row against the current model without feeding the
    /// update window (a pure read, used by streaming monitors).
    pub fn score_row(&self, row: &[f64]) -> bool {
        self.detector.is_anomalous(row)
    }

    /// Feeds one known-normal row into the update window without
    /// scanning it. Eviction happens on the next [`DetectionNode::update`].
    pub fn push_normal(&mut self, row: Vec<f64>) {
        self.window.push(row);
    }

    /// The rows currently buffered for the next refit (oldest first).
    pub fn window_rows(&self) -> &[Vec<f64>] {
        &self.window
    }

    /// Replaces the update window wholesale. Together with
    /// [`DetectionNode::window_rows`] and a deterministic refit this
    /// lets checkpointing layers snapshot and restore a node exactly.
    pub fn replace_window(&mut self, rows: Vec<Vec<f64>>) {
        self.window = rows;
    }

    /// Scans a batch; returns the report and feeds normal points into the
    /// update window.
    pub fn detect(&mut self, batch: &Dataset) -> DetectionReport {
        let mut anomalous = Vec::new();
        for (i, row) in batch.rows.iter().enumerate() {
            if self.detector.is_anomalous(row) {
                anomalous.push(i);
            } else {
                self.window.push(row.clone());
            }
        }
        if self.window.len() > self.window_cap {
            let excess = self.window.len() - self.window_cap;
            self.window.drain(..excess);
        }
        DetectionReport {
            model: self.detector.name().to_string(),
            scanned: batch.len(),
            anomalous_indexes: anomalous,
        }
    }

    /// Refits the model on the recent window ("the model is continuously
    /// updated with current data", §VII).
    ///
    /// Eviction runs *before* the refit, so the model only ever sees
    /// the freshest `window_cap` rows — rows streamed in via
    /// [`DetectionNode::push_normal`] beyond the cap must not leak
    /// stale history into the fit.
    pub fn update(&mut self) {
        if self.window.len() > self.window_cap {
            let excess = self.window.len() - self.window_cap;
            self.window.drain(..excess);
        }
        if self.window.len() >= 32 {
            // Fit on the moved-out window instead of a clone: streaming
            // monitors refit every few samples, and cloning ~64 rows per
            // refit dominated their hot path.
            let recent = Dataset::from_rows(std::mem::take(&mut self.window));
            self.detector = fit_detector(&self.params, &recent, self.seed);
            self.window = recent.rows;
        }
    }

    /// Serializes a report as JSON indented with two spaces.
    pub fn to_json(report: &DetectionReport) -> String {
        serde_json::to_string_pretty(report).expect("a Value tree always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, StreamConfig};

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
        let labels = stream.labels[half..].to_vec();
        (train, validation, labels)
    }

    #[test]
    fn selection_finds_a_working_model() {
        let (train, validation, labels) = split(3);
        let selected = select_model(&train, &validation, &labels, 30, Strategy::Tpe, 42);
        assert!(
            selected.f1 > 0.5,
            "AutoML should find a usable detector, F1 {}",
            selected.f1
        );
        assert_eq!(selected.trajectory.len(), 30);
        // trajectory is monotone non-decreasing
        assert!(selected.trajectory.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn detection_node_emits_json_with_indexes() {
        let (train, validation, labels) = split(5);
        let selected = select_model(&train, &validation, &labels, 20, Strategy::Tpe, 7);
        let mut node = DetectionNode::new(selected, 512, 7);
        let report = node.detect(&validation);
        assert_eq!(report.scanned, validation.len());
        let json = DetectionNode::to_json(&report);
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report.to_value());
        assert!(json.contains("anomalous_indexes"));
        // quality on the validation labels
        let mut predictions = vec![false; validation.len()];
        for &i in &report.anomalous_indexes {
            predictions[i] = true;
        }
        let (_, _, f1) = f1_score(&labels, &predictions);
        assert!(f1 > 0.4, "deployed model F1 {f1}");
    }

    #[test]
    fn continuous_update_tracks_drift() {
        let (train, validation, labels) = split(11);
        let selected = select_model(&train, &validation, &labels, 20, Strategy::Tpe, 13);
        let mut node = DetectionNode::new(selected, 256, 13);
        // Drifted stream: shift the background by +3 in every feature.
        let drifted = Dataset::from_rows(
            generate(
                StreamConfig {
                    contamination: 0.0,
                    ..StreamConfig::default()
                },
                99,
            )
            .data
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v + 3.0).collect())
            .collect(),
        );
        let before = node.detect(&drifted).anomalous_indexes.len();
        // Feed the drifted data and refit.
        for _ in 0..3 {
            node.detect(&drifted);
            node.update();
        }
        let after = node.detect(&drifted).anomalous_indexes.len();
        assert!(
            after <= before,
            "after updating, the drifted background should alarm less: {after} vs {before}"
        );
    }

    #[test]
    fn detection_node_is_deterministic_for_a_fixed_seed() {
        // Two identical runs — same seed, same data, same detect/update
        // cadence — must flag byte-identical index sets throughout.
        let run = || {
            let (train, validation, labels) = split(23);
            let selected = select_model(&train, &validation, &labels, 15, Strategy::Tpe, 29);
            let mut node = DetectionNode::new(selected, 64, 29);
            let mut flagged = Vec::new();
            for chunk in validation.rows.chunks(40) {
                let report = node.detect(&Dataset::from_rows(chunk.to_vec()));
                flagged.push(report.anomalous_indexes);
                node.update();
            }
            flagged
        };
        assert_eq!(run(), run(), "same seed must replay identically");
    }

    #[test]
    fn update_evicts_before_refit() {
        // Stream far more rows than the cap: the refit must only see
        // the freshest `window_cap` rows, so a model refit after a
        // level shift should calibrate to the *new* level and stop
        // alarming on it.
        let (train, validation, labels) = split(31);
        let selected = select_model(&train, &validation, &labels, 15, Strategy::Tpe, 3);
        let mut node = DetectionNode::from_detector(selected.detector, selected.params, 64, 3);
        // Old regime rows (well beyond the cap), then a new regime.
        for i in 0..500 {
            node.push_normal(vec![0.0, 0.1 * ((i % 10) as f64)]);
        }
        for i in 0..64 {
            node.push_normal(vec![8.0, 8.0 + 0.1 * ((i % 10) as f64)]);
        }
        node.update();
        assert_eq!(
            node.window_rows().len(),
            64,
            "eviction must trim to the cap before refitting"
        );
        assert!(
            node.window_rows().iter().all(|r| r[0] == 8.0),
            "only the freshest rows may survive"
        );
        assert!(
            !node.score_row(&[8.0, 8.5]),
            "refit must calibrate to the new regime, not stale history"
        );
    }

    #[test]
    fn every_family_can_be_instantiated() {
        let (train, _, _) = split(17);
        for family in ["zscore", "iqr", "mahalanobis", "iforest", "lof", "centroid"] {
            let mut params = Params::new();
            params.insert("family".into(), ParamValue::C(family.into()));
            let det = fit_detector(&params, &train, 1);
            assert_eq!(
                det.name(),
                match family {
                    "iforest" => "isolation_forest",
                    f => f,
                }
            );
        }
    }
}
