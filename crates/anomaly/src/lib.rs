//! # everest-anomaly
//!
//! The EVEREST anomaly-detection service (paper §VII): developers drop
//! two nodes into their workflow — *model selection*, which uses AutoML
//! with the Tree-structured Parzen Estimator (Optuna's sampler, ref \[1\])
//! to find the best detector and hyperparameters on the provided data,
//! and *detection*, which runs the model and emits a JSON file with the
//! indexes of anomalous points, continuously updating itself on current
//! data.
//!
//! * [`dataset`] — dense numeric datasets;
//! * [`detectors`] — six detector families (z-score, IQR fences,
//!   Mahalanobis, isolation forest, LOF, one-class centroids);
//! * [`tpe`] — the TPE hyperparameter sampler;
//! * [`service`] — the model-selection and detection nodes;
//! * [`synthetic`] — labelled synthetic streams and F1 scoring.
//!
//! # Examples
//!
//! ```
//! use everest_anomaly::dataset::Dataset;
//! use everest_anomaly::service::{select_model, DetectionNode, Strategy};
//! use everest_anomaly::synthetic::{generate, StreamConfig};
//!
//! let stream = generate(StreamConfig::default(), 42);
//! let half = stream.data.len() / 2;
//! let train = Dataset::from_rows(stream.data.rows[..half].to_vec());
//! let validation = Dataset::from_rows(stream.data.rows[half..].to_vec());
//! let labels = stream.labels[half..].to_vec();
//!
//! let model = select_model(&train, &validation, &labels, 15, Strategy::Tpe, 7);
//! let mut node = DetectionNode::new(model, 512, 7);
//! let report = node.detect(&validation);
//! let json = DetectionNode::to_json(&report);
//! assert!(json.contains("anomalous_indexes"));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dataset;
pub mod detectors;
pub mod service;
pub mod synthetic;
pub mod tpe;

pub use dataset::Dataset;
pub use detectors::Detector;
pub use service::{select_model, DetectionNode, DetectionReport, SelectedModel, Strategy};
pub use synthetic::{f1_score, generate, LabelledData, StreamConfig};
pub use tpe::{ParamSpec, ParamValue, Params, SearchSpace, TpeSampler};
