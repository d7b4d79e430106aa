//! The traffic modeling use case (paper §II-D): floating car data over a
//! road network, matched onto it by HMM map matching, and PTDR Monte
//! Carlo routing over the matched network. The paper's other two
//! algorithms, GMM regime prediction and the CNN speed predictor, are
//! not reproduced here.

pub(crate) mod fcd;
pub mod mapmatch;
pub mod network;
pub mod ptdr;

pub use fcd::{generate_trajectories, FcdConfig, GpsSample, Trajectory};
pub use mapmatch::{match_accuracy, MatchConfig};
pub use network::{Point, RoadNetwork, Segment};
pub use ptdr::{build_route, monte_carlo, Route, TravelTimeDistribution};
