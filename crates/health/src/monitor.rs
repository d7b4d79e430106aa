//! The streaming health monitor: the detection half of the closed loop.
//!
//! The scheduler feeds every committed placement into the monitor —
//! achieved compute inflation (actual / healthy-model duration),
//! observed link factors, and accelerator inflation — as the virtual
//! clock advances. The monitor keeps per-node sliding windows, scores
//! inflation samples online against a one-feature z-score
//! ([`ScalarZScore`]) refit on the recent normal-looking samples, and
//! emits typed [`HealthVerdict`]s the moment a node's evidence crosses
//! the configured thresholds. Every sample is mirrored to the telemetry
//! registry (`health.node<i>.<series>` windowed monitors plus
//! `health.*` histograms) so operators see what the loop sees.
//!
//! Once the windows have filled, feeding a sample allocates nothing: a
//! full window drops its oldest sample for the new one in place, the
//! detector's window and calibration scratch keep their capacity across
//! refits, and a refit is the arithmetic of `ZScore::fit` on a flat
//! slice. While a node's window holds only samples of exactly `1.0` —
//! every sample of a healthy node, whose achieved time is its modelled
//! time — its mean is exactly `1.0` and its creep slope exactly `0.0`,
//! so neither is summed. The fit is a pure function of the window's
//! values, so a refit whose window is bit for bit the one the model was
//! last fit on keeps the model instead of fitting it again: in a
//! healthy campaign that is every refit once the window holds nothing
//! but exact ones.
//!
//! The telemetry mirror is buffered: a registry reader sees the
//! `health.node<i>.*` windows and `health.*` histograms complete after
//! [`HealthMonitor::flush`] or once the monitor drops.
//!
//! Determinism: decisions are functions of the fed samples and the
//! configuration only — nothing is drawn at random, and the monitor
//! *writes* telemetry but never reads it back, so two identical
//! campaigns reach identical verdicts even when they share a global
//! registry.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use everest_anomaly::detectors::ScalarZScore;
use everest_telemetry::{CounterHandle, HistogramHandle, MonitorHandle, Registry};

use crate::verdict::{HealthVerdict, VerdictKind};

/// Every Nth fed sample lands in the `health.inflation`,
/// `health.link_factor` and `health.fpga_inflation` distribution
/// histograms (deterministic, not randomized — replays stay
/// byte-identical). The verdict logic, the per-node windowed monitors
/// and the exact `health.samples` counter are never sampled.
const HEALTH_SAMPLE_EVERY: u64 = 8;

/// Normal-looking inflation samples a refit sees: the newest this many.
const DETECTOR_WINDOW: usize = 64;

/// A refit needs at least this many normal-looking samples; with fewer
/// the detector keeps its current model.
const DETECTOR_MIN_ROWS: usize = 32;

/// Pre-resolved telemetry handles for the monitor's per-sample hot
/// path: one registry-map lookup per name at construction instead of
/// one string-keyed lookup (plus a `format!` for the per-node names)
/// per fed sample.
struct MonitorTelemetry {
    registry: Arc<Registry>,
    window: usize,
    node_inflation: Vec<MonitorHandle>,
    node_link: Vec<MonitorHandle>,
    inflation: HistogramHandle,
    link_factor: HistogramHandle,
    fpga_inflation: HistogramHandle,
    samples: CounterHandle,
}

impl MonitorTelemetry {
    fn new(nodes: usize, window: usize, registry: Arc<Registry>) -> MonitorTelemetry {
        MonitorTelemetry {
            node_inflation: (0..nodes)
                .map(|n| registry.monitor_handle(&format!("health.node{n}.inflation"), window))
                .collect(),
            node_link: (0..nodes)
                .map(|n| registry.monitor_handle(&format!("health.node{n}.link"), window))
                .collect(),
            inflation: registry.histogram_handle_sampled("health.inflation", HEALTH_SAMPLE_EVERY),
            link_factor: registry
                .histogram_handle_sampled("health.link_factor", HEALTH_SAMPLE_EVERY),
            fpga_inflation: registry
                .histogram_handle_sampled("health.fpga_inflation", HEALTH_SAMPLE_EVERY),
            samples: registry.counter_handle("health.samples"),
            registry,
            window,
        }
    }
}

/// A clone resolves fresh, empty handles on the same registry: a sample
/// the original still buffers is published by the original alone.
impl Clone for MonitorTelemetry {
    fn clone(&self) -> MonitorTelemetry {
        let registry = Arc::clone(&self.registry);
        MonitorTelemetry::new(self.node_inflation.len(), self.window, registry)
    }
}

/// Monitor tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Sliding-window length per node and series.
    pub window: usize,
    /// Samples required on a node before any verdict about it.
    pub min_samples: usize,
    /// Contamination rate for the online anomaly detector.
    pub contamination: f64,
    /// Mean compute inflation that convicts a straggler (≥ 1).
    pub straggler_ratio: f64,
    /// Mean observed link factor that convicts a gray link (≥ 1).
    pub link_factor: f64,
    /// Accelerator-inflation slope (per virtual ms) that convicts a
    /// degrading VF.
    pub creep_per_ms: f64,
    /// Detector refit cadence, in accepted samples.
    pub refit_every: usize,
}

impl Default for HealthConfig {
    /// 12-sample windows, 4 samples before judging, 5 % contamination,
    /// 1.5× straggler threshold, 2× link threshold, 0.01/ms creep
    /// threshold, refit every 16 samples.
    fn default() -> HealthConfig {
        HealthConfig {
            window: 12,
            min_samples: 4,
            contamination: 0.05,
            straggler_ratio: 1.5,
            link_factor: 2.0,
            creep_per_ms: 0.01,
            refit_every: 16,
        }
    }
}

/// One sample's value as the window tracks it: whether it is exactly
/// `1.0`, bit for bit.
trait Sample: Copy {
    fn is_unity(&self) -> bool;
}

impl Sample for f64 {
    fn is_unity(&self) -> bool {
        self.to_bits() == 1.0_f64.to_bits()
    }
}

/// An accelerator sample `(at_us, inflation)`: unity is the inflation's.
impl Sample for (f64, f64) {
    fn is_unity(&self) -> bool {
        self.1.is_unity()
    }
}

/// The last `cap` samples of one node and series, oldest first. It
/// counts the samples that are not exactly `1.0`, which is how the
/// monitor knows a mean or slope is trivial without looking at the
/// samples.
#[derive(Debug, Clone)]
struct Window<T> {
    samples: VecDeque<T>,
    cap: usize,
    off_unity: usize,
}

impl<T: Sample> Window<T> {
    fn new(cap: usize) -> Window<T> {
        Window {
            samples: VecDeque::new(),
            cap,
            off_unity: 0,
        }
    }

    fn push(&mut self, sample: T) {
        if self.cap == 0 {
            return;
        }
        if self.samples.len() == self.cap {
            let evicted = self.samples.pop_front().expect("a full window");
            self.off_unity -= usize::from(!evicted.is_unity());
        }
        self.off_unity += usize::from(!sample.is_unity());
        self.samples.push_back(sample);
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is non-empty and every sample in it is
    /// exactly `1.0`.
    fn all_unity(&self) -> bool {
        !self.samples.is_empty() && self.off_unity == 0
    }
}

impl Window<f64> {
    /// The windowed mean, summed oldest first (0 when empty): exactly
    /// `1.0`, unsummed, while every sample is `1.0`.
    fn mean(&self) -> f64 {
        if self.all_unity() {
            return 1.0;
        }
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.len() as f64
    }
}

impl Window<(f64, f64)> {
    /// Least-squares inflation slope in 1/ms over the `(at_us,
    /// inflation)` samples; 0 for degenerate windows, and for a window
    /// of flat `1.0` samples, whose every residual is exactly zero (for
    /// finite timestamps).
    fn slope_per_ms(&self) -> f64 {
        if self.all_unity() {
            return 0.0;
        }
        let n = self.len() as f64;
        let mean_t = self.samples.iter().map(|(t, _)| t).sum::<f64>() / n;
        let mean_y = self.samples.iter().map(|(_, y)| y).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (t, y) in &self.samples {
            num += (t - mean_t) * (y - mean_y);
            den += (t - mean_t) * (t - mean_t);
        }
        if den <= 0.0 {
            return 0.0;
        }
        num / den * 1_000.0
    }
}

/// The online anomaly detector over single inflation samples: a
/// z-score fit on a synthetic healthy prior, refit every
/// `refit_every` fed samples on the newest [`DETECTOR_WINDOW`]
/// normal-looking ones.
#[derive(Debug, Clone)]
struct Detector {
    model: ScalarZScore,
    contamination: f64,
    /// Normal-looking samples, oldest first. Trimmed to the newest
    /// [`DETECTOR_WINDOW`] at each refit; the trim keeps the capacity,
    /// so a warm window never reallocates.
    window: Vec<f64>,
    /// Calibration scratch, kept across refits.
    scores: Vec<f64>,
    /// The window the model was last fit on (empty while it is still
    /// the prior's): a refit on the same values, bit for bit, would
    /// fit the same model.
    fitted: Vec<f64>,
}

impl Detector {
    /// The prior: inflation ≈ 1 with a small deterministic spread.
    fn baseline(cfg: &HealthConfig) -> Detector {
        let mut scores = Vec::new();
        let prior: [f64; 32] = std::array::from_fn(|i| 1.0 + 0.02 * ((i % 7) as f64 - 3.0));
        Detector {
            model: ScalarZScore::fit(&prior, cfg.contamination, &mut scores),
            contamination: cfg.contamination,
            window: Vec::new(),
            scores,
            fitted: Vec::new(),
        }
    }

    /// Trims the window to its newest [`DETECTOR_WINDOW`] samples and,
    /// when enough remain and they are not the ones the model was last
    /// fit on, refits the model on them.
    fn refit(&mut self) {
        let excess = self.window.len().saturating_sub(DETECTOR_WINDOW);
        self.window.drain(..excess);
        if self.window.len() < DETECTOR_MIN_ROWS || same_bits(&self.window, &self.fitted) {
            return;
        }
        self.model = ScalarZScore::fit(&self.window, self.contamination, &mut self.scores);
        self.fitted.clone_from(&self.window);
    }
}

/// Whether two sample slices hold the same values, bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The streaming monitor for one campaign. A clone carries every
/// window, the detector and the verdicts, so it reaches the verdicts
/// the original would from there on; its telemetry handles start
/// empty on the same registry.
#[derive(Clone)]
pub struct HealthMonitor {
    telemetry: MonitorTelemetry,
    cfg: HealthConfig,
    /// Per-node compute-inflation windows (actual / healthy duration).
    inflation: Vec<Window<f64>>,
    /// Per-node observed link-factor windows.
    link: Vec<Window<f64>>,
    /// Per-node `(at_us, inflation)` accelerator samples.
    fpga: Vec<Window<(f64, f64)>>,
    detector: Detector,
    samples_since_refit: usize,
    /// `(node, kind)` pairs already convicted — one verdict each.
    emitted: BTreeSet<(usize, VerdictKind)>,
    /// Every verdict reached, in emission order.
    verdicts: Vec<HealthVerdict>,
    /// Verdicts not yet drained by the control side.
    pending: Vec<HealthVerdict>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("cfg", &self.cfg)
            .field("nodes", &self.inflation.len())
            .field("verdicts", &self.verdicts)
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// A monitor over `nodes` nodes, mirroring samples into `registry`.
    /// The seed is accepted and ignored: no verdict depends on it.
    pub fn new(
        nodes: usize,
        cfg: HealthConfig,
        _seed: u64,
        registry: Arc<Registry>,
    ) -> HealthMonitor {
        HealthMonitor {
            telemetry: MonitorTelemetry::new(nodes, cfg.window, registry),
            inflation: (0..nodes).map(|_| Window::new(cfg.window)).collect(),
            link: (0..nodes).map(|_| Window::new(cfg.window)).collect(),
            fpga: (0..nodes).map(|_| Window::new(cfg.window)).collect(),
            detector: Detector::baseline(&cfg),
            cfg,
            samples_since_refit: 0,
            emitted: BTreeSet::new(),
            verdicts: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Applies every telemetry sample the monitor's handles still
    /// buffer, so a registry reader sees all of them.
    pub fn flush(&mut self) {
        let telemetry = &mut self.telemetry;
        (telemetry.node_inflation.iter_mut()).for_each(MonitorHandle::flush);
        (telemetry.node_link.iter_mut()).for_each(MonitorHandle::flush);
        telemetry.inflation.flush();
        telemetry.link_factor.flush();
        telemetry.fpga_inflation.flush();
    }

    /// Every verdict reached so far, in emission order.
    pub fn verdicts(&self) -> &[HealthVerdict] {
        &self.verdicts
    }

    /// Drains the verdicts emitted since the last drain (the control
    /// loop polls this after every fed sample).
    pub fn drain_new(&mut self) -> Vec<HealthVerdict> {
        std::mem::take(&mut self.pending)
    }

    /// Records an externally established verdict (e.g. serve's
    /// membership layer confirming a node [`VerdictKind::Unreachable`])
    /// with the monitor's once-per-`(node, kind)` dedup. Returns the
    /// verdict when it is new.
    pub fn flag(
        &mut self,
        kind: VerdictKind,
        node: usize,
        at_us: f64,
        score: f64,
    ) -> Option<HealthVerdict> {
        if !self.emitted.insert((node, kind)) {
            return None;
        }
        let verdict = HealthVerdict {
            at_us,
            node,
            kind,
            score,
        };
        let registry = &self.telemetry.registry;
        registry.counter_add("health.verdicts", 1);
        registry.event("health.verdict", verdict.describe());
        self.verdicts.push(verdict.clone());
        self.pending.push(verdict.clone());
        Some(verdict)
    }

    /// Feeds one completed task: `inflation` is achieved duration over
    /// the healthy model's prediction for the same placement.
    pub fn record_task(&mut self, node: usize, inflation: f64, at_us: f64) {
        if node >= self.inflation.len() {
            return;
        }
        self.inflation[node].push(inflation);
        self.telemetry.node_inflation[node].observe(inflation);
        self.telemetry.inflation.record(inflation);
        self.telemetry.samples.add(1);

        // Feed the online detector: normal-looking samples become
        // training data.
        let detector = &mut self.detector;
        if !detector.model.is_anomalous(inflation) {
            detector.window.push(inflation);
        }
        self.samples_since_refit += 1;
        if self.samples_since_refit >= self.cfg.refit_every {
            self.samples_since_refit = 0;
            detector.refit();
        }

        let window = &self.inflation[node];
        if window.len() >= self.cfg.min_samples {
            let mean = window.mean();
            if mean >= self.cfg.straggler_ratio && self.detector.model.is_anomalous(mean) {
                self.flag(VerdictKind::Straggler, node, at_us, mean);
            }
        }
    }

    /// Feeds one observed transfer: `factor` is achieved transfer cost
    /// over the healthy link model's prediction.
    pub fn record_link(&mut self, node: usize, factor: f64, at_us: f64) {
        if node >= self.link.len() {
            return;
        }
        self.link[node].push(factor);
        self.telemetry.node_link[node].observe(factor);
        self.telemetry.link_factor.record(factor);

        let window = &self.link[node];
        if window.len() >= self.cfg.min_samples {
            let mean = window.mean();
            if mean >= self.cfg.link_factor {
                self.flag(VerdictKind::GrayLink, node, at_us, mean);
            }
        }
    }

    /// Feeds one accelerator completion: `inflation` as in
    /// [`HealthMonitor::record_task`], timestamped so the monitor can
    /// estimate the latency-creep slope.
    pub fn record_fpga(&mut self, node: usize, inflation: f64, at_us: f64) {
        if node >= self.fpga.len() {
            return;
        }
        self.fpga[node].push((at_us, inflation));
        self.telemetry.fpga_inflation.record(inflation);

        let samples = &self.fpga[node];
        if samples.len() >= self.cfg.min_samples {
            let slope = samples.slope_per_ms();
            if slope >= self.cfg.creep_per_ms {
                self.flag(VerdictKind::DegradingVf, node, at_us, slope);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(nodes: usize) -> HealthMonitor {
        HealthMonitor::new(nodes, HealthConfig::default(), 7, Registry::new())
    }

    #[test]
    fn straggler_convicted_once_healthy_nodes_spared() {
        let mut m = monitor(2);
        for i in 0..8 {
            let at = 1_000.0 * (i + 1) as f64;
            m.record_task(0, 1.0, at);
            m.record_task(1, 4.0, at);
        }
        let verdicts = m.drain_new();
        assert_eq!(verdicts.len(), 1, "got {verdicts:?}");
        assert_eq!(verdicts[0].node, 1);
        assert_eq!(verdicts[0].kind, VerdictKind::Straggler);
        assert!(verdicts[0].score >= 1.5);
        // Dedup: further evidence never re-convicts.
        m.record_task(1, 4.0, 10_000.0);
        assert!(m.drain_new().is_empty());
        assert_eq!(m.verdicts().len(), 1);
    }

    #[test]
    fn gray_link_and_vf_creep_detected() {
        let mut m = monitor(2);
        for i in 0..6 {
            let at = 500.0 * (i + 1) as f64;
            m.record_link(0, 1.0, at);
            m.record_link(1, 5.0, at);
            // Accelerator latency creeping up ~0.1 per ms on node 0.
            m.record_fpga(0, 1.0 + 0.1 * at / 1_000.0, at);
        }
        let verdicts = m.drain_new();
        let kinds: Vec<(usize, VerdictKind)> = verdicts.iter().map(|v| (v.node, v.kind)).collect();
        assert!(kinds.contains(&(1, VerdictKind::GrayLink)), "got {kinds:?}");
        assert!(
            kinds.contains(&(0, VerdictKind::DegradingVf)),
            "got {kinds:?}"
        );
        assert!(!kinds.contains(&(0, VerdictKind::GrayLink)));
    }

    #[test]
    fn verdicts_are_deterministic_and_registry_independent() {
        let run = |registry: Arc<Registry>| {
            let mut m = HealthMonitor::new(3, HealthConfig::default(), 11, registry);
            for i in 0..40 {
                let at = 250.0 * (i + 1) as f64;
                m.record_task(i % 3, if i % 3 == 2 { 3.5 } else { 1.02 }, at);
                m.record_link(i % 3, 1.1, at);
            }
            m.verdicts().to_vec()
        };
        let a = run(Registry::new());
        let shared = Registry::new();
        shared.counter_add("health.samples", 999); // pre-polluted registry
        let b = run(shared);
        assert_eq!(a, b, "decisions must not read the registry back");
        assert!(a.iter().any(|v| v.kind == VerdictKind::Straggler));
    }

    #[test]
    fn verdicts_do_not_depend_on_the_seed() {
        let run = |seed: u64| {
            let mut m = HealthMonitor::new(3, HealthConfig::default(), seed, Registry::new());
            for i in 0..40 {
                let at = 250.0 * (i + 1) as f64;
                m.record_task(i % 3, if i % 3 == 2 { 3.5 } else { 1.02 }, at);
                m.record_link(i % 3, if i % 3 == 1 { 5.0 } else { 1.1 }, at);
                m.record_fpga(0, 1.0 + 0.1 * at / 1_000.0, at);
            }
            m.verdicts().to_vec()
        };
        let a = run(7);
        assert_eq!(a, run(u64::MAX));
        let kinds: Vec<VerdictKind> = a.iter().map(|v| v.kind).collect();
        for kind in [
            VerdictKind::Straggler,
            VerdictKind::GrayLink,
            VerdictKind::DegradingVf,
        ] {
            assert!(kinds.contains(&kind), "{kind:?} in {kinds:?}");
        }
    }

    #[test]
    fn a_clone_reaches_the_verdicts_of_the_original() {
        let sample = |i: usize| {
            // Node 1 degrades late, so the verdict lands after the
            // clone is taken.
            let inflation = if i >= 24 && i % 2 == 1 { 4.2 } else { 1.01 };
            (i % 2, inflation, 400.0 * (i + 1) as f64)
        };
        let mut uninterrupted = monitor(2);
        for (node, inflation, at) in (0..20).map(sample) {
            uninterrupted.record_task(node, inflation, at);
        }
        let mut clone = uninterrupted.clone();
        for (node, inflation, at) in (20..48).map(sample) {
            uninterrupted.record_task(node, inflation, at);
            clone.record_task(node, inflation, at);
            assert_eq!(uninterrupted.drain_new(), clone.drain_new(), "at {at}");
        }
        assert_eq!(uninterrupted.verdicts(), clone.verdicts());
        assert!(!clone.verdicts().is_empty(), "a verdict after the clone");
    }

    #[test]
    fn a_clone_never_publishes_the_originals_buffered_samples() {
        let counts = |clone: bool| {
            let registry = Registry::new();
            let mut m = HealthMonitor::new(1, HealthConfig::default(), 5, Arc::clone(&registry));
            for i in 0..3 {
                let at = 100.0 * f64::from(i + 1);
                m.record_task(0, 1.25, at);
                m.record_link(0, 1.5, at);
            }
            if clone {
                drop(m.clone());
            }
            drop(m);
            let window = |name: &str| registry.monitor(name).map(|w| w.count());
            let histogram = |name: &str| registry.histogram(name).map(|h| h.count);
            (
                window("health.node0.inflation"),
                window("health.node0.link"),
                histogram("health.inflation"),
                histogram("health.link_factor"),
                registry.counter("health.samples"),
            )
        };
        assert_eq!(counts(true), counts(false));
        assert_eq!(counts(false), (Some(3), Some(3), Some(1), Some(1), 3));
    }

    #[test]
    fn flush_publishes_a_live_monitors_samples() {
        let registry = Registry::new();
        let mut m = HealthMonitor::new(1, HealthConfig::default(), 5, Arc::clone(&registry));
        for i in 0..3 {
            let at = 100.0 * f64::from(i + 1);
            m.record_task(0, 1.25, at);
            m.record_link(0, 1.5, at);
        }
        m.flush();
        let window = |name: &str| registry.monitor(name).map(|w| (w.count(), w.mean()));
        assert_eq!(window("health.node0.inflation"), Some((3, Some(1.25))));
        assert_eq!(window("health.node0.link"), Some((3, Some(1.5))));
        // The first of every `HEALTH_SAMPLE_EVERY` samples is recorded.
        let count = |name: &str| registry.histogram(name).map(|h| h.count);
        assert_eq!(count("health.inflation"), Some(1));
        assert_eq!(count("health.link_factor"), Some(1));
    }

    #[test]
    fn telemetry_mirrors_samples() {
        let registry = Registry::new();
        let mut m = HealthMonitor::new(1, HealthConfig::default(), 5, Arc::clone(&registry));
        for i in 0..6 {
            m.record_task(0, 5.0, 100.0 * (i + 1) as f64);
        }
        assert!(registry
            .monitor_names()
            .iter()
            .any(|n| n == "health.node0.inflation"));
        let events = registry.events();
        assert!(events.iter().any(|e| e.name == "health.verdict"));
    }
}
