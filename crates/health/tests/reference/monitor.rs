//! The `HealthMonitor` that the streaming detector replaced, kept
//! verbatim as the reference `monitor_props.rs` holds the crate's
//! monitor to: `Vec` windows trimmed with `drain`, and a
//! `DetectionNode`-backed z-score fed one `vec![x]` row per sample and
//! refit through `fit_detector`'s boxed detector. `HealthConfig`,
//! `HealthVerdict` and `VerdictKind` are the crate's own.

#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::Arc;

use everest_anomaly::dataset::Dataset;
use everest_anomaly::service::{fit_detector, DetectionNode};
use everest_anomaly::tpe::{ParamValue, Params};
use everest_telemetry::{CounterHandle, HistogramHandle, MonitorHandle, Registry};

use everest_health::{HealthConfig, HealthVerdict, VerdictKind};

/// Every Nth fed sample lands in the `health.inflation`,
/// `health.link_factor` and `health.fpga_inflation` distribution
/// histograms (deterministic, not randomized — replays stay
/// byte-identical). The verdict logic, the per-node windowed monitors
/// and the exact `health.samples` counter are never sampled.
const HEALTH_SAMPLE_EVERY: u64 = 8;

/// Pre-resolved telemetry handles for the monitor's per-sample hot
/// path: one registry-map lookup per name at construction instead of
/// one string-keyed lookup (plus a `format!` for the per-node names)
/// per fed sample.
struct MonitorTelemetry {
    node_inflation: Vec<MonitorHandle>,
    node_link: Vec<MonitorHandle>,
    inflation: HistogramHandle,
    link_factor: HistogramHandle,
    fpga_inflation: HistogramHandle,
    samples: CounterHandle,
}

impl MonitorTelemetry {
    fn new(nodes: usize, window: usize, registry: &Arc<Registry>) -> MonitorTelemetry {
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
        }
    }
}

/// Plain-data snapshot of a [`HealthMonitor`], sufficient to rebuild it
/// exactly (detector refits are pure functions of rows + params + seed,
/// so the snapshot stores rows, not models).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MonitorSnapshot {
    cfg: HealthConfig,
    seed: u64,
    inflation: Vec<Vec<f64>>,
    link: Vec<Vec<f64>>,
    fpga: Vec<Vec<(f64, f64)>>,
    detector_window: Vec<Vec<f64>>,
    last_refit_len: Option<usize>,
    samples_since_refit: usize,
    emitted: Vec<(usize, VerdictKind)>,
    verdicts: Vec<HealthVerdict>,
}

/// The streaming monitor for one campaign.
pub(crate) struct HealthMonitor {
    registry: Arc<Registry>,
    telemetry: MonitorTelemetry,
    cfg: HealthConfig,
    seed: u64,
    /// Per-node compute-inflation windows (actual / healthy duration).
    inflation: Vec<Vec<f64>>,
    /// Per-node observed link-factor windows.
    link: Vec<Vec<f64>>,
    /// Per-node `(at_us, inflation)` accelerator samples.
    fpga: Vec<Vec<(f64, f64)>>,
    /// Online anomaly detector over single-feature inflation rows.
    node: DetectionNode,
    /// Length of the window prefix the detector was last refit on (for
    /// exact restore). The post-refit window is exactly what the
    /// detector saw — `update` evicts before fitting — and only grows
    /// by appends until the next refit, so a length pins it down
    /// without cloning rows on the hot path.
    last_refit_len: Option<usize>,
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
            .field("seed", &self.seed)
            .field("nodes", &self.inflation.len())
            .field("verdicts", &self.verdicts)
            .finish_non_exhaustive()
    }
}

/// Baseline detector: a z-score model fit on a synthetic healthy prior
/// (inflation ≈ 1 with a small deterministic spread), refit online as
/// real samples stream in.
fn baseline_node(cfg: &HealthConfig, seed: u64) -> (DetectionNode, Params) {
    let mut params = Params::new();
    params.insert("family".into(), ParamValue::C("zscore".into()));
    params.insert("contamination".into(), ParamValue::F(cfg.contamination));
    let rows: Vec<Vec<f64>> = (0..32)
        .map(|i| vec![1.0 + 0.02 * ((i % 7) as f64 - 3.0)])
        .collect();
    let detector = fit_detector(&params, &Dataset::from_rows(rows), seed);
    (
        DetectionNode::from_detector(detector, params.clone(), 64, seed),
        params,
    )
}

impl HealthMonitor {
    /// A monitor over `nodes` nodes, mirroring samples into `registry`.
    pub(crate) fn new(
        nodes: usize,
        cfg: HealthConfig,
        seed: u64,
        registry: Arc<Registry>,
    ) -> HealthMonitor {
        let (node, _) = baseline_node(&cfg, seed);
        HealthMonitor {
            telemetry: MonitorTelemetry::new(nodes, cfg.window, &registry),
            registry,
            cfg,
            seed,
            inflation: vec![Vec::new(); nodes],
            link: vec![Vec::new(); nodes],
            fpga: vec![Vec::new(); nodes],
            node,
            last_refit_len: None,
            samples_since_refit: 0,
            emitted: BTreeSet::new(),
            verdicts: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The monitor's configuration.
    pub(crate) fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Every verdict reached so far, in emission order.
    pub(crate) fn verdicts(&self) -> &[HealthVerdict] {
        &self.verdicts
    }

    /// Drains the verdicts emitted since the last drain (the control
    /// loop polls this after every fed sample).
    pub(crate) fn drain_new(&mut self) -> Vec<HealthVerdict> {
        std::mem::take(&mut self.pending)
    }

    fn push_window(window: &mut Vec<f64>, cap: usize, value: f64) {
        window.push(value);
        if window.len() > cap {
            let excess = window.len() - cap;
            window.drain(..excess);
        }
    }

    fn mean(window: &[f64]) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        window.iter().sum::<f64>() / window.len() as f64
    }

    /// Records an externally established verdict (e.g. serve's
    /// membership layer confirming a node [`VerdictKind::Unreachable`])
    /// with the monitor's once-per-`(node, kind)` dedup. Returns the
    /// verdict when it is new.
    pub(crate) fn flag(
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
        self.registry.counter_add("health.verdicts", 1);
        self.registry.event("health.verdict", verdict.describe());
        self.verdicts.push(verdict.clone());
        self.pending.push(verdict.clone());
        Some(verdict)
    }

    /// Feeds one completed task: `inflation` is achieved duration over
    /// the healthy model's prediction for the same placement.
    pub(crate) fn record_task(&mut self, node: usize, inflation: f64, at_us: f64) {
        if node >= self.inflation.len() {
            return;
        }
        Self::push_window(&mut self.inflation[node], self.cfg.window, inflation);
        self.telemetry.node_inflation[node].observe(inflation);
        self.telemetry.inflation.record(inflation);
        self.telemetry.samples.add(1);

        // Feed the online detector: normal-looking samples become
        // training data, exactly like DetectionNode::detect.
        if !self.node.score_row(&[inflation]) {
            self.node.push_normal(vec![inflation]);
        }
        self.samples_since_refit += 1;
        if self.samples_since_refit >= self.cfg.refit_every {
            self.samples_since_refit = 0;
            self.node.update();
            self.last_refit_len = Some(self.node.window_rows().len());
        }

        let window = &self.inflation[node];
        if window.len() >= self.cfg.min_samples {
            let mean = Self::mean(window);
            if mean >= self.cfg.straggler_ratio && self.node.score_row(&[mean]) {
                self.flag(VerdictKind::Straggler, node, at_us, mean);
            }
        }
    }

    /// Feeds one observed transfer: `factor` is achieved transfer cost
    /// over the healthy link model's prediction.
    pub(crate) fn record_link(&mut self, node: usize, factor: f64, at_us: f64) {
        if node >= self.link.len() {
            return;
        }
        Self::push_window(&mut self.link[node], self.cfg.window, factor);
        self.telemetry.node_link[node].observe(factor);
        self.telemetry.link_factor.record(factor);

        let window = &self.link[node];
        if window.len() >= self.cfg.min_samples {
            let mean = Self::mean(window);
            if mean >= self.cfg.link_factor {
                self.flag(VerdictKind::GrayLink, node, at_us, mean);
            }
        }
    }

    /// Feeds one accelerator completion: `inflation` as in
    /// [`HealthMonitor::record_task`], timestamped so the monitor can
    /// estimate the latency-creep slope.
    pub(crate) fn record_fpga(&mut self, node: usize, inflation: f64, at_us: f64) {
        if node >= self.fpga.len() {
            return;
        }
        let samples = &mut self.fpga[node];
        samples.push((at_us, inflation));
        if samples.len() > self.cfg.window {
            let excess = samples.len() - self.cfg.window;
            samples.drain(..excess);
        }
        self.telemetry.fpga_inflation.record(inflation);

        if samples.len() >= self.cfg.min_samples {
            let slope = Self::slope_per_ms(samples);
            if slope >= self.cfg.creep_per_ms {
                self.flag(VerdictKind::DegradingVf, node, at_us, slope);
            }
        }
    }

    /// Least-squares inflation slope in 1/ms over `(at_us, inflation)`
    /// samples; 0 for degenerate windows.
    fn slope_per_ms(samples: &[(f64, f64)]) -> f64 {
        let n = samples.len() as f64;
        let mean_t = samples.iter().map(|(t, _)| t).sum::<f64>() / n;
        let mean_y = samples.iter().map(|(_, y)| y).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (t, y) in samples {
            num += (t - mean_t) * (y - mean_y);
            den += (t - mean_t) * (t - mean_t);
        }
        if den <= 0.0 {
            return 0.0;
        }
        num / den * 1_000.0
    }

    /// The rows the detector holds: after a refit, the rows it was
    /// fit on (`monitor_props.rs` reads which refits refit the same
    /// rows).
    pub(crate) fn detector_rows(&self) -> &[Vec<f64>] {
        self.node.window_rows()
    }

    /// Plain-data snapshot for checkpointing; see
    /// [`HealthMonitor::restore`].
    pub(crate) fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            cfg: self.cfg.clone(),
            seed: self.seed,
            inflation: self.inflation.clone(),
            link: self.link.clone(),
            fpga: self.fpga.clone(),
            detector_window: self.node.window_rows().to_vec(),
            last_refit_len: self.last_refit_len,
            samples_since_refit: self.samples_since_refit,
            emitted: self.emitted.iter().cloned().collect(),
            verdicts: self.verdicts.clone(),
        }
    }

    /// Rebuilds a monitor exactly from a snapshot: the detector is
    /// re-derived by replaying the last refit (a pure function of the
    /// stored rows), so the restored monitor reaches the same verdicts
    /// at the same virtual times as one that never stopped.
    pub(crate) fn restore(snap: MonitorSnapshot, registry: Arc<Registry>) -> HealthMonitor {
        let (mut node, _) = baseline_node(&snap.cfg, snap.seed);
        if let Some(len) = snap.last_refit_len {
            let len = len.min(snap.detector_window.len());
            node.replace_window(snap.detector_window[..len].to_vec());
            node.update();
        }
        node.replace_window(snap.detector_window);
        HealthMonitor {
            telemetry: MonitorTelemetry::new(snap.inflation.len(), snap.cfg.window, &registry),
            registry,
            cfg: snap.cfg,
            seed: snap.seed,
            inflation: snap.inflation,
            link: snap.link,
            fpga: snap.fpga,
            node,
            last_refit_len: snap.last_refit_len,
            samples_since_refit: snap.samples_since_refit,
            emitted: snap.emitted.into_iter().collect(),
            verdicts: snap.verdicts,
            pending: Vec::new(),
        }
    }
}
