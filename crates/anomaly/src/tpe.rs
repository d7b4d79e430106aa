//! Tree-structured Parzen Estimator (TPE) hyperparameter optimization —
//! the algorithm Optuna uses for sampling, cited by the paper for the
//! model-selection node (§VII, ref \[1\]).
//!
//! TPE models `p(x | y good)` and `p(x | y bad)` with Parzen windows
//! over the observation history, and proposes the candidate maximizing
//! the density ratio `l(x)/g(x)` among samples drawn from `l`.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

/// A hyperparameter domain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ParamSpec {
    /// Continuous in `[lo, hi]`; `log` scales the space.
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Sample in log space.
        log: bool,
    },
    /// Integer in `[lo, hi]`.
    Int {
        /// Lower bound.
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// One of the options.
    Categorical {
        /// Option labels.
        options: Vec<String>,
    },
}

/// A sampled hyperparameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Float value.
    F(f64),
    /// Integer value.
    I(i64),
    /// Categorical label.
    C(String),
}

impl ParamValue {
    /// Float payload (ints convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::F(v) => Some(*v),
            ParamValue::I(v) => Some(*v as f64),
            ParamValue::C(_) => None,
        }
    }

    /// Integer payload (floats round).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::I(v) => Some(*v),
            ParamValue::F(v) => Some(v.round() as i64),
            ParamValue::C(_) => None,
        }
    }

    /// Categorical payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::C(s) => Some(s),
            _ => None,
        }
    }
}

/// A full assignment.
pub type Params = BTreeMap<String, ParamValue>;

/// The search space.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchSpace {
    /// Parameter specs by name.
    pub params: BTreeMap<String, ParamSpec>,
}

impl SearchSpace {
    /// Creates an empty space.
    pub(crate) fn new() -> SearchSpace {
        SearchSpace::default()
    }

    /// Adds a float parameter.
    pub(crate) fn float(mut self, name: &str, lo: f64, hi: f64, log: bool) -> SearchSpace {
        self.params
            .insert(name.to_string(), ParamSpec::Float { lo, hi, log });
        self
    }

    /// Adds an integer parameter.
    pub(crate) fn int(mut self, name: &str, lo: i64, hi: i64) -> SearchSpace {
        self.params
            .insert(name.to_string(), ParamSpec::Int { lo, hi });
        self
    }

    /// Adds a categorical parameter.
    pub(crate) fn categorical<I, S>(mut self, name: &str, options: I) -> SearchSpace
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.params.insert(
            name.to_string(),
            ParamSpec::Categorical {
                options: options.into_iter().map(Into::into).collect(),
            },
        );
        self
    }

    /// Draws a uniform random assignment.
    pub(crate) fn sample_uniform(&self, rng: &mut StdRng) -> Params {
        self.params
            .iter()
            .map(|(name, spec)| (name.clone(), sample_spec(spec, rng)))
            .collect()
    }
}

fn sample_spec(spec: &ParamSpec, rng: &mut StdRng) -> ParamValue {
    match spec {
        ParamSpec::Float { lo, hi, log } => {
            if *log {
                let v = rng.random_range(lo.ln()..hi.ln()).exp();
                ParamValue::F(v)
            } else {
                ParamValue::F(rng.random_range(*lo..*hi))
            }
        }
        ParamSpec::Int { lo, hi } => ParamValue::I(rng.random_range(*lo..=*hi)),
        ParamSpec::Categorical { options } => {
            ParamValue::C(options[rng.random_range(0..options.len())].clone())
        }
    }
}

/// One completed trial.
#[derive(Debug, Clone)]
pub(crate) struct Trial {
    /// The evaluated assignment.
    pub params: Params,
    /// Objective value (higher is better).
    pub score: f64,
}

/// The TPE sampler.
#[derive(Debug, Clone)]
pub(crate) struct TpeSampler {
    /// Trials evaluated so far.
    pub history: Vec<Trial>,
    /// Random trials before the model kicks in.
    pub n_startup: usize,
    /// Fraction of history treated as "good".
    pub gamma: f64,
    /// Candidates drawn from `l` per suggestion.
    pub n_candidates: usize,
}

impl Default for TpeSampler {
    fn default() -> Self {
        TpeSampler {
            history: Vec::new(),
            n_startup: 8,
            gamma: 0.25,
            n_candidates: 24,
        }
    }
}

impl TpeSampler {
    /// Creates a sampler with Optuna-like defaults.
    pub(crate) fn new() -> TpeSampler {
        TpeSampler::default()
    }

    /// Records a finished trial.
    pub(crate) fn tell(&mut self, params: Params, score: f64) {
        self.history.push(Trial { params, score });
    }

    /// Suggests the next assignment to evaluate.
    pub(crate) fn suggest(&self, space: &SearchSpace, rng: &mut StdRng) -> Params {
        if self.history.len() < self.n_startup {
            return space.sample_uniform(rng);
        }
        // Split good/bad by score (maximization).
        let mut sorted: Vec<&Trial> = self.history.iter().collect();
        sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        let n_good = ((sorted.len() as f64 * self.gamma).ceil() as usize)
            .clamp(1, sorted.len().saturating_sub(1).max(1));
        let good = &sorted[..n_good];
        let bad = &sorted[n_good..];

        let mut best: Option<(Params, f64)> = None;
        for _ in 0..self.n_candidates {
            let mut candidate = Params::new();
            let mut log_ratio = 0.0;
            for (name, spec) in &space.params {
                let value = sample_from_good(name, spec, good, rng);
                log_ratio += log_density(name, spec, &value, good).max(-30.0)
                    - log_density(name, spec, &value, bad).max(-30.0);
                candidate.insert(name.clone(), value);
            }
            let better = match &best {
                None => true,
                Some((_, b)) => log_ratio > *b,
            };
            if better {
                best = Some((candidate, log_ratio));
            }
        }
        best.map(|(p, _)| p)
            .unwrap_or_else(|| space.sample_uniform(rng))
    }
}

/// Samples one parameter from the Parzen model of the good trials.
fn sample_from_good(name: &str, spec: &ParamSpec, good: &[&Trial], rng: &mut StdRng) -> ParamValue {
    match spec {
        ParamSpec::Float { lo, hi, log } => {
            let values: Vec<f64> = good
                .iter()
                .filter_map(|t| t.params.get(name).and_then(ParamValue::as_f64))
                .collect();
            if values.is_empty() {
                return sample_spec(spec, rng);
            }
            let (tlo, thi) = transform_range(*lo, *hi, *log);
            let bw = bandwidth(tlo, thi, values.len());
            let center = to_t(values[rng.random_range(0..values.len())], *log);
            // Box-Muller gaussian around the chosen center.
            let u1: f64 = rng.random_range(1e-12..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let t = (center + z * bw).clamp(tlo, thi);
            ParamValue::F(from_t(t, *log))
        }
        ParamSpec::Int { lo, hi } => {
            let values: Vec<f64> = good
                .iter()
                .filter_map(|t| t.params.get(name).and_then(ParamValue::as_f64))
                .collect();
            if values.is_empty() {
                return sample_spec(spec, rng);
            }
            let bw = bandwidth(*lo as f64, *hi as f64, values.len());
            let center = values[rng.random_range(0..values.len())];
            let u1: f64 = rng.random_range(1e-12..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (center + z * bw).round().clamp(*lo as f64, *hi as f64);
            ParamValue::I(v as i64)
        }
        ParamSpec::Categorical { options } => {
            // Smoothed counts over the good trials.
            let mut weights = vec![1.0f64; options.len()];
            for t in good {
                if let Some(ParamValue::C(s)) = t.params.get(name) {
                    if let Some(ix) = options.iter().position(|o| o == s) {
                        weights[ix] += 1.0;
                    }
                }
            }
            let total: f64 = weights.iter().sum();
            let mut draw = rng.random_range(0.0..total);
            for (ix, w) in weights.iter().enumerate() {
                if draw < *w {
                    return ParamValue::C(options[ix].clone());
                }
                draw -= w;
            }
            ParamValue::C(options.last().expect("non-empty options").clone())
        }
    }
}

/// Log Parzen density of `value` under the trials' observations.
fn log_density(name: &str, spec: &ParamSpec, value: &ParamValue, trials: &[&Trial]) -> f64 {
    match spec {
        ParamSpec::Float { lo, hi, log } => {
            let x = match value.as_f64() {
                Some(v) => to_t(v, *log),
                None => return -30.0,
            };
            let values: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.params.get(name).and_then(ParamValue::as_f64))
                .map(|v| to_t(v, *log))
                .collect();
            let (tlo, thi) = transform_range(*lo, *hi, *log);
            parzen_log(x, &values, tlo, thi)
        }
        ParamSpec::Int { lo, hi } => {
            let x = match value.as_f64() {
                Some(v) => v,
                None => return -30.0,
            };
            let values: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.params.get(name).and_then(ParamValue::as_f64))
                .collect();
            parzen_log(x, &values, *lo as f64, *hi as f64)
        }
        ParamSpec::Categorical { options } => {
            let Some(s) = value.as_str() else {
                return -30.0;
            };
            let mut weights = vec![1.0f64; options.len()];
            for t in trials {
                if let Some(ParamValue::C(c)) = t.params.get(name) {
                    if let Some(ix) = options.iter().position(|o| o == c) {
                        weights[ix] += 1.0;
                    }
                }
            }
            let total: f64 = weights.iter().sum();
            options
                .iter()
                .position(|o| o == s)
                .map(|ix| (weights[ix] / total).ln())
                .unwrap_or(-30.0)
        }
    }
}

fn parzen_log(x: f64, centers: &[f64], lo: f64, hi: f64) -> f64 {
    if centers.is_empty() {
        // uniform prior
        return -((hi - lo).max(1e-12)).ln();
    }
    let bw = bandwidth(lo, hi, centers.len());
    let mut density = 0.0;
    for &c in centers {
        let z = (x - c) / bw;
        density += (-0.5 * z * z).exp() / (bw * (2.0 * std::f64::consts::PI).sqrt());
    }
    (density / centers.len() as f64).max(1e-300).ln()
}

fn bandwidth(lo: f64, hi: f64, n: usize) -> f64 {
    ((hi - lo).max(1e-12)) / (n as f64).sqrt().max(1.0)
}

fn to_t(v: f64, log: bool) -> f64 {
    if log {
        v.max(1e-300).ln()
    } else {
        v
    }
}

fn from_t(t: f64, log: bool) -> f64 {
    if log {
        t.exp()
    } else {
        t
    }
}

fn transform_range(lo: f64, hi: f64, log: bool) -> (f64, f64) {
    (to_t(lo, log), to_t(hi, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .float("x", -5.0, 5.0, false)
            .float("scale", 1e-4, 1.0, true)
            .int("k", 1, 20)
            .categorical("family", ["a", "b", "c"])
    }

    /// Objective with a clear optimum: x near 2, k near 10, family "b".
    fn objective(p: &Params) -> f64 {
        let x = p["x"].as_f64().unwrap();
        let k = p["k"].as_i64().unwrap() as f64;
        let fam = if p["family"].as_str() == Some("b") {
            1.0
        } else {
            0.0
        };
        -(x - 2.0).powi(2) - 0.05 * (k - 10.0).powi(2) + 2.0 * fam
    }

    fn run(strategy_tpe: bool, seed: u64, trials: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = space();
        let mut sampler = TpeSampler::new();
        let mut best = f64::NEG_INFINITY;
        for _ in 0..trials {
            let params = if strategy_tpe {
                sampler.suggest(&sp, &mut rng)
            } else {
                sp.sample_uniform(&mut rng)
            };
            let score = objective(&params);
            best = best.max(score);
            sampler.tell(params, score);
        }
        best
    }

    #[test]
    fn sample_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let sp = space();
        for _ in 0..100 {
            let p = sp.sample_uniform(&mut rng);
            let x = p["x"].as_f64().unwrap();
            assert!((-5.0..5.0).contains(&x));
            let s = p["scale"].as_f64().unwrap();
            assert!((1e-4..=1.0).contains(&s), "log-scale sample {s}");
            let k = p["k"].as_i64().unwrap();
            assert!((1..=20).contains(&k));
            assert!(["a", "b", "c"].contains(&p["family"].as_str().unwrap()));
        }
    }

    #[test]
    fn tpe_suggestions_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let sp = space();
        let mut sampler = TpeSampler::new();
        for _ in 0..40 {
            let p = sampler.suggest(&sp, &mut rng);
            let score = objective(&p);
            sampler.tell(p.clone(), score);
            let x = p["x"].as_f64().unwrap();
            assert!((-5.0..=5.0).contains(&x));
            let k = p["k"].as_i64().unwrap();
            assert!((1..=20).contains(&k));
        }
    }

    #[test]
    fn tpe_beats_random_search_on_average() {
        let trials = 60;
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let tpe_mean: f64 =
            seeds.iter().map(|&s| run(true, s, trials)).sum::<f64>() / seeds.len() as f64;
        let random_mean: f64 =
            seeds.iter().map(|&s| run(false, s, trials)).sum::<f64>() / seeds.len() as f64;
        assert!(
            tpe_mean >= random_mean,
            "TPE ({tpe_mean:.3}) must beat random ({random_mean:.3}) on this landscape"
        );
    }

    #[test]
    fn tpe_concentrates_on_good_region() {
        let mut rng = StdRng::seed_from_u64(17);
        let sp = SearchSpace::new().float("x", -5.0, 5.0, false);
        let mut sampler = TpeSampler::new();
        for _ in 0..50 {
            let p = sampler.suggest(&sp, &mut rng);
            let x = p["x"].as_f64().unwrap();
            let score = -(x - 2.0).powi(2);
            sampler.tell(p, score);
        }
        // late suggestions should cluster near 2
        let late: Vec<f64> = (0..20)
            .map(|_| sampler.suggest(&sp, &mut rng)["x"].as_f64().unwrap())
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            (mean - 2.0).abs() < 1.5,
            "late TPE samples should near the optimum, mean {mean}"
        );
    }
}
