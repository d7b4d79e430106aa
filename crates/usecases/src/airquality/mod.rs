//! The air-quality monitoring use case (paper §II-C, §VIII): forecast
//! the impact of an industrial site's releases over a 2–3 day window by
//! combining ensemble weather forecasts with plume dispersion, and
//! decide whether to activate (costly) emission-reduction measures.

pub(crate) mod plume;

pub use plume::Stack;

use crate::weather::{run_ensemble, EnsembleStrategy, State};
use plume::concentration_at;

/// A receptor (village, school, monitoring station) near the site.
#[derive(Debug, Clone, Copy)]
pub struct Receptor {
    /// Offset east of the stack in meters.
    pub east_m: f64,
    /// Offset north of the stack in meters.
    pub north_m: f64,
    /// Regulatory concentration limit (µg/m³).
    pub limit: f64,
}

/// The forecast for one receptor.
#[derive(Debug, Clone)]
pub struct ReceptorForecast {
    /// Probability (ensemble fraction) of exceeding the limit.
    pub exceedance_probability: f64,
    /// Ensemble-mean peak concentration (µg/m³).
    pub mean_peak: f64,
}

/// The site decision for the planning day.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Operate normally.
    Normal,
    /// Activate emission reduction (costs tens of thousands of euros per
    /// day, §II-C).
    ReduceEmissions {
        /// Highest receptor exceedance probability that triggered it.
        probability: f64,
    },
}

/// Site location on the model grid (weather is sampled there).
const SITE_I: usize = 10;
const SITE_J: usize = 8;

/// Runs the air-quality forecast: a weather ensemble drives plume
/// dispersion at each receptor; exceedance probabilities feed the
/// decision rule.
pub fn forecast_site(
    stack: &Stack,
    receptors: &[Receptor],
    strategy: EnsembleStrategy,
    members: usize,
    horizon_h: usize,
    decision_threshold: f64,
    seed: u64,
) -> (Vec<ReceptorForecast>, Decision) {
    let (states, _cycles) = run_ensemble(strategy, members, horizon_h, seed);
    let forecasts: Vec<ReceptorForecast> = receptors
        .iter()
        .map(|r| receptor_forecast(stack, r, &states, horizon_h as f64))
        .collect();
    let worst = forecasts
        .iter()
        .map(|f| f.exceedance_probability)
        .fold(0.0, f64::max);
    let decision = if worst >= decision_threshold {
        Decision::ReduceEmissions { probability: worst }
    } else {
        Decision::Normal
    };
    (forecasts, decision)
}

fn receptor_forecast(
    stack: &Stack,
    receptor: &Receptor,
    members: &[State],
    hour: f64,
) -> ReceptorForecast {
    let mut exceed = 0usize;
    let mut peaks = 0.0;
    for state in members {
        let u = state.u.at(SITE_I as isize, SITE_J as isize);
        let v = state.v.at(SITE_I as isize, SITE_J as isize);
        let c = concentration_at(stack, receptor.east_m, receptor.north_m, u, v, hour);
        if c > receptor.limit {
            exceed += 1;
        }
        peaks += c;
    }
    let n = members.len().max(1) as f64;
    ReceptorForecast {
        exceedance_probability: exceed as f64 / n,
        mean_peak: peaks / n,
    }
}

/// Evaluates a decision policy over many independent "days": compares
/// forecast decisions against what a perfect-knowledge operator (who
/// sees the deterministic truth run) would have done. Returns
/// `(hit_rate, false_alarm_rate, total_cost)` where reduction costs 1.0
/// and an un-mitigated exceedance costs `penalty`.
pub fn evaluate_policy(
    stack: &Stack,
    receptors: &[Receptor],
    members: usize,
    days: usize,
    decision_threshold: f64,
    penalty: f64,
    seed: u64,
) -> (f64, f64, f64) {
    let mut hits = 0.0;
    let mut false_alarms = 0.0;
    let mut events = 0.0;
    let mut non_events = 0.0;
    let mut cost = 0.0;
    for day in 0..days {
        let day_seed = seed + day as u64 * 7919;
        // truth: single deterministic run
        let (truth, _) = run_ensemble(EnsembleStrategy::GlobalForecasts, 1, 24, day_seed);
        let truth_exceeds = receptors.iter().any(|r| {
            let u = truth[0].u.at(SITE_I as isize, SITE_J as isize);
            let v = truth[0].v.at(SITE_I as isize, SITE_J as isize);
            concentration_at(stack, r.east_m, r.north_m, u, v, 24.0) > r.limit
        });
        // forecast from perturbed ensemble around the same day
        let (_, decision) = forecast_site(
            stack,
            receptors,
            EnsembleStrategy::FieldPerturbations,
            members,
            24,
            decision_threshold,
            day_seed,
        );
        let reduced = matches!(decision, Decision::ReduceEmissions { .. });
        if truth_exceeds {
            events += 1.0;
            if reduced {
                hits += 1.0;
                cost += 1.0;
            } else {
                cost += penalty;
            }
        } else {
            non_events += 1.0;
            if reduced {
                false_alarms += 1.0;
                cost += 1.0;
            }
        }
    }
    (
        if events > 0.0 { hits / events } else { 1.0 },
        if non_events > 0.0 {
            false_alarms / non_events
        } else {
            0.0
        },
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> (Stack, Vec<Receptor>) {
        (
            Stack {
                height_m: 40.0,
                rate_gs: 220.0,
            },
            vec![
                Receptor {
                    east_m: 1200.0,
                    north_m: 0.0,
                    limit: 40.0,
                },
                Receptor {
                    east_m: -800.0,
                    north_m: 600.0,
                    limit: 40.0,
                },
            ],
        )
    }

    #[test]
    fn forecast_produces_probabilities_in_range() {
        let (stack, receptors) = site();
        let (forecasts, _) = forecast_site(
            &stack,
            &receptors,
            EnsembleStrategy::FieldPerturbations,
            6,
            12,
            0.5,
            42,
        );
        assert_eq!(forecasts.len(), 2);
        for f in &forecasts {
            assert!((0.0..=1.0).contains(&f.exceedance_probability));
            assert!(f.mean_peak >= 0.0);
        }
    }

    #[test]
    fn huge_emissions_trigger_reduction() {
        let (_, receptors) = site();
        let dirty = Stack {
            height_m: 20.0,
            rate_gs: 100_000.0,
        };
        let (_, decision) = forecast_site(
            &dirty,
            &receptors,
            EnsembleStrategy::FieldPerturbations,
            6,
            12,
            0.3,
            42,
        );
        assert!(matches!(decision, Decision::ReduceEmissions { .. }));
    }

    #[test]
    fn tiny_emissions_stay_normal() {
        let (_, receptors) = site();
        let clean = Stack {
            height_m: 80.0,
            rate_gs: 0.01,
        };
        let (_, decision) = forecast_site(
            &clean,
            &receptors,
            EnsembleStrategy::FieldPerturbations,
            6,
            12,
            0.3,
            42,
        );
        assert_eq!(decision, Decision::Normal);
    }

    #[test]
    fn policy_evaluation_returns_rates() {
        let (stack, receptors) = site();
        let (hit, fa, cost) = evaluate_policy(&stack, &receptors, 4, 6, 0.4, 5.0, 11);
        assert!((0.0..=1.0).contains(&hit));
        assert!((0.0..=1.0).contains(&fa));
        assert!(cost >= 0.0);
    }
}
