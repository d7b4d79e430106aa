//! The WRF-role weather substrate (paper §II-A): a mini numerical model
//! with the RRTMG-style radiation kernel, station observations of a
//! model state, and ensemble generation.

pub(crate) mod assimilation;
pub mod grid;
pub mod model;
pub mod radiation;

pub use assimilation::{observe_truth, Observation};
pub use grid::{Field, State};
pub use model::{ModelConfig, WeatherModel};
pub use radiation::RadiationScheme;

/// The three ensemble strategies of §VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleStrategy {
    /// Different global forecasts as input (different IC seeds).
    GlobalForecasts,
    /// Different physical modules (perturbed physics parameters).
    PhysicsModules,
    /// Perturbations of the initial 3-D weather fields.
    FieldPerturbations,
}

/// Generates an ensemble of `members` forecast states at `hours`.
///
/// Returns one final [`State`] per member plus the total radiation work
/// in cycles (the FPGA-offloadable fraction).
pub fn run_ensemble(
    strategy: EnsembleStrategy,
    members: usize,
    hours: usize,
    seed: u64,
) -> (Vec<State>, u64) {
    let mut outputs = Vec::with_capacity(members);
    let mut cycles = 0u64;
    for m in 0..members {
        let config = match strategy {
            EnsembleStrategy::PhysicsModules => ModelConfig {
                radiative_amplitude: 0.7 + 0.15 * m as f64,
                diffusion: 0.06 + 0.01 * (m % 4) as f64,
                ..ModelConfig::default()
            },
            _ => ModelConfig::default(),
        };
        let model = WeatherModel::new(config);
        let initial = match strategy {
            EnsembleStrategy::GlobalForecasts => model.initial_condition(seed + m as u64),
            EnsembleStrategy::PhysicsModules => model.initial_condition(seed),
            EnsembleStrategy::FieldPerturbations => {
                let base = model.initial_condition(seed);
                model.perturb(&base, 0.5, seed + 1000 + m as u64)
            }
        };
        let (state, c) = model.forecast(&initial, hours);
        outputs.push(state);
        cycles += c;
    }
    (outputs, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean RMSE of members against the ensemble mean temperature field.
    fn ensemble_spread(members: &[State]) -> f64 {
        let (nx, ny) = (members[0].temp.nx, members[0].temp.ny);
        let mut mean = Field::constant(nx, ny, 0.0);
        for m in members {
            for (dst, src) in mean.data.iter_mut().zip(&m.temp.data) {
                *dst += src / members.len() as f64;
            }
        }
        members.iter().map(|m| m.temp.rmse(&mean)).sum::<f64>() / members.len() as f64
    }

    #[test]
    fn all_strategies_produce_spread() {
        for strategy in [
            EnsembleStrategy::GlobalForecasts,
            EnsembleStrategy::PhysicsModules,
            EnsembleStrategy::FieldPerturbations,
        ] {
            let (members, cycles) = run_ensemble(strategy, 4, 12, 42);
            assert_eq!(members.len(), 4);
            assert!(cycles > 0);
            let spread = ensemble_spread(&members);
            assert!(
                spread > 0.01,
                "{strategy:?} must produce ensemble spread, got {spread}"
            );
        }
    }

    #[test]
    fn radiation_work_scales_with_members_and_hours() {
        let (_, c4) = run_ensemble(EnsembleStrategy::GlobalForecasts, 4, 12, 7);
        let (_, c8) = run_ensemble(EnsembleStrategy::GlobalForecasts, 8, 12, 7);
        assert_eq!(c8, c4 * 2);
    }
}
