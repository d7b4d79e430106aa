//! The mini numerical weather model: semi-Lagrangian-ish advection,
//! diffusion, diurnal radiative forcing (through the RRTMG-style kernel)
//! and ensemble perturbations — the WRF stand-in of the use cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::grid::{wrap, State};
use super::radiation::{self, RadiationScheme};

/// Model configuration.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Time step in hours.
    pub dt_h: f64,
    /// Horizontal diffusion coefficient.
    pub diffusion: f64,
    /// Radiation scheme.
    pub radiation: RadiationScheme,
    /// Physics parameter: radiative forcing amplitude (perturbed across
    /// ensemble members using "different physical modules", §VIII).
    pub radiative_amplitude: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            nx: 24,
            ny: 16,
            dt_h: 1.0,
            diffusion: 0.08,
            radiation: RadiationScheme::Ekl,
            radiative_amplitude: 1.0,
        }
    }
}

/// The model: holds configuration and steps states forward.
#[derive(Debug, Clone)]
pub struct WeatherModel {
    /// Configuration.
    pub config: ModelConfig,
}

impl WeatherModel {
    /// Creates a model.
    pub fn new(config: ModelConfig) -> WeatherModel {
        WeatherModel { config }
    }

    /// A synthetic "global forecast" initial condition: a zonal jet with
    /// a travelling temperature wave, seeded for reproducibility (the
    /// different-global-forecast ensemble strategy varies the seed).
    pub fn initial_condition(&self, seed: u64) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nx, ny) = (self.config.nx, self.config.ny);
        let mut state = State::uniform(nx, ny);
        let phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let jet: f64 = rng.random_range(6.0..12.0);
        for j in 0..ny {
            let lat = j as f64 / ny as f64;
            for i in 0..nx {
                let lon = i as f64 / nx as f64;
                let wave = (std::f64::consts::TAU * (lon * 2.0) + phase).sin();
                state
                    .u
                    .set(i, j, jet * (std::f64::consts::PI * lat).sin() + wave);
                state
                    .v
                    .set(i, j, 1.5 * wave * (std::f64::consts::TAU * lat).cos());
                state.temp.set(i, j, 288.0 + 8.0 * (0.5 - lat) + 2.0 * wave);
                state.pressure.set(i, j, 1013.0 - 6.0 * wave - 3.0 * lat);
                state.humidity.set(i, j, 7.0 + 3.0 * (1.0 - lat) + wave);
            }
        }
        state
    }

    /// Perturbs a state's 3-D fields (the third ensemble strategy of
    /// §VIII: "perturbations in initial weather fields").
    pub(crate) fn perturb(&self, state: &State, magnitude: f64, seed: u64) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = state.clone();
        for f in [&mut out.u, &mut out.v, &mut out.temp, &mut out.humidity] {
            for v in &mut f.data {
                *v += rng.random_range(-magnitude..magnitude);
            }
        }
        out
    }

    /// Advances the state one time step; returns the radiation cycle
    /// count (the FPGA-offloadable work, used by the offload experiments).
    ///
    /// # Panics
    ///
    /// Panics if a field of `state` holds fewer values than the
    /// configured grid has cells.
    pub fn step(&self, state: &mut State) -> u64 {
        let (nx, ny) = (self.config.nx, self.config.ny);
        let dt = self.config.dt_h;
        // Advection: upstream semi-Lagrangian on temperature/humidity,
        // with winds in grid cells per hour (scaled). Both fields leave
        // from the same departure point, so its corners and weights are
        // found once per cell.
        let scale = 0.08 * dt;
        // The winds are only read here, so they need no copy.
        let mut old_t = state.temp.data.clone();
        let old_q = state.humidity.data.clone();
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                let u = state.u.data[k] * scale;
                let v = state.v.data[k] * scale;
                let (x, y) = (i as f64 - u, j as f64 - v);
                let (x0, y0) = (x.floor(), y.floor());
                let (fx, fy) = (x - x0, y - y0);
                let (ci, cj) = (x0 as isize, y0 as isize);
                let (i0, i1) = (wrap(ci, nx), wrap(ci + 1, nx));
                let (j0, j1) = (wrap(cj, ny) * nx, wrap(cj + 1, ny) * nx);
                let bilinear = |f: &[f64]| {
                    f[j0 + i0] * (1.0 - fx) * (1.0 - fy)
                        + f[j0 + i1] * fx * (1.0 - fy)
                        + f[j1 + i0] * (1.0 - fx) * fy
                        + f[j1 + i1] * fx * fy
                };
                state.temp.data[k] = bilinear(&old_t);
                state.humidity.data[k] = bilinear(&old_q);
            }
        }
        // Diffusion (5-point Laplacian) on all prognostic fields.
        for field in [
            &mut state.u,
            &mut state.v,
            &mut state.temp,
            &mut state.humidity,
        ] {
            // Advection is done with `old_t`: its buffer takes each
            // field's old values in turn.
            old_t.clone_from(&field.data);
            let old = &old_t;
            for j in 0..ny {
                let row = j * nx;
                let north = wrap(j as isize + 1, ny) * nx;
                let south = wrap(j as isize - 1, ny) * nx;
                for i in 0..nx {
                    let east = if i + 1 == nx { 0 } else { i + 1 };
                    let west = if i == 0 { nx - 1 } else { i - 1 };
                    let c = old[row + i];
                    let lap = old[row + east] + old[row + west] + old[north + i] + old[south + i]
                        - 4.0 * c;
                    field.data[row + i] = c + self.config.diffusion * dt * lap;
                }
            }
        }
        // Radiative heating through the gas-optics kernel (RRTMG role).
        let (heating, cycles) = radiation::heating_rates(
            &state.pressure,
            &state.humidity,
            state.time_h,
            self.config.radiation,
        );
        for (t, h) in state.temp.data.iter_mut().zip(&heating.data) {
            *t += self.config.radiative_amplitude * h * dt;
        }
        // Pressure relaxes toward a temperature-consistent value.
        for (p, &t) in state.pressure.data.iter_mut().zip(&state.temp.data) {
            let target = 1013.0 - 0.6 * (t - 288.0);
            *p += 0.3 * dt * (target - *p);
        }
        state.time_h += dt;
        cycles
    }

    /// Runs `hours` of simulation; returns the final state and total
    /// radiation cycles (the accelerable fraction of the run).
    pub fn forecast(&self, initial: &State, hours: usize) -> (State, u64) {
        let mut state = initial.clone();
        let mut cycles = 0;
        let steps = (hours as f64 / self.config.dt_h).round() as usize;
        for _ in 0..steps {
            cycles += self.step(&mut state);
        }
        (state, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_stays_physical() {
        let model = WeatherModel::new(ModelConfig::default());
        let initial = model.initial_condition(42);
        let (state, cycles) = model.forecast(&initial, 24);
        assert!(cycles > 0, "radiation must report work");
        for &t in &state.temp.data {
            assert!((230.0..330.0).contains(&t), "temperature {t} unphysical");
        }
        for &p in &state.pressure.data {
            assert!((900.0..1100.0).contains(&p), "pressure {p} unphysical");
        }
        assert_eq!(state.time_h, 24.0);
    }

    #[test]
    fn forecast_is_deterministic() {
        let model = WeatherModel::new(ModelConfig::default());
        let initial = model.initial_condition(1);
        let (a, _) = model.forecast(&initial, 12);
        let (b, _) = model.forecast(&initial, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_weather() {
        let model = WeatherModel::new(ModelConfig::default());
        let a = model.initial_condition(1);
        let b = model.initial_condition(2);
        assert!(a.temp.rmse(&b.temp) > 0.1);
    }

    #[test]
    fn perturbation_magnitude_controls_spread() {
        let model = WeatherModel::new(ModelConfig::default());
        let base = model.initial_condition(3);
        let small = model.perturb(&base, 0.1, 7);
        let large = model.perturb(&base, 2.0, 7);
        assert!(base.temp.rmse(&small.temp) < base.temp.rmse(&large.temp));
    }

    #[test]
    fn perturbed_members_remain_distinct() {
        // The toy dynamics are dissipative (perturbation energy decays,
        // unlike real NWP error growth — see DESIGN.md substitutions), but
        // members must stay distinguishable over a 48 h forecast.
        let model = WeatherModel::new(ModelConfig::default());
        let base = model.initial_condition(5);
        let member = model.perturb(&base, 0.5, 11);
        let d0 = base.temp.rmse(&member.temp);
        assert!(d0 > 0.1);
        let (base48, _) = model.forecast(&base, 48);
        let (member48, _) = model.forecast(&member, 48);
        let d48 = base48.temp.rmse(&member48.temp);
        assert!(
            d48 > 1e-3,
            "members must not collapse onto each other: {d48}"
        );
    }

    #[test]
    fn a_nan_pressure_steps_without_panicking() {
        // `State`'s fields are public; the tropopause median used to
        // `expect` every layer pressure to be comparable.
        let model = WeatherModel::new(ModelConfig::default());
        let mut state = model.initial_condition(42);
        state.pressure.set(3, 2, f64::NAN);
        model.step(&mut state);
        assert_eq!(state.time_h, 1.0);
    }

    #[test]
    fn grids_of_one_row_or_none_step() {
        // The kernel has at least two layers: a single row is repeated
        // into the second, and a grid without rows heats nothing.
        for (nx, ny) in [(1, 1), (4, 1), (1, 4), (4, 0), (0, 4)] {
            for radiation in [RadiationScheme::Ekl, RadiationScheme::Parameterized] {
                let model = WeatherModel::new(ModelConfig {
                    nx,
                    ny,
                    radiation,
                    ..ModelConfig::default()
                });
                let mut state = model.initial_condition(42);
                for _ in 0..3 {
                    model.step(&mut state);
                }
                assert_eq!(state.time_h, 3.0);
                assert_eq!(state.temp.data.len(), nx * ny);
                if nx * ny > 0 {
                    let t = state.temp.mean();
                    assert!((230.0..330.0).contains(&t), "{nx}x{ny}: temperature {t}");
                }
            }
        }
    }

    #[test]
    fn diffusion_smooths_extremes() {
        let model = WeatherModel::new(ModelConfig {
            radiative_amplitude: 0.0,
            ..ModelConfig::default()
        });
        let mut state = State::uniform(model.config.nx, model.config.ny);
        state.temp.set(5, 5, 320.0); // hot spot
        let before_max = state.temp.max();
        model.clone().step(&mut state);
        assert!(state.temp.max() < before_max);
    }
}
