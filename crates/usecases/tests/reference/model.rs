//! The `WeatherModel::step` that direct field indexing replaced, kept
//! verbatim as the reference `step_props.rs` holds the crate's step to:
//! every neighbour read goes through `Field::at`'s wrap, the two
//! advected fields each find their departure corners, and heating and
//! pressure walk the grid by `(i, j)`. `ModelConfig`, `State` and
//! `Field` are the crate's own.

use everest_usecases::weather::{Field, ModelConfig, State};

use super::radiation;

/// The model: holds configuration and steps states forward.
#[derive(Debug, Clone)]
pub(crate) struct WeatherModel {
    /// Configuration.
    pub config: ModelConfig,
}

impl WeatherModel {
    /// Advances the state one time step; returns the radiation cycle
    /// count (the FPGA-offloadable work, used by the offload experiments).
    pub(crate) fn step(&self, state: &mut State) -> u64 {
        let (nx, ny) = (self.config.nx, self.config.ny);
        let dt = self.config.dt_h;
        // Advection: upstream semi-Lagrangian on temperature/humidity,
        // with winds in grid cells per hour (scaled).
        let scale = 0.08 * dt;
        // The winds are only read here, so they need no copy.
        let mut old_t = state.temp.clone();
        let old_q = state.humidity.clone();
        for j in 0..ny {
            for i in 0..nx {
                let u = state.u.at(i as isize, j as isize) * scale;
                let v = state.v.at(i as isize, j as isize) * scale;
                let src_i = i as f64 - u;
                let src_j = j as f64 - v;
                state.temp.set(i, j, bilinear(&old_t, src_i, src_j));
                state.humidity.set(i, j, bilinear(&old_q, src_i, src_j));
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
            let old = &mut old_t;
            (old.nx, old.ny) = (field.nx, field.ny);
            old.data.clone_from(&field.data);
            for j in 0..ny {
                for i in 0..nx {
                    let lap = old.at(i as isize + 1, j as isize)
                        + old.at(i as isize - 1, j as isize)
                        + old.at(i as isize, j as isize + 1)
                        + old.at(i as isize, j as isize - 1)
                        - 4.0 * old.at(i as isize, j as isize);
                    *field.at_mut(i, j) =
                        old.at(i as isize, j as isize) + self.config.diffusion * dt * lap;
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
        for j in 0..ny {
            for i in 0..nx {
                let h = heating.at(i as isize, j as isize);
                *state.temp.at_mut(i, j) += self.config.radiative_amplitude * h * dt;
            }
        }
        // Pressure relaxes toward a temperature-consistent value.
        for j in 0..ny {
            for i in 0..nx {
                let t = state.temp.at(i as isize, j as isize);
                let target = 1013.0 - 0.6 * (t - 288.0);
                let p = state.pressure.at(i as isize, j as isize);
                *state.pressure.at_mut(i, j) = p + 0.3 * dt * (target - p);
            }
        }
        state.time_h += dt;
        cycles
    }
}

fn bilinear(field: &Field, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let (i, j) = (x0 as isize, y0 as isize);
    field.at(i, j) * (1.0 - fx) * (1.0 - fy)
        + field.at(i + 1, j) * fx * (1.0 - fy)
        + field.at(i, j + 1) * (1.0 - fx) * fy
        + field.at(i + 1, j + 1) * fx * fy
}
