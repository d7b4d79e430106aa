//! Radiation as a share of a weather step, the paper's own figure for
//! RRTMG in WRF (§V-A.1), read off this repository's stand-in.
//!
//! Times a 48-step forecast from the seed-42 initial condition under
//! the EKL gas-optics scheme and under the parameterized one, fastest
//! of five rounds each, and prints one JSON line.
//! `ci/radiation_share_gate.sh` holds the ratio of the two; both are
//! timings of one process on one host, so the ratio travels where the
//! absolute times would not.
//!
//! A slower dynamics lowers that ratio, so the line also carries one
//! the radiation does not touch: the parameterized step against a plain
//! 5-point sweep of one field of the same grid, written out below.

use std::hint::black_box;
use std::time::Instant;

use everest_usecases::weather::{ModelConfig, RadiationScheme, WeatherModel};

const STEPS: usize = 48;

/// Seconds for a `STEPS`-step forecast under the EKL scheme.
fn ekl_forecast_s() -> f64 {
    let model = WeatherModel::new(ModelConfig::default());
    let initial = model.initial_condition(42);
    let start = Instant::now();
    black_box(model.forecast(black_box(&initial), STEPS));
    start.elapsed().as_secs_f64()
}

/// One Jacobi sweep of the 5-point Laplacian over the interior of a
/// row-major `nx` × `ny` field: no wrap, no other field.
fn sweep(old: &[f64], new: &mut [f64], nx: usize, ny: usize) {
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let c = old[j * nx + i];
            let lap = old[j * nx + i + 1]
                + old[j * nx + i - 1]
                + old[(j + 1) * nx + i]
                + old[(j - 1) * nx + i]
                - 4.0 * c;
            new[j * nx + i] = c + 0.08 * lap;
        }
    }
}

/// Sweeps timed after each step: about as long as the step takes.
const SWEEPS_PER_STEP: usize = 40;

/// Seconds for a `STEPS`-step forecast under the parameterized scheme,
/// and for `SWEEPS_PER_STEP` sweeps of the seed-42 temperature field
/// timed after each step, so that both see the host alike.
fn parameterized_and_sweeps_s() -> (f64, f64) {
    let model = WeatherModel::new(ModelConfig {
        radiation: RadiationScheme::Parameterized,
        ..ModelConfig::default()
    });
    let (nx, ny) = (model.config.nx, model.config.ny);
    let mut state = model.initial_condition(42);
    let mut field = state.temp.data.clone();
    let mut next = field.clone();
    let (mut stepping, mut sweeping) = (0.0, 0.0);
    for _ in 0..STEPS {
        let start = Instant::now();
        black_box(model.step(black_box(&mut state)));
        let stepped = Instant::now();
        for _ in 0..SWEEPS_PER_STEP {
            sweep(black_box(&field), black_box(&mut next), nx, ny);
            std::mem::swap(&mut field, &mut next);
        }
        stepping += (stepped - start).as_secs_f64();
        sweeping += stepped.elapsed().as_secs_f64();
    }
    (stepping, sweeping)
}

fn main() {
    // Five rounds, fastest of each: a host that changes speed part-way
    // through slows all three alike.
    let (mut ekl, mut parameterized, mut sweeps) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        ekl = ekl.min(ekl_forecast_s());
        let (stepping, sweeping) = parameterized_and_sweeps_s();
        parameterized = parameterized.min(stepping);
        sweeps = sweeps.min(sweeping);
    }
    let us_per_step = |seconds: f64| seconds / STEPS as f64 * 1e6;
    let sweep_us = us_per_step(sweeps) / SWEEPS_PER_STEP as f64;
    println!(
        "{{\"steps\": {STEPS}, \"ekl_us_per_step\": {:.2}, \"parameterized_us_per_step\": {:.2}, \"ratio\": {:.3}, \"sweep_us\": {:.3}, \"sweeps_per_parameterized_step\": {:.2}}}",
        us_per_step(ekl),
        us_per_step(parameterized),
        ekl / parameterized,
        sweep_us,
        us_per_step(parameterized) / sweep_us
    );
}
