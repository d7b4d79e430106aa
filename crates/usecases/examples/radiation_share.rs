//! Radiation as a share of a weather step, the paper's own figure for
//! RRTMG in WRF (§V-A.1), read off this repository's stand-in.
//!
//! Times a 48-step forecast from the seed-42 initial condition under
//! the EKL gas-optics scheme and under the parameterized one, fastest
//! of five each, and prints one JSON line. `ci/radiation_share_gate.sh`
//! holds the ratio of the two; both are timings of one process on one
//! host, so the ratio travels where the absolute times would not.

use std::time::Instant;

use everest_usecases::weather::{ModelConfig, RadiationScheme, WeatherModel};

const STEPS: usize = 48;

fn fastest_forecast_s(radiation: RadiationScheme) -> f64 {
    let model = WeatherModel::new(ModelConfig {
        radiation,
        ..ModelConfig::default()
    });
    let initial = model.initial_condition(42);
    (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(model.forecast(std::hint::black_box(&initial), STEPS));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let ekl = fastest_forecast_s(RadiationScheme::Ekl);
    let parameterized = fastest_forecast_s(RadiationScheme::Parameterized);
    let us_per_step = |seconds: f64| seconds / STEPS as f64 * 1e6;
    println!(
        "{{\"steps\": {STEPS}, \"ekl_us_per_step\": {:.2}, \"parameterized_us_per_step\": {:.2}, \"ratio\": {:.3}}}",
        us_per_step(ekl),
        us_per_step(parameterized),
        ekl / parameterized
    );
}
