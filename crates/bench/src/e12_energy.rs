//! E12 [§II-B, §VIII energy] — Renewable-energy prediction: Kernel Ridge
//! backtesting, market error (MAE) vs WRF runs per day — the capability
//! claim of the accelerated-WRF prototype.

use crate::{rule, Report};
use everest_usecases::energy::{backtest, generate_history, sweep_runs_per_day, WindFarm};

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E12",
        "II-B / VIII energy",
        "wind-power forecast error vs WRF runs per day",
    );
    let farm = WindFarm::default();
    let history = generate_history(&farm, 45, 42);
    let capacity = farm.rated_mw * farm.turbines as f64;
    r.pin(format!(
        "farm: {} x {:.0} MW, capacity {:.0} MW; 45-day synthetic year, train 30 days\n",
        farm.turbines, farm.rated_mw, capacity
    ));
    r.pin(format!(
        "{:>13} {:>11} {:>12} {:>14}",
        "WRF runs/day", "MAE (MW)", "% capacity", "vs 1 run/day"
    ));
    r.pin(rule(54));
    let results = sweep_runs_per_day(&farm, &history, 30, &[1, 2, 4, 8, 24]);
    let base = results[0].mae_mw;
    for result in &results {
        r.pin(format!(
            "{:>13} {:>11.3} {:>11.1}% {:>13.1}%",
            result.runs_per_day,
            result.mae_mw,
            100.0 * result.mae_mw / capacity,
            100.0 * (1.0 - result.mae_mw / base)
        ));
    }
    assert!(
        results.last().expect("non-empty").mae_mw < base,
        "the paper's more-runs-help claim must hold"
    );
    r.pin("\n(accelerated WRF makes the higher refresh rates affordable:");
    r.pin(" 'increasing the number of WRF runs ... is a crucial advantage')");
}

pub(crate) fn timings(r: &mut Report) {
    let farm = WindFarm::default();
    let history = generate_history(&farm, 20, 7);
    r.time("e12_energy/kernel_ridge_backtest", || {
        backtest(&farm, &history, 14, 24)
    });
}
