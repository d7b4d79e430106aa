//! E13 [§II-C, §VIII air] — Air-quality ensembles: decision skill vs
//! ensemble size across the paper's three ensemble strategies, and the
//! time-to-forecast budget with and without FPGA offload of the
//! radiation kernel.

use crate::{rule, Report};
use everest_platform::device::FpgaDevice;
use everest_usecases::airquality::{evaluate_policy, forecast_site, Receptor, Stack};
use everest_usecases::weather::{run_ensemble, EnsembleStrategy};

/// Worst-receptor exceedance probability for an `members`-member
/// ensemble (members are a prefix of the reference ensemble, so the
/// estimates converge with size).
fn worst_probability(stack: &Stack, receptors: &[Receptor], members: usize, seed: u64) -> f64 {
    let (forecasts, _) = forecast_site(
        stack,
        receptors,
        EnsembleStrategy::GlobalForecasts,
        members,
        24,
        0.4,
        seed,
    );
    forecasts
        .iter()
        .map(|f| f.exceedance_probability)
        .fold(0.0, f64::max)
}

fn site() -> (Stack, Vec<Receptor>) {
    (
        Stack {
            height_m: 45.0,
            rate_gs: 260.0,
        },
        vec![
            Receptor {
                east_m: 1400.0,
                north_m: 100.0,
                limit: 40.0,
            },
            Receptor {
                east_m: -800.0,
                north_m: 700.0,
                limit: 40.0,
            },
        ],
    )
}

pub(crate) fn series(r: &mut Report) {
    r.banner(
        "E13",
        "II-C / VIII air",
        "ensemble air-quality decision skill",
    );
    let (stack, receptors) = site();
    // Ensemble size vs estimate quality: probability error against a
    // 64-member reference, averaged over 8 independent days; plus the
    // fraction of days where the small ensemble makes the same
    // reduce/operate decision as the reference.
    r.pin("exceedance-probability convergence (reference: 64 members):\n");
    r.pin(format!(
        "{:>9} {:>14} {:>18}",
        "members", "mean |dP|", "decision agreement"
    ));
    r.pin(rule(44));
    let days: Vec<u64> = (0..8).map(|d| 3000 + d * 977).collect();
    let reference: Vec<f64> = days
        .iter()
        .map(|&d| worst_probability(&stack, &receptors, 64, d))
        .collect();
    for members in [2usize, 4, 8, 16, 32] {
        let mut err = 0.0;
        let mut agree = 0usize;
        for (k, &d) in days.iter().enumerate() {
            let p = worst_probability(&stack, &receptors, members, d);
            err += (p - reference[k]).abs();
            if (p >= 0.4) == (reference[k] >= 0.4) {
                agree += 1;
            }
        }
        r.pin(format!(
            "{:>9} {:>14.3} {:>17.0}%",
            members,
            err / days.len() as f64,
            100.0 * agree as f64 / days.len() as f64
        ));
    }

    r.pin("\ndecision policy vs perfect knowledge (8 members, 12 days):");
    let (hit, fa, cost) = evaluate_policy(&stack, &receptors, 8, 12, 0.4, 5.0, 77);
    r.pin(format!(
        "  hit rate {:.0}%, false alarms {:.0}%, total cost {:.1}",
        hit * 100.0,
        fa * 100.0,
        cost
    ));

    r.pin("\nensemble strategies (8 members, 24 h):");
    for (label, strategy) in [
        ("global forecasts", EnsembleStrategy::GlobalForecasts),
        ("physics modules", EnsembleStrategy::PhysicsModules),
        ("field perturbations", EnsembleStrategy::FieldPerturbations),
    ] {
        let (forecasts, decision) = forecast_site(&stack, &receptors, strategy, 8, 24, 0.4, 2024);
        let worst = forecasts
            .iter()
            .map(|f| f.exceedance_probability)
            .fold(0.0, f64::max);
        r.pin(format!(
            "  {:<20} worst P(exceed) {:>5.1}%  decision: {:?}",
            label,
            worst * 100.0,
            decision
        ));
    }

    // Time-to-forecast: the morning planning deadline (§II-C).
    r.pin("\ntime-to-forecast (16 members x 48 h, radiation share 30%):");
    let (_, cycles) = run_ensemble(EnsembleStrategy::FieldPerturbations, 2, 6, 1);
    let cycles_per_member_hour = cycles as f64 / 12.0;
    let total_radiation_cycles = cycles_per_member_hour * 16.0 * 48.0;
    // CPU: radiation at 50 Mcycle-equivalents/s; FPGA at 300 MHz pipelined.
    let radiation_cpu_s = total_radiation_cycles / 50e6 * 3600.0; // scaled WRF-like cost
    let device = FpgaDevice::alveo_u55c();
    let radiation_fpga_s = total_radiation_cycles / (device.kernel_clock_mhz * 1e6) * 1500.0;
    let rest_s = radiation_cpu_s * 7.0 / 3.0; // the other 70% of WRF
    r.pin(format!(
        "  CPU only:       {:>7.1} min (radiation {:>6.1} min + rest {:>6.1} min)",
        (radiation_cpu_s + rest_s) / 60.0,
        radiation_cpu_s / 60.0,
        rest_s / 60.0
    ));
    r.pin(format!(
        "  FPGA offload:   {:>7.1} min (radiation {:>6.2} min + rest {:>6.1} min)",
        (radiation_fpga_s + rest_s) / 60.0,
        radiation_fpga_s / 60.0,
        rest_s / 60.0
    ));
    r.pin(format!(
        "  speedup on offloaded fraction: {:.0}x; end-to-end: {:.2}x (Amdahl)",
        radiation_cpu_s / radiation_fpga_s,
        (radiation_cpu_s + rest_s) / (radiation_fpga_s + rest_s)
    ));
}

pub(crate) fn timings(r: &mut Report) {
    let (stack, receptors) = site();
    r.time("e13_airquality/ensemble8_forecast_12h", || {
        forecast_site(
            &stack,
            &receptors,
            EnsembleStrategy::FieldPerturbations,
            8,
            12,
            0.4,
            2024,
        )
    });
}
