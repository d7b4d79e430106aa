//! Radiative transfer: the RRTMG-role kernel coupled into the model.
//!
//! The paper accelerates WRF's RRTMG radiation module (~30% of compute,
//! §V-A.1). Here the same role is played by the EKL major-absorber
//! kernel from `everest-ekl`: each model row is a layer whose gas optics
//! are interpolated from pressure and humidity, and the resulting
//! optical depths drive a diurnal heating profile. A cheap parameterized
//! scheme serves as the CPU fallback variant the autotuner can select.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use everest_ekl::interp::{Plan, Tensor};
use everest_ekl::rrtmg::{major_absorber_program, synthetic_inputs, RrtmgDims, RrtmgInputs};

use super::grid::Field;

/// Which radiation implementation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadiationScheme {
    /// Gas optics through the EKL major-absorber kernel (the
    /// FPGA-accelerable path).
    Ekl,
    /// Cheap parameterized diurnal cycle (CPU fallback).
    Parameterized,
}

/// Computes the heating-rate field (K/h) and the equivalent accelerator
/// work in cycles.
pub fn heating_rates(
    pressure: &Field,
    humidity: &Field,
    time_h: f64,
    scheme: RadiationScheme,
) -> (Field, u64) {
    match scheme {
        RadiationScheme::Ekl => ekl_heating(pressure, humidity, time_h),
        RadiationScheme::Parameterized => (parameterized(pressure, time_h), 0),
    }
}

fn diurnal(time_h: f64) -> f64 {
    // Peak heating at 14:00 local, cooling at night.
    let phase = (time_h.rem_euclid(24.0) - 14.0) / 24.0 * std::f64::consts::TAU;
    0.6 * phase.cos()
}

fn parameterized(pressure: &Field, time_h: f64) -> Field {
    let mut out = Field::constant(pressure.nx, pressure.ny, 0.0);
    let cycle = diurnal(time_h);
    for j in 0..pressure.ny {
        for i in 0..pressure.nx {
            let p = pressure.at(i as isize, j as isize);
            // Higher pressure (lower altitude) absorbs more.
            out.set(i, j, cycle * (p / 1013.0));
        }
    }
    out
}

/// Gas-optics dims used for the coupled kernel: one layer per grid row.
fn dims_for(ny: usize) -> RrtmgDims {
    RrtmgDims {
        nlay: ny.max(2),
        ngpt: 4,
        ntemp: 6,
        npres: 12,
        neta: 5,
        nflav: 2,
    }
}

thread_local! {
    /// The bound kernel and its base tables per layer count — parsing,
    /// validating and binding the EKL template once per grid size, like
    /// a compiled bitstream would be reused across invocations.
    static KERNEL_CACHE: RefCell<HashMap<usize, Rc<(Plan, RrtmgInputs)>>> =
        RefCell::new(HashMap::new());
}

fn ekl_heating(pressure: &Field, humidity: &Field, time_h: f64) -> (Field, u64) {
    let dims = dims_for(pressure.ny);
    let kernel = KERNEL_CACHE.with(|cache| {
        Rc::clone(cache.borrow_mut().entry(dims.nlay).or_insert_with(|| {
            let plan = Plan::bind(&major_absorber_program(dims)).expect("rrtmg kernel binds");
            Rc::new((plan, synthetic_inputs(dims)))
        }))
    });
    let (plan, base) = &*kernel;

    // Couple the model state into the kernel inputs: per-row (layer) mean
    // pressure drives `press`; humidity scales the mixing ratios.
    let mut press = Vec::with_capacity(dims.nlay);
    let mut qmean = Vec::with_capacity(dims.nlay);
    for j in 0..pressure.ny {
        let mut psum = 0.0;
        let mut qsum = 0.0;
        for i in 0..pressure.nx {
            psum += pressure.at(i as isize, j as isize);
            qsum += humidity.at(i as isize, j as isize);
        }
        press.push(psum / pressure.nx as f64);
        qmean.push(qsum / pressure.nx as f64);
    }
    let press = Tensor::from_data(&[dims.nlay as u64], press);
    let mut r_mix = base.r_mix.clone();
    for (k, r) in r_mix.data.iter_mut().enumerate() {
        let layer = (k / 2) % dims.nlay;
        *r *= (qmean[layer] / 7.0).clamp(0.2, 3.0);
    }
    // tropopause threshold for the select(): median pressure
    let mut sorted = press.data.clone();
    sorted.sort_by(f64::total_cmp);
    let press_trop = Tensor::from_data(&[], vec![sorted[sorted.len() / 2]]);

    // The kernel's inputs in the order `major_absorber_source` declares
    // them; the six tables the state does not touch are the cached ones.
    let outputs = plan
        .run(&[
            &press,
            &press_trop,
            &base.bnd_to_flav,
            &base.j_temp,
            &base.j_press,
            &base.j_eta,
            &r_mix,
            &base.f_major,
            &base.k_major,
        ])
        .expect("rrtmg kernel evaluates");
    let tau = &outputs[plan.position("tau_abs").expect("kernel defines tau_abs")]; // [ngpt, nlay]

    // Column absorption per layer: mean over g-points, normalized.
    let mut absorb = vec![0.0; dims.nlay];
    for g in 0..dims.ngpt {
        for (x, a) in absorb.iter_mut().enumerate() {
            *a += tau.data[g * dims.nlay + x] / dims.ngpt as f64;
        }
    }
    let max_a = absorb.iter().copied().fold(1e-12, f64::max);

    let cycle = diurnal(time_h);
    let mut out = Field::constant(pressure.nx, pressure.ny, 0.0);
    for j in 0..pressure.ny {
        let a = absorb[j.min(dims.nlay - 1)] / max_a;
        for i in 0..pressure.nx {
            out.set(i, j, cycle * (0.5 + 0.5 * a));
        }
    }
    // Equivalent accelerator work: the kernel's flop count (3 muls × the
    // summed tensor volume), at one MAC per cycle per unit.
    let cycles = (dims.ngpt * dims.nlay * 8 * 3) as u64;
    (out, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> (Field, Field) {
        let mut p = Field::constant(8, 6, 1000.0);
        let mut q = Field::constant(8, 6, 7.0);
        for j in 0..6 {
            for i in 0..8 {
                p.set(i, j, 1000.0 - 120.0 * j as f64);
                q.set(i, j, 7.0 - j as f64);
            }
        }
        (p, q)
    }

    #[test]
    fn ekl_scheme_reports_cycles_and_bounded_heating() {
        let (p, q) = fields();
        let (h, cycles) = heating_rates(&p, &q, 14.0, RadiationScheme::Ekl);
        assert!(cycles > 0);
        for &v in &h.data {
            assert!(v.abs() <= 1.0, "heating {v} out of range");
        }
        // at peak time, heating should be positive somewhere
        assert!(h.max() > 0.0);
    }

    #[test]
    fn parameterized_scheme_is_free_of_kernel_work() {
        let (p, q) = fields();
        let (_, cycles) = heating_rates(&p, &q, 14.0, RadiationScheme::Parameterized);
        assert_eq!(cycles, 0);
    }

    #[test]
    fn diurnal_cycle_flips_sign_at_night() {
        let (p, q) = fields();
        let (day, _) = heating_rates(&p, &q, 14.0, RadiationScheme::Ekl);
        let (night, _) = heating_rates(&p, &q, 2.0, RadiationScheme::Ekl);
        assert!(day.mean() > 0.0);
        assert!(night.mean() < 0.0);
    }

    #[test]
    fn schemes_agree_on_sign_and_magnitude_order() {
        let (p, q) = fields();
        let (a, _) = heating_rates(&p, &q, 14.0, RadiationScheme::Ekl);
        let (b, _) = heating_rates(&p, &q, 14.0, RadiationScheme::Parameterized);
        assert_eq!(a.mean() > 0.0, b.mean() > 0.0);
        assert!((a.mean() - b.mean()).abs() < 1.0);
    }

    #[test]
    fn humidity_modulates_heating_profile() {
        let (p, q) = fields();
        let dry = Field::constant(p.nx, p.ny, 1.0);
        let (wet_h, _) = heating_rates(&p, &q, 14.0, RadiationScheme::Ekl);
        let (dry_h, _) = heating_rates(&p, &dry, 14.0, RadiationScheme::Ekl);
        assert!(wet_h.data != dry_h.data, "humidity must matter");
    }
}
