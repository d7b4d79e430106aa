//! The radiation coupling `WeatherModel::step` called before direct
//! field indexing, kept verbatim for `reference/model.rs`: the row
//! means read through `Field::at`, and a grid of fewer than two rows
//! panics, as it did. `RadiationScheme` is the crate's own.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use everest_ekl::interp::{Plan, Tensor};
use everest_ekl::rrtmg::{major_absorber_program, synthetic_inputs, RrtmgDims, RrtmgInputs};

use everest_usecases::weather::{Field, RadiationScheme};

/// Computes the heating-rate field (K/h) and the equivalent accelerator
/// work in cycles.
pub(crate) fn heating_rates(
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
