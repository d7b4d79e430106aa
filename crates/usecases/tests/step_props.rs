//! `WeatherModel::step` against the step it replaced
//! (`tests/reference/`): from random states on grids of 2×2 to 40×30,
//! under both radiation schemes and physics-module-style configs, `k`
//! steps of each leave every field, the clock and the cycle count equal
//! bit for bit (`to_bits`, so a NaN must meet a NaN, not a number).
//!
//! Only a NaN's sign and payload go uncompared. Rust leaves them
//! unspecified when an operation meets two NaNs, and the optimizer may
//! swap the operands of a `+` or a `*`, so two compilations of one
//! expression may pass on either of two NaNs. A state that holds
//! `f64::NAN` (positive) next to `inf - inf` (negative on x86) reaches
//! such a sum within two steps.
//!
//! Some states blow hard enough that the departure point of the
//! advection lies more than one domain away, where the wrap takes
//! `rem_euclid`; some hold non-finite pressures.

mod reference;

use proptest::prelude::*;

use everest_usecases::weather::{Field, ModelConfig, RadiationScheme, State, WeatherModel};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// One drawn case: a config, a state on its grid, and a step count.
struct Case {
    config: ModelConfig,
    state: State,
    steps: usize,
}

fn field(rng: &mut Rng, nx: usize, ny: usize, lo: f64, hi: f64) -> Field {
    Field {
        nx,
        ny,
        data: (0..nx * ny).map(|_| rng.range(lo, hi)).collect(),
    }
}

fn draw(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let (nx, ny) = (2 + rng.below(39), 2 + rng.below(29));
    // `PhysicsModules` perturbs the amplitude and the diffusion per member.
    let member = rng.below(6);
    let config = ModelConfig {
        nx,
        ny,
        dt_h: rng.pick(&[1.0, 1.0, 0.5, 3.0]),
        diffusion: 0.06 + 0.01 * (member % 4) as f64,
        radiation: rng.pick(&[RadiationScheme::Ekl, RadiationScheme::Parameterized]),
        radiative_amplitude: 0.7 + 0.15 * member as f64,
    };
    // Winds in grid cells per step are `wind * 0.08 * dt`; a strong case
    // carries a departure point up to three domains away.
    let scale = 0.08 * config.dt_h;
    let wind = if rng.chance(25) {
        3.0 * nx.max(ny) as f64 / scale
    } else {
        20.0
    };
    let mut pressure = field(&mut rng, nx, ny, 960.0, 1040.0);
    if rng.chance(25) {
        for _ in 0..1 + rng.below(3) {
            let cell = rng.below(nx * ny);
            pressure.data[cell] = rng.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        }
    }
    let state = State {
        u: field(&mut rng, nx, ny, -wind, wind),
        v: field(&mut rng, nx, ny, -wind, wind),
        temp: field(&mut rng, nx, ny, 270.0, 310.0),
        pressure,
        humidity: field(&mut rng, nx, ny, 1.0, 12.0),
        time_h: rng.range(0.0, 48.0),
    };
    Case {
        config,
        state,
        steps: 1 + rng.below(4),
    }
}

/// Every value's bits, every NaN as one NaN.
fn bits(field: &Field) -> Vec<u64> {
    let bits = |v: &f64| if v.is_nan() { f64::NAN } else { *v }.to_bits();
    field.data.iter().map(bits).collect()
}

/// `Ok` when the two states are equal by bits, field by field.
fn same(state: &State, reference: &State) -> Result<(), String> {
    for (name, a, b) in [
        ("u", &state.u, &reference.u),
        ("v", &state.v, &reference.v),
        ("temp", &state.temp, &reference.temp),
        ("pressure", &state.pressure, &reference.pressure),
        ("humidity", &state.humidity, &reference.humidity),
    ] {
        if (a.nx, a.ny) != (b.nx, b.ny) || bits(a) != bits(b) {
            return Err(format!("{name}: {:?} vs reference {:?}", a.data, b.data));
        }
    }
    if state.time_h.to_bits() != reference.time_h.to_bits() {
        return Err(format!("time {} vs {}", state.time_h, reference.time_h));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn step_matches_the_field_at_reference(seed in any::<u64>()) {
        let Case { config, state, steps } = draw(seed);
        let model = WeatherModel::new(config);
        let reference = reference::model::WeatherModel { config };
        let (mut ours, mut theirs) = (state.clone(), state);
        for k in 0..steps {
            let cycles = model.step(&mut ours);
            let reference_cycles = reference.step(&mut theirs);
            prop_assert_eq!(cycles, reference_cycles, "seed {}: step {}", seed, k);
            if let Err(difference) = same(&ours, &theirs) {
                prop_assert!(false, "seed {}, {:?}, step {}: {}", seed, config, k, difference);
            }
        }
    }
}

/// The drawn cases reach what the property is for: both schemes, far
/// departure points, non-finite pressures and both ends of the grid
/// sizes.
#[test]
fn drawn_cases_cover_far_winds_and_non_finite_pressures() {
    let (mut ekl, mut far, mut non_finite, mut small, mut large) = (0, 0, 0, 0, 0);
    for seed in 0..400 {
        let Case { config, state, .. } = draw(seed);
        ekl += usize::from(config.radiation == RadiationScheme::Ekl);
        let scale = 0.08 * config.dt_h;
        let reach = |wind: &Field, extent: usize| {
            wind.data
                .iter()
                .any(|w| (w * scale).abs() > 2.0 * extent as f64)
        };
        far += usize::from(reach(&state.u, config.nx) || reach(&state.v, config.ny));
        non_finite += usize::from(state.pressure.data.iter().any(|p| !p.is_finite()));
        small += usize::from(config.nx * config.ny <= 40);
        large += usize::from(config.nx >= 30 && config.ny >= 22);
    }
    assert!(
        (120..=280).contains(&ekl),
        "{ekl} of 400 use the EKL scheme"
    );
    assert!(
        far >= 60,
        "only {far} of 400 blow past a neighbouring domain"
    );
    assert!(
        non_finite >= 60,
        "only {non_finite} of 400 hold a non-finite pressure"
    );
    assert!(
        small >= 5 && large >= 20,
        "{small} small / {large} large grids"
    );
}
