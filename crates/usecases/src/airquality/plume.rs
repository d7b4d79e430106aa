//! Gaussian plume dispersion — the ADMS-role model (paper §II-C): maps
//! stack emissions plus weather to ground-level concentrations around an
//! industrial site.

/// Pasquill–Gifford atmospheric stability classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stability {
    /// Very unstable (strong daytime convection).
    A,
    /// Unstable.
    B,
    /// Slightly unstable.
    C,
    /// Neutral.
    D,
    /// Stable (night, light wind).
    E,
    /// Very stable.
    F,
}

impl Stability {
    /// Classifies from wind speed and hour of day (simplified
    /// Pasquill scheme: daytime convection vs nocturnal stability).
    pub(crate) fn classify(wind_ms: f64, hour: f64) -> Stability {
        let daytime = (7.0..19.0).contains(&(hour.rem_euclid(24.0)));
        if daytime {
            if wind_ms < 2.0 {
                Stability::A
            } else if wind_ms < 4.0 {
                Stability::B
            } else if wind_ms < 6.0 {
                Stability::C
            } else {
                Stability::D
            }
        } else if wind_ms < 2.5 {
            Stability::F
        } else if wind_ms < 5.0 {
            Stability::E
        } else {
            Stability::D
        }
    }

    /// Dispersion coefficients `(a_y, b_y, a_z, b_z)` such that
    /// `sigma = a * x^b` with x in meters (Briggs rural fits).
    fn coefficients(self) -> (f64, f64, f64, f64) {
        match self {
            Stability::A => (0.22, 0.90, 0.20, 0.94),
            Stability::B => (0.16, 0.90, 0.12, 0.92),
            Stability::C => (0.11, 0.90, 0.08, 0.90),
            Stability::D => (0.08, 0.90, 0.06, 0.86),
            Stability::E => (0.06, 0.90, 0.03, 0.82),
            Stability::F => (0.04, 0.90, 0.016, 0.78),
        }
    }
}

/// An emission source (stack).
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    /// Effective release height in meters (stack + plume rise).
    pub height_m: f64,
    /// Emission rate in g/s.
    pub rate_gs: f64,
}

/// Ground-level concentration (µg/m³) at a receptor.
///
/// `downwind_m` is the along-wind distance, `crosswind_m` the lateral
/// offset; `wind_ms` the transport wind (floored at 0.5 m/s calm limit).
pub(crate) fn concentration(
    stack: &Stack,
    downwind_m: f64,
    crosswind_m: f64,
    wind_ms: f64,
    stability: Stability,
) -> f64 {
    if downwind_m <= 1.0 {
        return 0.0;
    }
    let u = wind_ms.max(0.5);
    let (ay, by, az, bz) = stability.coefficients();
    let sigma_y = (ay * downwind_m.powf(by)).max(1e-3);
    let sigma_z = (az * downwind_m.powf(bz)).max(1e-3);
    let q = stack.rate_gs * 1e6; // µg/s
    let lateral = (-(crosswind_m * crosswind_m) / (2.0 * sigma_y * sigma_y)).exp();
    let vertical = (-(stack.height_m * stack.height_m) / (2.0 * sigma_z * sigma_z)).exp();
    // ground-level, full reflection
    q / (std::f64::consts::PI * u * sigma_y * sigma_z) * lateral * vertical
}

/// Receptor concentration given the wind vector and receptor offset
/// from the stack (meters east/north).
pub(crate) fn concentration_at(
    stack: &Stack,
    receptor_east_m: f64,
    receptor_north_m: f64,
    wind_u: f64,
    wind_v: f64,
    hour: f64,
) -> f64 {
    let speed = (wind_u * wind_u + wind_v * wind_v).sqrt();
    let stability = Stability::classify(speed, hour);
    // Project the receptor onto the wind-aligned frame.
    let u = speed.max(1e-6);
    let along = (receptor_east_m * wind_u + receptor_north_m * wind_v) / u;
    let cross = (-receptor_east_m * wind_v + receptor_north_m * wind_u) / u;
    concentration(stack, along, cross, speed, stability)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> Stack {
        Stack {
            height_m: 50.0,
            rate_gs: 100.0,
        }
    }

    #[test]
    fn concentration_is_zero_upwind() {
        let c = concentration_at(&stack(), -1000.0, 0.0, 5.0, 0.0, 12.0);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn peak_lies_downwind_then_decays() {
        let s = stack();
        let near = concentration(&s, 100.0, 0.0, 5.0, Stability::D);
        let peak = concentration(&s, 800.0, 0.0, 5.0, Stability::D);
        let far = concentration(&s, 20_000.0, 0.0, 5.0, Stability::D);
        // elevated release: maximum is away from the stack
        assert!(peak > near, "peak {peak} vs near {near}");
        assert!(peak > far, "peak {peak} vs far {far}");
    }

    #[test]
    fn crosswind_offset_reduces_concentration() {
        let s = stack();
        let axis = concentration(&s, 1000.0, 0.0, 5.0, Stability::D);
        let off = concentration(&s, 1000.0, 200.0, 5.0, Stability::D);
        assert!(off < axis);
    }

    #[test]
    fn stronger_wind_dilutes() {
        let s = stack();
        let light = concentration(&s, 2000.0, 0.0, 2.0, Stability::D);
        let strong = concentration(&s, 2000.0, 0.0, 10.0, Stability::D);
        assert!(strong < light);
    }

    #[test]
    fn stable_nights_trap_plumes_aloft() {
        let s = stack();
        // at moderate distance a stable atmosphere keeps the elevated
        // plume from mixing down
        let unstable = concentration(&s, 500.0, 0.0, 3.0, Stability::B);
        let stable = concentration(&s, 500.0, 0.0, 3.0, Stability::F);
        assert!(stable < unstable);
    }

    #[test]
    fn emission_rate_scales_linearly() {
        let s1 = Stack {
            rate_gs: 50.0,
            ..stack()
        };
        let s2 = Stack {
            rate_gs: 100.0,
            ..stack()
        };
        let c1 = concentration(&s1, 1000.0, 0.0, 5.0, Stability::D);
        let c2 = concentration(&s2, 1000.0, 0.0, 5.0, Stability::D);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn classification_follows_pasquill_logic() {
        assert_eq!(Stability::classify(1.0, 12.0), Stability::A);
        assert_eq!(Stability::classify(8.0, 12.0), Stability::D);
        assert_eq!(Stability::classify(1.0, 2.0), Stability::F);
        assert_eq!(Stability::classify(8.0, 2.0), Stability::D);
    }

    #[test]
    fn wind_rotation_moves_the_plume() {
        let s = stack();
        // easterly transport hits a receptor to the east
        let east = concentration_at(&s, 1000.0, 0.0, 5.0, 0.0, 12.0);
        // with northerly transport the same receptor is crosswind
        let north = concentration_at(&s, 1000.0, 0.0, 0.0, 5.0, 12.0);
        assert!(east > north * 10.0);
    }
}
