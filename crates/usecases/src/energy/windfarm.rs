//! The wind farm and its data pipeline (paper §II-B): a turbine power
//! curve, availability, hub-height wind extrapolation from the weather
//! model, and generation of the historical dataset the predictor is
//! trained on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::weather::{ModelConfig, State, WeatherModel};

/// Farm parameters.
#[derive(Debug, Clone, Copy)]
pub struct WindFarm {
    /// Grid location of the farm.
    pub i: usize,
    /// Grid row of the farm.
    pub j: usize,
    /// Number of turbines.
    pub turbines: u32,
    /// Rated power per turbine in MW.
    pub rated_mw: f64,
    /// Hub height in meters (the paper customizes WRF output "to get
    /// closer to the wind turbine height").
    pub hub_height_m: f64,
    /// Cut-in wind speed (m/s).
    pub cut_in: f64,
    /// Rated wind speed (m/s).
    pub rated_speed: f64,
    /// Cut-out wind speed (m/s).
    pub cut_out: f64,
}

impl Default for WindFarm {
    fn default() -> Self {
        WindFarm {
            i: 6,
            j: 8,
            turbines: 20,
            rated_mw: 3.0,
            hub_height_m: 100.0,
            cut_in: 3.0,
            rated_speed: 12.0,
            cut_out: 25.0,
        }
    }
}

impl WindFarm {
    /// Extrapolates 10 m model wind to hub height with a log profile.
    pub(crate) fn hub_wind(&self, wind_10m: f64) -> f64 {
        let z0 = 0.05; // roughness length (open terrain)
        wind_10m * ((self.hub_height_m / z0).ln() / (10.0 / z0).ln())
    }

    /// Power curve of one turbine (MW) at hub-height wind speed.
    pub(crate) fn turbine_power(&self, wind: f64) -> f64 {
        if wind < self.cut_in || wind >= self.cut_out {
            0.0
        } else if wind >= self.rated_speed {
            self.rated_mw
        } else {
            // cubic ramp between cut-in and rated
            let x = (wind - self.cut_in) / (self.rated_speed - self.cut_in);
            self.rated_mw * x.powi(3).min(1.0)
        }
    }

    /// Farm output (MW) given hub wind and turbine availability in
    /// \[0, 1\].
    pub(crate) fn farm_power(&self, hub_wind: f64, availability: f64) -> f64 {
        self.turbine_power(hub_wind) * self.turbines as f64 * availability.clamp(0.0, 1.0)
    }
}

/// One historical sample: the *true* atmospheric features and the
/// realized power. Forecast features are derived from these by adding
/// lead-time-dependent error in the backtest (see `energy::backtest`).
#[derive(Debug, Clone)]
pub struct PowerSample {
    /// Hour index since dataset start.
    pub hour: usize,
    /// Feature vector: true hub wind, direction (sin, cos),
    /// temperature anomaly, availability.
    pub features: Vec<f64>,
    /// Realized farm power (MW).
    pub power_mw: f64,
}

/// Generates `days` of hourly history from a "truth" weather run: the
/// realized power plus the true feature values a perfect forecast would
/// deliver.
pub fn generate_history(farm: &WindFarm, days: usize, seed: u64) -> Vec<PowerSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = WeatherModel::new(ModelConfig::default());
    let mut truth = model.initial_condition(seed);
    let mut samples = Vec::with_capacity(days * 24);
    for hour in 0..days * 24 {
        model.step(&mut truth);
        let availability = if rng.random_range(0.0..1.0) < 0.03 {
            rng.random_range(0.6..0.9) // partial outage
        } else {
            1.0
        };
        samples.push(sample_at(farm, &truth, hour, availability));
    }
    samples
}

fn sample_at(farm: &WindFarm, truth: &State, hour: usize, availability: f64) -> PowerSample {
    let wind_t = truth.wind_speed(farm.i, farm.j);
    let dir_t = truth.wind_direction_deg(farm.i, farm.j).to_radians();
    let temp_t = truth.temp.at(farm.i as isize, farm.j as isize);
    let hub_t = farm.hub_wind(wind_t);
    let power = farm.farm_power(hub_t, availability);
    PowerSample {
        hour,
        features: vec![
            hub_t,
            dir_t.sin(),
            dir_t.cos(),
            temp_t - 288.0,
            availability,
        ],
        power_mw: power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_curve_shape() {
        let farm = WindFarm::default();
        assert_eq!(farm.turbine_power(2.0), 0.0, "below cut-in");
        assert_eq!(farm.turbine_power(30.0), 0.0, "above cut-out");
        assert_eq!(farm.turbine_power(15.0), farm.rated_mw, "rated region");
        let half = farm.turbine_power(7.5);
        assert!(half > 0.0 && half < farm.rated_mw);
        // monotone below rated
        assert!(farm.turbine_power(6.0) < farm.turbine_power(9.0));
    }

    #[test]
    fn hub_wind_exceeds_surface_wind() {
        let farm = WindFarm::default();
        assert!(farm.hub_wind(8.0) > 8.0);
        // taller hub -> more wind
        let tall = WindFarm {
            hub_height_m: 150.0,
            ..WindFarm::default()
        };
        assert!(tall.hub_wind(8.0) > farm.hub_wind(8.0));
    }

    #[test]
    fn availability_scales_output() {
        let farm = WindFarm::default();
        let full = farm.farm_power(10.0, 1.0);
        let half = farm.farm_power(10.0, 0.5);
        assert!((half - full / 2.0).abs() < 1e-9);
    }

    #[test]
    fn history_is_plausible_and_deterministic() {
        let farm = WindFarm::default();
        let a = generate_history(&farm, 5, 42);
        let b = generate_history(&farm, 5, 42);
        assert_eq!(a.len(), 120);
        assert_eq!(a[17].power_mw, b[17].power_mw);
        let max_power = farm.rated_mw * farm.turbines as f64;
        for s in &a {
            assert!(s.power_mw >= 0.0 && s.power_mw <= max_power);
            assert_eq!(s.features.len(), 5);
        }
        // power must vary (wind is dynamic)
        let first = a[0].power_mw;
        assert!(a.iter().any(|s| (s.power_mw - first).abs() > 1e-6));
    }

    #[test]
    fn features_correlate_with_power() {
        // forecast hub wind (feature 0) should correlate positively with
        // realized power overall.
        let farm = WindFarm::default();
        let history = generate_history(&farm, 10, 7);
        let n = history.len() as f64;
        let mean_w: f64 = history.iter().map(|s| s.features[0]).sum::<f64>() / n;
        let mean_p: f64 = history.iter().map(|s| s.power_mw).sum::<f64>() / n;
        let cov: f64 = history
            .iter()
            .map(|s| (s.features[0] - mean_w) * (s.power_mw - mean_p))
            .sum::<f64>();
        assert!(cov > 0.0, "wind and power must co-vary");
    }
}
