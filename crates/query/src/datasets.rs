//! Seeded catalogs over the EVEREST use-case datasets.
//!
//! Three scenario catalogs turn the existing use-case generators into
//! relational tables so analytic SQL runs over the same data the
//! hand-built kernels process:
//!
//! * `traffic` — `segments` (road-network geometry and speeds) and
//!   `traj_segments` (trajectory → segment visits), joinable on
//!   `seg_id`;
//! * `airquality` — `air_quality` per-receptor exceedance forecasts
//!   over several seeded days;
//! * `energy` — `wind_power` hourly farm history with features.
//!
//! Everything is a pure function of the seed, so query results, plan
//! text, and EXPLAIN JSON replay byte-identically (the `query-gate`
//! CI job diffs two same-seed runs).

use everest_usecases::airquality::{forecast_site, Receptor, Stack};
use everest_usecases::energy::{generate_history, WindFarm};
use everest_usecases::traffic::{generate_trajectories, FcdConfig, RoadNetwork};
use everest_usecases::weather::EnsembleStrategy;

use crate::error::QueryResult;
use crate::table::{Catalog, DataType, Field, Schema, Table, Value};

/// Dataset families a query can run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Traffic trajectories over a grid road network.
    Traffic,
    /// Air-quality ensemble exceedance forecasts.
    AirQuality,
    /// Renewable (wind-farm) power history.
    Energy,
}

impl Dataset {
    /// Parses a dataset name (`traffic`, `airquality`, `energy`).
    pub fn from_name(name: &str) -> Option<Dataset> {
        Some(match name.to_ascii_lowercase().as_str() {
            "traffic" => Dataset::Traffic,
            "airquality" | "air-quality" | "air_quality" => Dataset::AirQuality,
            "energy" | "renewable" => Dataset::Energy,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Traffic => "traffic",
            Dataset::AirQuality => "airquality",
            Dataset::Energy => "energy",
        }
    }

    /// All datasets, in canonical order.
    pub const ALL: [Dataset; 3] = [Dataset::Traffic, Dataset::AirQuality, Dataset::Energy];

    /// Builds the seeded catalog for this dataset.
    pub fn catalog(&self, seed: u64) -> QueryResult<Catalog> {
        match self {
            Dataset::Traffic => traffic_catalog(seed),
            Dataset::AirQuality => airquality_catalog(seed),
            Dataset::Energy => energy_catalog(seed),
        }
    }
}

/// Traffic: `segments(seg_id, from_node, to_node, length_m, speed_kmh)`
/// and `traj_segments(traj_id, seq, seg_id)` from seeded floating-car
/// trajectories on a grid network.
pub(crate) fn traffic_catalog(seed: u64) -> QueryResult<Catalog> {
    let net = RoadNetwork::grid(8, 8, 400.0);
    let segments_schema = Schema::new(vec![
        Field::new("seg_id", DataType::Int),
        Field::new("from_node", DataType::Int),
        Field::new("to_node", DataType::Int),
        Field::new("length_m", DataType::Float),
        Field::new("speed_kmh", DataType::Float),
    ]);
    let segment_rows = net
        .segments
        .iter()
        .map(|s| {
            vec![
                Value::Int(s.id as i64),
                Value::Int(s.from as i64),
                Value::Int(s.to as i64),
                Value::Float(s.length_m),
                Value::Float(s.speed_at(8.0)),
            ]
        })
        .collect();
    let trajectories = generate_trajectories(&net, FcdConfig::default(), 40, seed);
    let traj_schema = Schema::new(vec![
        Field::new("traj_id", DataType::Int),
        Field::new("seq", DataType::Int),
        Field::new("seg_id", DataType::Int),
    ]);
    let traj_rows = trajectories
        .iter()
        .enumerate()
        .flat_map(|(traj, t)| {
            t.true_segments.iter().enumerate().map(move |(seq, &seg)| {
                vec![
                    Value::Int(traj as i64),
                    Value::Int(seq as i64),
                    Value::Int(seg as i64),
                ]
            })
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("segments", Table::new(segments_schema, segment_rows)?);
    catalog.register("traj_segments", Table::new(traj_schema, traj_rows)?);
    Ok(catalog)
}

/// Air quality: `air_quality(day, receptor, east_m, north_m, prob,
/// peak, capacity_limit)` — per-receptor ensemble exceedance forecasts
/// over several seeded planning days.
pub(crate) fn airquality_catalog(seed: u64) -> QueryResult<Catalog> {
    let stack = Stack {
        height_m: 120.0,
        rate_gs: 900.0,
    };
    let receptors = [
        Receptor {
            east_m: 1_200.0,
            north_m: 300.0,
            limit: 40.0,
        },
        Receptor {
            east_m: 2_500.0,
            north_m: -600.0,
            limit: 40.0,
        },
        Receptor {
            east_m: 4_000.0,
            north_m: 900.0,
            limit: 50.0,
        },
        Receptor {
            east_m: 800.0,
            north_m: -1_500.0,
            limit: 35.0,
        },
    ];
    let schema = Schema::new(vec![
        Field::new("day", DataType::Int),
        Field::new("receptor", DataType::Int),
        Field::new("east_m", DataType::Float),
        Field::new("north_m", DataType::Float),
        Field::new("prob", DataType::Float),
        Field::new("peak", DataType::Float),
        Field::new("capacity_limit", DataType::Float),
    ]);
    let mut rows = Vec::new();
    for day in 0..6u64 {
        let (forecasts, _decision) = forecast_site(
            &stack,
            &receptors,
            EnsembleStrategy::FieldPerturbations,
            6,
            12,
            0.3,
            seed.wrapping_add(day),
        );
        for (idx, (receptor, forecast)) in receptors.iter().zip(&forecasts).enumerate() {
            rows.push(vec![
                Value::Int(day as i64),
                Value::Int(idx as i64),
                Value::Float(receptor.east_m),
                Value::Float(receptor.north_m),
                Value::Float(forecast.exceedance_probability),
                Value::Float(forecast.mean_peak),
                Value::Float(receptor.limit),
            ]);
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("air_quality", Table::new(schema, rows)?);
    Ok(catalog)
}

/// Energy: `wind_power(hour, power_mw, wind_ms, availability)` —
/// hourly wind-farm history from the seeded truth run.
pub(crate) fn energy_catalog(seed: u64) -> QueryResult<Catalog> {
    let farm = WindFarm::default();
    let history = generate_history(&farm, 14, seed);
    let schema = Schema::new(vec![
        Field::new("hour", DataType::Int),
        Field::new("power_mw", DataType::Float),
        Field::new("wind_ms", DataType::Float),
        Field::new("availability", DataType::Float),
    ]);
    let rows = history
        .iter()
        .map(|s| {
            vec![
                Value::Int(s.hour as i64),
                Value::Float(s.power_mw),
                Value::Float(s.features.first().copied().unwrap_or(0.0)),
                Value::Float(s.features.get(4).copied().unwrap_or(1.0)),
            ]
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("wind_power", Table::new(schema, rows)?);
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse;
    use crate::planner::plan_query;

    #[test]
    fn traffic_tables_join_on_seg_id() {
        let catalog = traffic_catalog(42).expect("catalog");
        let q = parse(
            "SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t \
             JOIN segments s ON t.seg_id = s.seg_id GROUP BY t.traj_id ORDER BY dist DESC LIMIT 5",
        )
        .expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let batch = execute(&plan, &catalog).expect("executes");
        assert_eq!(batch.rows.len(), 5);
    }

    #[test]
    fn datasets_are_seed_deterministic() {
        for dataset in Dataset::ALL {
            let a = dataset.catalog(7).expect("catalog");
            let b = dataset.catalog(7).expect("catalog");
            for name in a.table_names() {
                assert_eq!(a.get(&name), b.get(&name), "{}.{name}", dataset.name());
            }
            assert!(!a.table_names().is_empty());
        }
    }

    #[test]
    fn airquality_rows_cover_days_and_receptors() {
        let catalog = airquality_catalog(3).expect("catalog");
        let table = catalog.get("air_quality").expect("table");
        assert_eq!(table.rows.len(), 6 * 4);
    }

    #[test]
    fn energy_history_is_hourly() {
        let catalog = energy_catalog(3).expect("catalog");
        let table = catalog.get("wind_power").expect("table");
        assert_eq!(table.rows.len(), 14 * 24);
    }

    #[test]
    fn dataset_names_round_trip() {
        for dataset in Dataset::ALL {
            assert_eq!(Dataset::from_name(dataset.name()), Some(dataset));
        }
        assert_eq!(Dataset::from_name("nope"), None);
    }
}
