//! `query_scan` and `query_small`: the SQL front end used two opposite
//! ways. `query_scan` runs four analytic queries over generated tables
//! large enough that the executor is all that matters; `query_small`
//! runs a thousand templated queries over the tiny use-case catalogs
//! through every stage `run_query` has after the catalog, so the front
//! end, the lowering and per-operator synthesis dominate.

use everest_analysis::Analyzer;
use everest_hls::HlsOptions;
use everest_ir::registry::Context;
use everest_ir::verify::verify_module;
use everest_olympus::{KernelSpec, SystemConfig};
use everest_platform::device::FpgaDevice;
use everest_query::datasets::Dataset;
use everest_query::lower::{lower, LoweredQuery};
use everest_query::optimizer::Optimizer;
use everest_query::{Batch, Catalog, DataType, Field, LogicalPlan, Schema, Table, Value};
use everest_sdk::query_class;

use crate::gen::{Digest, Rng};
use crate::harness::{Oracle, Pass, Workload};
use crate::metrics::Layers;
use crate::stats::{self, close};
use crate::trace::Tracer;

fn digest_of(batch: &Batch) -> u64 {
    let mut d = Digest::default();
    for column in &batch.columns {
        d.str(column);
    }
    for row in &batch.rows {
        for value in row {
            match value {
                Value::Int(v) => d.u64(*v as u64),
                Value::Float(v) => d.f64(*v),
                Value::Str(v) => d.str(v),
                Value::Bool(v) => d.u64(u64::from(*v)),
            }
        }
    }
    d.0
}

/// Base-table rows under every `Scan` of a plan.
fn scanned_rows(plan: &LogicalPlan, catalog: &Catalog) -> u64 {
    match plan {
        LogicalPlan::Scan { table, .. } => catalog.get(table).map_or(0, |t| t.rows.len() as u64),
        other => other
            .children()
            .into_iter()
            .map(|child| scanned_rows(child, catalog))
            .sum(),
    }
}

fn plan_optimize_run(
    catalog: &Catalog,
    optimizer: &Optimizer,
    sql: &str,
) -> Result<(LogicalPlan, LogicalPlan, Batch), String> {
    let plan = everest_query::plan_sql(catalog, sql).map_err(|e| e.to_string())?;
    let optimized = optimizer.optimize(&plan);
    let batch = everest_query::run(catalog, &optimized).map_err(|e| e.to_string())?;
    Ok((plan, optimized, batch))
}

/// The front-end stages one at a time, a span around each. Returns what
/// `plan_optimize_run` returns.
fn traced_plan_optimize_run(
    catalog: &Catalog,
    make_optimizer: impl FnOnce() -> Optimizer,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(LogicalPlan, LogicalPlan, Batch, Optimizer), String> {
    let query = tracer
        .time("query.parser.parse", || everest_query::parser::parse(sql))
        .map_err(|e| e.to_string())?;
    let plan = tracer
        .time("query.planner.plan", || {
            everest_query::planner::plan_query(catalog, &query)
        })
        .map_err(|e| e.to_string())?;
    let (optimizer, optimized) = tracer.time("query.optimizer.optimize", || {
        let optimizer = make_optimizer();
        let optimized = optimizer.optimize(&plan);
        (optimizer, optimized)
    });
    let batch = tracer
        .time("query.exec.execute", || {
            everest_query::run(catalog, &optimized)
        })
        .map_err(|e| e.to_string())?;
    Ok((plan, optimized, batch, optimizer))
}

/// Tokenizing is inside `parser::parse`; its share is replayed.
fn replay_tokenize(sql: &str, tracer: &mut Tracer) {
    let _ = tracer.time("query.token.tokenize", || {
        everest_query::token::tokenize(sql)
    });
}

/// Span name → the per-layer metric its self time feeds. The first
/// group is the stages of an operation (they enter the closure figure);
/// the second is replays, measured beside the operation.
const STAGES: &[(&str, &str)] = &[
    ("query.parser.parse", "query.parser.parse_s"),
    ("query.planner.plan", "query.planner.plan_s"),
    ("query.optimizer.optimize", "query.optimizer.optimize_s"),
    ("query.exec.execute", "query.exec.execute_s"),
    ("query.lower.lower", "query.lower.lower_s"),
    ("ir.verify", "ir.verify_s"),
    ("analysis.run", "analysis.run_s"),
    ("olympus.generate", "olympus.generate_s"),
    ("query.class", "query.class_s"),
];
const REPLAYS: &[(&str, &str)] = &[
    ("query.token.tokenize", "query.token.tokenize_s"),
    ("query.exec.unoptimized", "query.exec.unoptimized_s"),
    ("hls.synthesize", "hls.synthesize_s"),
];

/// Feeds one traced pass's self times into the layers and returns the
/// seconds the operation's stages account for.
fn sample_stages(tracer: &Tracer, round: usize, layers: &mut Layers) -> f64 {
    let self_s = tracer.self_seconds(round);
    let mut staged = 0.0;
    for (span, metric) in STAGES {
        if let Some(seconds) = self_s.get(span) {
            layers.sample(metric, *seconds);
            staged += seconds;
        }
    }
    for (span, metric) in REPLAYS {
        if let Some(seconds) = self_s.get(span) {
            layers.sample(metric, *seconds);
        }
    }
    staged
}

// ---------------------------------------------------------------------
// query_scan
// ---------------------------------------------------------------------

const FACT_ROWS: usize = 400_000;
const DIM_ROWS: usize = 5_000;
const GROUPS: i64 = 16;
const REGIONS: i64 = 8;

/// What the generator worked out for itself, in plain loops over the
/// rows it made, before any query ran.
#[derive(Debug)]
enum Expected {
    /// Per group: `(group, count, sum)`, ascending by group.
    Groups(Vec<(i64, i64, f64)>),
    /// `(region, total)`, descending by total, top three.
    TopRegions(Vec<(i64, f64)>),
    /// Scores, descending, top ten.
    TopScores(Vec<f64>),
    /// A count.
    Count(i64),
}

impl Expected {
    fn matches(&self, batch: &Batch) -> bool {
        let number = |row: &[Value], i: usize| row.get(i).and_then(Value::as_f64);
        match self {
            Expected::Groups(groups) => {
                batch.rows.len() == groups.len()
                    && batch.rows.iter().zip(groups).all(|(row, (g, n, total))| {
                        number(row, 0) == Some(*g as f64)
                            && number(row, 1) == Some(*n as f64)
                            && number(row, 2).is_some_and(|got| close(got, *total))
                    })
            }
            Expected::TopRegions(regions) => {
                batch.rows.len() == regions.len()
                    && batch
                        .rows
                        .iter()
                        .zip(regions)
                        .all(|(row, (region, total))| {
                            number(row, 0) == Some(*region as f64)
                                && number(row, 1).is_some_and(|got| close(got, *total))
                        })
            }
            Expected::TopScores(scores) => {
                batch.rows.len() == scores.len()
                    && batch
                        .rows
                        .iter()
                        .zip(scores)
                        .all(|(row, score)| number(row, 1).is_some_and(|got| close(got, *score)))
            }
            Expected::Count(n) => {
                batch.rows.len() == 1 && number(&batch.rows[0], 0) == Some(*n as f64)
            }
        }
    }
}

struct ScanQuery {
    sql: String,
    expected: Expected,
    /// Result digest and scanned rows of the warm-up pass.
    warm: (u64, u64),
}

/// The `query_scan` workload.
pub struct QueryScan {
    catalog: Catalog,
    optimizer: Optimizer,
    queries: Vec<ScanQuery>,
    digest: Digest,
    rows_out: u64,
}

impl QueryScan {
    fn generate(seed: u64, quick: bool) -> (Catalog, Vec<(String, Expected)>, Digest) {
        let fact_rows = if quick { FACT_ROWS / 10 } else { FACT_ROWS };
        let dim_rows = if quick { DIM_ROWS / 10 } else { DIM_ROWS };
        let mut rng = Rng::new(seed, 0x7AB1E);
        let mut digest = Digest::default();

        // Narrow ranges: selectivity sets the size of every intermediate
        // batch, and the work per scanned row must not move with the seed.
        let threshold = (rng.range(0.38, 0.42) * 1000.0).round() / 1000.0;
        let count_threshold = (rng.range(0.48, 0.52) * 1000.0).round() / 1000.0;
        let group = rng.index(GROUPS as usize) as i64;

        let mut regions = Vec::with_capacity(dim_rows);
        let mut dims = Vec::with_capacity(dim_rows);
        for key in 0..dim_rows as i64 {
            let region = rng.index(REGIONS as usize) as i64;
            let weight = rng.range(0.5, 1.5);
            regions.push(region);
            digest.u64(region as u64);
            digest.f64(weight);
            dims.push(vec![
                Value::Int(key),
                Value::Int(region),
                Value::Float(weight),
            ]);
        }

        let mut groups = vec![(0i64, 0.0f64); GROUPS as usize];
        let mut region_totals = vec![0.0f64; REGIONS as usize];
        let mut scores = Vec::new();
        let mut counted = 0i64;
        let mut events = Vec::with_capacity(fact_rows);
        for id in 0..fact_rows as i64 {
            let key = rng.index(dim_rows) as i64;
            let grp = rng.index(GROUPS as usize) as i64;
            let value = rng.unit();
            let flag = i64::from(rng.unit() < 0.3);
            digest.u64(key as u64);
            digest.u64(grp as u64);
            digest.f64(value);
            digest.u64(flag as u64);
            if value > threshold {
                groups[grp as usize].0 += 1;
                groups[grp as usize].1 += value;
            }
            if flag == 1 {
                region_totals[regions[key as usize] as usize] += value;
            }
            if grp == group {
                scores.push(value * 2.0 + 1.0);
            }
            if value > count_threshold {
                counted += 1;
            }
            events.push(vec![
                Value::Int(id),
                Value::Int(key),
                Value::Int(grp),
                Value::Float(value),
                Value::Int(flag),
            ]);
        }
        scores.sort_by(|a, b| b.total_cmp(a));
        scores.truncate(10);
        let mut top_regions: Vec<(i64, f64)> = region_totals
            .iter()
            .enumerate()
            .map(|(region, total)| (region as i64, *total))
            .collect();
        top_regions.sort_by(|a, b| b.1.total_cmp(&a.1));
        top_regions.truncate(3);
        let expected_groups = groups
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| *n > 0)
            .map(|(g, (n, total))| (g as i64, *n, *total))
            .collect();

        let mut catalog = Catalog::new();
        let events_schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("key", DataType::Int),
            Field::new("grp", DataType::Int),
            Field::new("value", DataType::Float),
            Field::new("flag", DataType::Int),
        ]);
        let dims_schema = Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("region", DataType::Int),
            Field::new("weight", DataType::Float),
        ]);
        catalog.register(
            "events",
            Table::new(events_schema, events).expect("rows match the schema"),
        );
        catalog.register(
            "dims",
            Table::new(dims_schema, dims).expect("rows match the schema"),
        );

        let queries = vec![
            (
                format!(
                    "SELECT grp, count(*) AS n, sum(value) AS total FROM events \
                     WHERE value > {threshold} GROUP BY grp ORDER BY grp"
                ),
                Expected::Groups(expected_groups),
            ),
            (
                "SELECT d.region, sum(e.value) AS total FROM events e JOIN dims d ON e.key = d.key \
                 WHERE e.flag = 1 GROUP BY d.region ORDER BY total DESC LIMIT 3"
                    .to_string(),
                Expected::TopRegions(top_regions),
            ),
            (
                format!(
                    "SELECT id, value * 2 + 1 AS score FROM events WHERE grp = {group} \
                     ORDER BY score DESC LIMIT 10"
                ),
                Expected::TopScores(scores),
            ),
            (
                format!("SELECT count(*) FROM events WHERE 1 + 1 = 2 AND value > {count_threshold}"),
                Expected::Count(counted),
            ),
        ];
        for (sql, _) in &queries {
            digest.str(sql);
        }
        (catalog, queries, digest)
    }
}

impl Workload for QueryScan {
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> QueryScan {
        let (catalog, queries, digest) = steps.time(|| QueryScan::generate(seed, quick));
        let optimizer = Optimizer::for_catalog(&catalog);
        let queries = queries
            .into_iter()
            .map(|(sql, expected)| {
                let warm = match steps.time(|| plan_optimize_run(&catalog, &optimizer, &sql)) {
                    Ok((_, optimized, batch)) => {
                        (digest_of(&batch), scanned_rows(&optimized, &catalog))
                    }
                    Err(_) => (0, 0),
                };
                ScanQuery {
                    sql,
                    expected,
                    warm,
                }
            })
            .collect();
        QueryScan {
            catalog,
            optimizer,
            queries,
            digest,
            rows_out: 0,
        }
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn verify(&mut self) -> Oracle {
        let mut oracle = Oracle::default();
        for q in &self.queries {
            let run = plan_optimize_run(&self.catalog, &self.optimizer, &q.sql);
            oracle.check(run.is_ok(), || {
                format!("{}: {:?}", q.sql, run.as_ref().err())
            });
            let Ok((plan, _, batch)) = run else {
                continue;
            };
            // Optimized rows == unoptimized rows == what the generator
            // computed for itself.
            let unoptimized = everest_query::run(&self.catalog, &plan);
            oracle.check(
                matches!(&unoptimized, Ok(plain) if digest_of(plain) == digest_of(&batch)),
                || format!("{}: optimized and unoptimized rows differ", q.sql),
            );
            oracle.check(q.expected.matches(&batch), || {
                format!("{}: rows differ from the generator's own aggregates", q.sql)
            });
            oracle.check(digest_of(&batch) == q.warm.0, || {
                format!("{}: rows differ from the warm-up pass", q.sql)
            });
        }
        oracle
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for q in &self.queries {
            let run = pass.time(|| plan_optimize_run(&self.catalog, &self.optimizer, &q.sql));
            let same = matches!(&run, Ok((_, _, batch)) if digest_of(batch) == q.warm.0);
            pass.failed += u64::from(!same);
            pass.work += q.warm.1;
        }
        pass
    }

    fn traced_pass(
        &mut self,
        round: usize,
        plain: &Pass,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass {
        let mut pass = Pass::default();
        let mut rows_out = 0;
        for (op, q) in self.queries.iter().enumerate() {
            tracer.at(round, op);
            let run = pass.time(|| {
                traced_plan_optimize_run(&self.catalog, || self.optimizer.clone(), &q.sql, tracer)
            });
            let same = matches!(&run, Ok((_, _, batch, _)) if digest_of(batch) == q.warm.0);
            pass.failed += u64::from(!same);
            pass.work += q.warm.1;
            replay_tokenize(&q.sql, tracer);
            if let Ok((plan, _, batch, _)) = run {
                rows_out += batch.rows.len() as u64;
                drop(batch);
                let _ = tracer.time("query.exec.unoptimized", || {
                    everest_query::run(&self.catalog, &plan)
                });
            }
        }
        self.rows_out = rows_out;
        let staged = sample_stages(tracer, round, layers);
        layers.sample(
            "query.unattributed_share",
            stats::unattributed_share(staged, plain.seconds()),
        );
        pass
    }

    fn finish(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        let scanned: u64 = self.queries.iter().map(|q| q.warm.1).sum();
        layers.set("query.exec.rows_scanned", scanned as f64);
        layers.set("query.exec.rows_out", self.rows_out as f64);
        if scanned > 0 {
            layers.set(
                "query.exec.ns_per_row",
                layers.value("query.exec.execute_s") * 1e9 / scanned as f64,
            );
        }
        let changed = self
            .queries
            .iter()
            .filter_map(|q| everest_query::plan_sql(&self.catalog, &q.sql).ok())
            .filter(|plan| self.optimizer.optimize(plan) != *plan)
            .count();
        layers.set(
            "query.optimizer.plans_changed_share",
            changed as f64 / self.queries.len() as f64,
        );
    }
}

// ---------------------------------------------------------------------
// query_small
// ---------------------------------------------------------------------

const QUERIES_PER_PASS: usize = 1_000;

/// A query template over one of the use-case catalogs. `count_where`
/// is set for the templates whose answer the generator can work out in
/// a plain loop over the table's rows.
struct SmallQuery {
    dataset: usize,
    sql: String,
    count_where: Option<CountWhere>,
    /// Result digest and total scheduled cycles of the warm-up pass.
    warm: (u64, u64),
}

/// `SELECT count(*) FROM table WHERE predicate`, with the predicate as
/// a closure over named columns.
struct CountWhere {
    table: &'static str,
    columns: [&'static str; 2],
    keep: Box<dyn Fn(f64, f64) -> bool>,
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

const TEMPLATES: usize = 12;

/// The use-case catalogs, in the order `SmallQuery::dataset` indexes.
const DATASETS: [Dataset; 3] = [Dataset::Energy, Dataset::AirQuality, Dataset::Traffic];

/// One query from template `which`, its constants drawn from `rng`.
fn template(which: usize, rng: &mut Rng) -> SmallQuery {
    let (energy, air, traffic) = (0, 1, 2);
    let (a, b) = (round3(rng.unit()), round3(rng.unit()));
    let n = 3 + rng.index(8);
    let (dataset, sql, count_where) = match which % TEMPLATES {
        0 => {
            let (wind, avail) = (round3(8.0 + 6.0 * a), round3(0.5 + 0.45 * b));
            (
                energy,
                format!("SELECT count(*), avg(power_mw) FROM wind_power WHERE wind_ms > {wind} AND availability > {avail}"),
                Some(CountWhere {
                    table: "wind_power",
                    columns: ["wind_ms", "availability"],
                    keep: Box::new(move |w, v| w > wind && v > avail),
                }),
            )
        }
        1 => (
            energy,
            format!("SELECT hour, power_mw FROM wind_power WHERE power_mw > {} ORDER BY power_mw DESC LIMIT {n}", round3(10.0 + 40.0 * a)),
            None,
        ),
        2 => (
            energy,
            format!("SELECT max(power_mw), min(wind_ms) FROM wind_power WHERE hour >= {}", (300.0 * a) as i64),
            None,
        ),
        3 => (
            energy,
            format!("SELECT power_mw * {} + 1 AS scaled FROM wind_power WHERE availability > {} LIMIT {n}", round3(0.5 + a), round3(0.5 + 0.4 * b)),
            None,
        ),
        4 => (
            air,
            format!("SELECT day, max(prob), avg(peak) FROM air_quality WHERE prob >= {} AND true GROUP BY day ORDER BY day", round3(0.3 * a)),
            None,
        ),
        5 => (
            air,
            format!("SELECT receptor, avg(peak) AS mean_peak FROM air_quality WHERE peak > {} GROUP BY receptor ORDER BY mean_peak DESC", round3(1.0 + 60.0 * a)),
            None,
        ),
        6 => {
            let factor = round3(0.2 + 1.3 * a);
            (
                air,
                format!("SELECT count(*) FROM air_quality WHERE peak > capacity_limit * {factor}"),
                Some(CountWhere {
                    table: "air_quality",
                    columns: ["peak", "capacity_limit"],
                    keep: Box::new(move |peak, limit| peak > limit * factor),
                }),
            )
        }
        7 => (
            air,
            format!("SELECT day, receptor, prob FROM air_quality WHERE east_m > {} AND 1 + 1 = 2 ORDER BY prob DESC LIMIT {n}", round3(500.0 + 2500.0 * a)),
            None,
        ),
        8 => (
            traffic,
            format!("SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t JOIN segments s ON t.seg_id = s.seg_id WHERE s.length_m > {} GROUP BY t.traj_id ORDER BY dist DESC LIMIT {n}", round3(100.0 + 250.0 * a)),
            None,
        ),
        9 => {
            let (length, speed) = (round3(100.0 + 350.0 * a), round3(20.0 + 40.0 * b));
            (
                traffic,
                format!("SELECT count(*) FROM segments WHERE length_m > {length} AND speed_kmh < {speed}"),
                Some(CountWhere {
                    table: "segments",
                    columns: ["length_m", "speed_kmh"],
                    keep: Box::new(move |l, s| l > length && s < speed),
                }),
            )
        }
        10 => (
            traffic,
            format!("SELECT from_node, count(*) AS n, avg(speed_kmh) FROM segments GROUP BY from_node ORDER BY n DESC LIMIT {n}"),
            None,
        ),
        _ => (
            traffic,
            format!("SELECT seg_id, length_m / speed_kmh AS cost FROM segments WHERE speed_kmh > {} ORDER BY cost LIMIT {n}", round3(15.0 + 20.0 * a)),
            None,
        ),
    };
    SmallQuery {
        dataset,
        sql,
        count_where,
        warm: (0, 0),
    }
}

/// What one query's flow produced.
struct SmallOut {
    batch: Batch,
    lowered: LoweredQuery,
    findings: usize,
}

/// Every stage `run_query` has after it built the catalog, in its order.
fn small_flow(catalog: &Catalog, sql: &str) -> Result<SmallOut, String> {
    let plan = everest_query::plan_sql(catalog, sql).map_err(|e| e.to_string())?;
    let optimizer = Optimizer::for_catalog(catalog);
    let optimized = optimizer.optimize(&plan);
    let batch = everest_query::run(catalog, &optimized).map_err(|e| e.to_string())?;
    let lowered =
        lower(&optimized, &optimizer, &HlsOptions::default()).map_err(|e| e.to_string())?;
    let context = Context::with_all_dialects();
    verify_module(&context, &lowered.module).map_err(|e| e.to_string())?;
    let analysis = Analyzer::with_default_lints().run(&context, &lowered.module);
    let dominant = lowered
        .dominant_kernel()
        .ok_or("query lowered to no kernels")?;
    let spec = KernelSpec::from_report(dominant.hls.clone(), 0.6);
    everest_olympus::generate(spec, &FpgaDevice::alveo_u55c(), SystemConfig::default())
        .map_err(|e| e.to_string())?;
    std::hint::black_box(query_class(&lowered));
    Ok(SmallOut {
        batch,
        findings: analysis.diagnostics.len(),
        lowered,
    })
}

fn traced_small_flow(
    catalog: &Catalog,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(SmallOut, LogicalPlan), String> {
    let (plan, optimized, batch, optimizer) =
        traced_plan_optimize_run(catalog, || Optimizer::for_catalog(catalog), sql, tracer)?;
    let lowered = tracer
        .time("query.lower.lower", || {
            lower(&optimized, &optimizer, &HlsOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let context = tracer
        .time("ir.verify", || {
            let context = Context::with_all_dialects();
            verify_module(&context, &lowered.module).map(|()| context)
        })
        .map_err(|e| e.to_string())?;
    let analysis = tracer.time("analysis.run", || {
        Analyzer::with_default_lints().run(&context, &lowered.module)
    });
    tracer
        .time("olympus.generate", || {
            let dominant = lowered
                .dominant_kernel()
                .ok_or("query lowered to no kernels")?;
            let spec = KernelSpec::from_report(dominant.hls.clone(), 0.6);
            everest_olympus::generate(spec, &FpgaDevice::alveo_u55c(), SystemConfig::default())
                .map_err(|e| e.to_string())
        })
        .map_err(|e: String| e)?;
    tracer.time("query.class", || {
        std::hint::black_box(query_class(&lowered));
    });
    let out = SmallOut {
        batch,
        findings: analysis.diagnostics.len(),
        lowered,
    };
    Ok((out, plan))
}

/// The `query_small` workload.
pub struct QuerySmall {
    catalogs: Vec<Catalog>,
    queries: Vec<SmallQuery>,
    seed: u64,
    digest: Digest,
    catalog_s: f64,
}

impl QuerySmall {
    fn signature(out: &SmallOut) -> (u64, u64) {
        (digest_of(&out.batch), out.lowered.total_cycles())
    }
}

impl Workload for QuerySmall {
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> QuerySmall {
        let catalogs: Vec<Catalog> = DATASETS
            .iter()
            .map(|d| {
                steps
                    .time(|| d.catalog(seed))
                    .expect("use-case catalogs build for any seed")
            })
            .collect();
        let catalog_s = steps.seconds();

        let mut rng = Rng::new(seed, 0x5A11);
        let count = if quick {
            QUERIES_PER_PASS / 10
        } else {
            QUERIES_PER_PASS
        };
        let mut digest = Digest::default();
        // Every template gets the same share of the mix whatever the
        // seed, so the latency percentiles do not sit on the luck of the
        // draw; the seed sets the constants and the order.
        let mut queries: Vec<SmallQuery> = (0..count).map(|i| template(i, &mut rng)).collect();
        rng.shuffle(&mut queries);
        for q in &mut queries {
            digest.str(&q.sql);
            if let Ok(out) = steps.time(|| small_flow(&catalogs[q.dataset], &q.sql)) {
                q.warm = QuerySmall::signature(&out);
            }
        }
        QuerySmall {
            catalogs,
            queries,
            seed,
            digest,
            catalog_s,
        }
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn verify(&mut self) -> Oracle {
        let mut oracle = Oracle::default();
        for q in &self.queries {
            let catalog = &self.catalogs[q.dataset];
            let out = small_flow(catalog, &q.sql);
            oracle.check(
                matches!(&out, Ok(out) if QuerySmall::signature(out) == q.warm),
                || {
                    format!(
                        "{}: differs from the warm-up pass ({:?})",
                        q.sql,
                        out.as_ref().err()
                    )
                },
            );
            let Ok(out) = out else { continue };
            let unoptimized = everest_query::plan_sql(catalog, &q.sql)
                .and_then(|plan| everest_query::run(catalog, &plan));
            oracle.check(
                matches!(&unoptimized, Ok(batch) if digest_of(batch) == digest_of(&out.batch)),
                || format!("{}: optimized and unoptimized rows differ", q.sql),
            );
            if let Some(count) = &q.count_where {
                let table = catalog.get(count.table).expect("template names a table");
                let [x, y] = count
                    .columns
                    .map(|c| table.schema.index_of(c).expect("template names a column"));
                let expected = table
                    .rows
                    .iter()
                    .filter(|row| match (row[x].as_f64(), row[y].as_f64()) {
                        (Some(a), Some(b)) => (count.keep)(a, b),
                        _ => false,
                    })
                    .count();
                let got = out.batch.rows.first().and_then(|row| row[0].as_f64());
                oracle.check(got == Some(expected as f64), || {
                    format!("{}: count {got:?}, plain loop says {expected}", q.sql)
                });
            }
        }
        // The stage chain is `run_query` minus the catalog: same rows,
        // same kernels, same cycles through the one public call. One
        // query per dataset; each call rebuilds its catalog.
        for (index, dataset) in DATASETS.iter().enumerate() {
            let Some(q) = self.queries.iter().find(|q| q.dataset == index) else {
                continue;
            };
            let report = everest_sdk::run_query(&everest_sdk::QueryOptions {
                seed: self.seed,
                dataset: dataset.name().to_string(),
                sql: q.sql.clone(),
                optimize: true,
            });
            oracle.check(
                matches!(&report, Ok(r) if (digest_of(&r.batch), r.lowered.total_cycles()) == q.warm),
                || format!("{}: run_query disagrees with its own stages", q.sql),
            );
        }
        oracle
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for q in &self.queries {
            let out = pass.time(|| small_flow(&self.catalogs[q.dataset], &q.sql));
            let same = matches!(&out, Ok(out) if QuerySmall::signature(out) == q.warm);
            pass.failed += u64::from(!same);
            pass.work += 1;
        }
        pass
    }

    fn traced_pass(
        &mut self,
        round: usize,
        plain: &Pass,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass {
        let mut pass = Pass::default();
        for (op, q) in self.queries.iter().enumerate() {
            let catalog = &self.catalogs[q.dataset];
            tracer.at(round, op);
            let out = pass.time(|| traced_small_flow(catalog, &q.sql, tracer));
            let same = matches!(&out, Ok((out, _)) if QuerySmall::signature(out) == q.warm);
            pass.failed += u64::from(!same);
            pass.work += 1;
            replay_tokenize(&q.sql, tracer);
            if let Ok((out, plan)) = out {
                let _ = tracer.time("query.exec.unoptimized", || {
                    everest_query::run(catalog, &plan)
                });
                // `lower` synthesizes each operator kernel inside one
                // public call; its HLS share is replayed from the
                // kernels it returned.
                for kernel in &out.lowered.kernels {
                    let _ = tracer.time("hls.synthesize", || {
                        everest_hls::synthesize(&kernel.module, &kernel.name, HlsOptions::default())
                    });
                }
            }
        }
        let staged = sample_stages(tracer, round, layers);
        layers.sample(
            "query.unattributed_share",
            stats::unattributed_share(staged, plain.seconds()),
        );
        pass
    }

    fn finish(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        layers.set("query.datasets.catalog_s", self.catalog_s);
        let mut kernels = 0usize;
        let mut cycles = 0u64;
        let mut unoptimized_cycles = 0u64;
        let mut findings = 0usize;
        let mut rows_scanned = 0u64;
        let mut rows_out = 0u64;
        let mut changed = 0usize;
        let mut ops = 0usize;
        for q in &self.queries {
            let catalog = &self.catalogs[q.dataset];
            let optimizer = Optimizer::for_catalog(catalog);
            let Ok(plan) = everest_query::plan_sql(catalog, &q.sql) else {
                continue;
            };
            let optimized = optimizer.optimize(&plan);
            changed += usize::from(optimized != plan);
            rows_scanned += scanned_rows(&optimized, catalog);
            if let Ok(out) = small_flow(catalog, &q.sql) {
                kernels += out.lowered.kernels.len();
                cycles += out.lowered.total_cycles();
                findings += out.findings;
                rows_out += out.batch.rows.len() as u64;
                ops += out
                    .lowered
                    .kernels
                    .iter()
                    .map(|k| k.module.num_ops())
                    .sum::<usize>();
            }
            if let Ok(lowered) = lower(&plan, &optimizer, &HlsOptions::default()) {
                unoptimized_cycles += lowered.total_cycles();
            }
        }
        layers.set("query.lower.kernels", kernels as f64);
        layers.set("query.lower.cycles", cycles as f64);
        layers.set("hls.cycles", cycles as f64);
        layers.set("virtual.cycles", cycles as f64);
        if cycles > 0 {
            layers.set(
                "query.lower.plan_speedup",
                unoptimized_cycles as f64 / cycles as f64,
            );
        }
        layers.set("analysis.findings", findings as f64);
        layers.set("query.exec.rows_scanned", rows_scanned as f64);
        layers.set("query.exec.rows_out", rows_out as f64);
        if rows_scanned > 0 {
            layers.set(
                "query.exec.ns_per_row",
                layers.value("query.exec.execute_s") * 1e9 / rows_scanned as f64,
            );
        }
        if ops > 0 {
            layers.set(
                "hls.ns_per_op",
                layers.value("hls.synthesize_s") * 1e9 / ops as f64,
            );
        }
        layers.set(
            "query.optimizer.plans_changed_share",
            changed as f64 / self.queries.len() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_tables_are_a_function_of_the_seed() {
        let digest = |seed| QueryScan::generate(seed, true).2;
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }

    #[test]
    fn query_mix_is_a_function_of_the_seed() {
        let mix = |seed| {
            let mut rng = Rng::new(seed, 0x5A11);
            (0..24)
                .map(|i| template(i, &mut rng).sql)
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(42), mix(42));
        assert_ne!(mix(42), mix(7));
    }

    #[test]
    fn quick_scan_passes_its_oracles() {
        let mut w = QueryScan::setup(42, true, &mut Pass::default());
        let oracle = w.verify();
        assert!(oracle.failures.is_empty(), "{:?}", oracle.failures);
        assert_eq!(w.pass().failed, 0);
    }

    #[test]
    fn quick_small_passes_its_oracles() {
        let mut w = QuerySmall::setup(42, true, &mut Pass::default());
        let oracle = w.verify();
        assert!(oracle.failures.is_empty(), "{:?}", oracle.failures);
        assert_eq!(w.pass().failed, 0);
    }
}
