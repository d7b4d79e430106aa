//! Lowering: logical plan → `dfg` dataflow graph + HLS-scheduled
//! per-operator kernels.
//!
//! Every plan operator becomes a `dfg.node` whose `callee` names a
//! generated EKL kernel shaped like the operator's inner loop (scan
//! copy, filter select, projection arithmetic, aggregation reduction,
//! join probe, sort compare-exchange), sized by the optimizer's
//! cardinality estimate (clamped so synthesis stays fast). Each
//! kernel flows through the existing compiler path — EKL parse →
//! check → loop lowering → HLS synthesis — and the graph module
//! verifies against the `dfg` dialect, so a query drops into the same
//! verify → analysis lints → scheduling → Olympus pipeline as every
//! hand-written kernel in the SDK.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

use everest_hls::{synthesize, HlsOptions, HlsReport, NumericFormat};
use everest_ir::dialects::dataflow::{build_channel, build_graph};
use everest_ir::module::Module;
use everest_ir::types::Type;
use everest_ir::Symbol;

use crate::error::{QueryError, QueryResult};
use crate::optimizer::Optimizer;
use crate::plan::LogicalPlan;

/// Row-extent clamp for generated kernels: estimates map into
/// `[MIN_ROWS, MAX_ROWS]` so synthesis cost stays bounded while the
/// relative sizes of operators remain visible in the schedule.
pub(crate) const MIN_ROWS: usize = 4;
/// Upper clamp for generated kernel extents.
pub(crate) const MAX_ROWS: usize = 128;
/// Upper clamp for the build side of the O(n·m) join-probe kernel.
pub(crate) const MAX_BUILD_ROWS: usize = 32;

// The graph ops and attributes the lowering names, resolved at compile
// time.
const FEED: Symbol = Symbol::registered("dfg.feed");
const NODE: Symbol = Symbol::registered("dfg.node");
const SINK: Symbol = Symbol::registered("dfg.sink");
const YIELD: Symbol = Symbol::registered("dfg.yield");
const NAME: Symbol = Symbol::registered("name");
const CALLEE: Symbol = Symbol::registered("callee");

/// Graph ops an operator lowers to at most: a scan's feed channel and
/// feed, and every operator's output channel and node.
const OPS_PER_OPERATOR: usize = 4;

/// One plan operator lowered to a synthesizable kernel, compiled once
/// and shared (so immutable) across the queries that need its shape.
#[derive(Debug, Clone)]
pub struct QueryKernel {
    /// Kernel (and dfg callee) name, deterministic per plan shape.
    pub name: String,
    /// The plan operator this kernel implements.
    pub op: String,
    /// Row extent the kernel was sized with.
    pub rows: usize,
    /// The loop-level IR module of the kernel.
    pub module: Module,
    /// The HLS schedule and resource report.
    pub hls: HlsReport,
    /// The worst-case latency the analysis fixpoint proves for the
    /// kernel's module
    /// ([`module_worst_case_us`](everest_analysis::latency::module_worst_case_us)),
    /// in microseconds; `None` when nothing is boundable. Proven once,
    /// when the kernel is compiled, for every query that shares it.
    pub static_bound_us: Option<f64>,
}

/// A fully lowered query: the dataflow graph plus its kernels.
#[derive(Debug, Clone)]
pub struct LoweredQuery {
    /// The `dfg` dialect module (one `dfg.graph` named `query`).
    pub module: Module,
    /// Per-operator kernels, in plan post-order.
    pub kernels: Vec<Arc<QueryKernel>>,
}

impl LoweredQuery {
    /// Total scheduled cycles across all kernels.
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.hls.cycles).sum()
    }

    /// The kernel with the most scheduled cycles — the one whose HLS
    /// report sizes the Olympus memory architecture and the serving
    /// class cost model.
    pub fn dominant_kernel(&self) -> Option<&QueryKernel> {
        let dominant = self.kernels.iter().max_by_key(|k| k.hls.cycles)?;
        Some(dominant)
    }
}

fn clamp_rows(estimate: f64) -> usize {
    (estimate as usize).clamp(MIN_ROWS, MAX_ROWS)
}

/// Generates the EKL source for one plan operator.
fn kernel_source(name: &str, plan: &LogicalPlan, rows: usize, width: usize) -> String {
    match plan {
        LogicalPlan::Scan { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  index c : 0..{width}\n  \
             input rows : [i, c]\n  let out[i, c] = rows[i, c]\n  output out\n}}"
        ),
        LogicalPlan::Filter { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  input x : [i]\n  input p : [i]\n  \
             let keep[i] = select(p[i] <= 0.5, 0.0, x[i])\n  output keep\n}}"
        ),
        LogicalPlan::Project { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  input x : [i]\n  \
             let y[i] = 2.0 * x[i] + 1.0\n  output y\n}}"
        ),
        LogicalPlan::Aggregate { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  input x : [i]\n  \
             let total = sum(i)(x[i])\n  output total\n}}"
        ),
        LogicalPlan::Join { .. } => {
            let build = rows.min(MAX_BUILD_ROWS);
            format!(
                "kernel {name} {{\n  index i : 0..{rows}\n  index j : 0..{build}\n  \
                 input probe : [i]\n  input build : [j]\n  \
                 let matches[i] = sum(j)(select(probe[i] - build[j] <= 0.0, 1.0, 0.0))\n  \
                 output matches\n}}"
            )
        }
        LogicalPlan::Sort { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  input x : [i]\n  input s : [i]\n  \
             let y[i] = max(x[i], s[i])\n  output y\n}}"
        ),
        LogicalPlan::Limit { .. } => format!(
            "kernel {name} {{\n  index i : 0..{rows}\n  input x : [i]\n  \
             let y[i] = x[i]\n  output y\n}}"
        ),
    }
}

/// Everything a kernel is a function of: its place in the plan's
/// post-order and its operator (which together give its name), its
/// extents and every synthesis option. Plain values, so looking a
/// kernel up builds no name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    index: usize,
    op: &'static str,
    extents: [usize; 2],
    format: NumericFormat,
    factors: [u32; 2],
    clock_bits: u64,
    dsp_limit: Option<u32>,
    flags: [bool; 2],
}

/// Bound on the process-wide kernel table: default options span a few
/// thousand keys; past it a new shape is compiled on every use.
const MAX_SHARED_KERNELS: usize = 4096;

static KERNELS: LazyLock<Mutex<HashMap<ShapeKey, Arc<QueryKernel>>>> =
    LazyLock::new(Mutex::default);

/// The kernel of one operator shape, and whether this call compiled it
/// or found it in the process-wide table. A hit is what a miss would
/// build: [`compile_kernel`] is a pure function of the key.
fn shared_kernel(
    index: usize,
    plan: &LogicalPlan,
    rows: usize,
    width: usize,
    options: &HlsOptions,
) -> QueryResult<(Arc<QueryKernel>, bool)> {
    // Destructured in full so a new option cannot be left out of the key.
    let HlsOptions {
        format,
        pipeline,
        unroll,
        partition,
        clock_ns,
        dsp_limit,
        licm,
    } = *options;
    let key = ShapeKey {
        index,
        op: plan.op_name(),
        extents: [rows, width],
        format,
        factors: [unroll, partition],
        clock_bits: clock_ns.to_bits(),
        dsp_limit,
        flags: [pipeline, licm],
    };
    // The only write is one `insert`, so a poisoned lock still guards a
    // valid map.
    let lock = || KERNELS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(kernel) = lock().get(&key) {
        return Ok((Arc::clone(kernel), false));
    }
    // Compiled with the lock released: threads that miss together each
    // build the same kernel and the first insert is the one kept.
    let name = format!("q{index}_{}", plan.op_name());
    let mut kernel = Arc::new(compile_kernel(&name, plan, rows, width, options)?);
    let mut table = lock();
    if table.len() < MAX_SHARED_KERNELS {
        kernel = Arc::clone(table.entry(key).or_insert(kernel));
    }
    Ok((kernel, true))
}

/// Compiles one operator kernel through EKL → loop IR → HLS.
fn compile_kernel(
    name: &str,
    plan: &LogicalPlan,
    rows: usize,
    width: usize,
    options: &HlsOptions,
) -> QueryResult<QueryKernel> {
    let source = kernel_source(name, plan, rows, width);
    let kernel = everest_ekl::parser::parse(&source).map_err(|e| QueryError::Plan {
        message: format!("generated kernel '{name}' failed to parse: {e}"),
    })?;
    let program = everest_ekl::check::check(&kernel).map_err(|e| QueryError::Plan {
        message: format!("generated kernel '{name}' failed to check: {e}"),
    })?;
    let module = everest_ekl::lower::lower_to_loops(&program).map_err(|e| QueryError::Plan {
        message: format!("generated kernel '{name}' failed to lower: {e}"),
    })?;
    let hls = synthesize(&module, name, *options).map_err(|e| QueryError::Plan {
        message: format!("generated kernel '{name}' failed to synthesize: {e}"),
    })?;
    let static_bound_us = everest_analysis::latency::module_worst_case_us(&module);
    Ok(QueryKernel {
        name: name.to_string(),
        op: plan.op_name().to_string(),
        rows,
        module,
        hls,
        static_bound_us,
    })
}

/// Lowers a logical plan into a verified-shape `dfg` graph whose
/// nodes call HLS-synthesized operator kernels. Deterministic: kernel
/// names and graph structure are a pure function of the plan shape
/// and the optimizer's statistics.
pub fn lower(
    plan: &LogicalPlan,
    optimizer: &Optimizer,
    options: &HlsOptions,
) -> QueryResult<LoweredQuery> {
    let span = everest_telemetry::span("query.lower");
    let operators = operators(plan);
    // Past the operators: the graph, its sink and its yield.
    let mut module = Module::with_capacity(OPS_PER_OPERATOR * operators + 3);
    let top = module.top_block();
    let (_graph, body) = build_graph(&mut module, top, "query");
    let mut kernels = Kernels {
        kernels: Vec::with_capacity(operators),
        compiled: 0,
    };
    let root = lower_node(plan, optimizer, options, &mut module, body, &mut kernels)?;
    module
        .build_op(SINK, [root], [])
        .attr(NAME, "result")
        .append_to(body);
    module.build_op(YIELD, [], []).append_to(body);
    let Kernels { kernels, compiled } = kernels;
    span.arg("kernels", kernels.len() as u64)
        .arg("kernels_compiled", compiled);
    everest_telemetry::counter_add("query.kernels", kernels.len() as u64);
    everest_telemetry::counter_add("query.kernels_compiled", compiled);
    Ok(LoweredQuery { module, kernels })
}

/// How many operators `plan` has.
fn operators(plan: &LogicalPlan) -> usize {
    1 + match plan {
        LogicalPlan::Scan { .. } => 0,
        LogicalPlan::Join { left, right, .. } => operators(left) + operators(right),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => operators(input),
    }
}

/// The kernels a lowering has called so far, and how many of them it
/// compiled.
struct Kernels {
    kernels: Vec<Arc<QueryKernel>>,
    compiled: u64,
}

impl Kernels {
    /// The shared kernel of the next operator, and the callee attribute
    /// naming it.
    fn next(
        &mut self,
        plan: &LogicalPlan,
        rows: usize,
        width: usize,
        options: &HlsOptions,
    ) -> QueryResult<everest_ir::attr::Attribute> {
        let (kernel, compiled) = shared_kernel(self.kernels.len(), plan, rows, width, options)?;
        self.compiled += u64::from(compiled);
        let callee = everest_ir::attr::Attribute::SymbolRef(kernel.name.clone());
        self.kernels.push(kernel);
        Ok(callee)
    }
}

fn lower_node(
    plan: &LogicalPlan,
    optimizer: &Optimizer,
    options: &HlsOptions,
    module: &mut Module,
    body: everest_ir::ids::BlockId,
    kernels: &mut Kernels,
) -> QueryResult<everest_ir::ids::ValueId> {
    // Pure-column projections (including the identity wrappers the
    // join reorderer inserts) are wiring, not compute: no kernel, the
    // child's stream passes through.
    if let LogicalPlan::Project { input, exprs } = plan {
        if exprs
            .iter()
            .all(|(e, _)| matches!(e, crate::plan::Expr::Column(_)))
        {
            return lower_node(input, optimizer, options, module, body, kernels);
        }
    }
    // Children first (post-order), so kernel indices are stable. The
    // `dfg` convention (see `everest-condrust`): every operator owns
    // one output channel and a `dfg.node` whose operands are
    // `[input channels..., output channel]` — exactly one writer and
    // at least one reader per channel, so the structural lints hold.
    let (first, second) = match plan {
        LogicalPlan::Scan { table, columns, .. } => {
            let rows = clamp_rows(optimizer.estimate_rows(plan));
            let feed = build_channel(module, body, Type::F64, rows.max(1) as i64);
            module
                .build_op(FEED, [feed], [])
                .attr(NAME, table.as_str())
                .append_to(body);
            let width = columns.len().clamp(1, 8);
            let callee = kernels.next(plan, rows, width, options)?;
            let out = build_channel(module, body, Type::F64, rows.max(1) as i64);
            module
                .build_op(NODE, [feed, out], [])
                .attr(CALLEE, callee)
                .append_to(body);
            return Ok(out);
        }
        LogicalPlan::Join { left, right, .. } => {
            let l = lower_node(left, optimizer, options, module, body, kernels)?;
            let r = lower_node(right, optimizer, options, module, body, kernels)?;
            (l, Some(r))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => (
            lower_node(input, optimizer, options, module, body, kernels)?,
            None,
        ),
    };
    let rows = clamp_rows(optimizer.estimate_rows(plan));
    let callee = kernels.next(plan, rows, 1, options)?;
    let out = build_channel(module, body, Type::F64, rows.max(1) as i64);
    let operands = [first].into_iter().chain(second).chain([out]);
    module
        .build_op(NODE, operands, [])
        .attr(CALLEE, callee)
        .append_to(body);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::planner::plan_query;
    use crate::table::{Catalog, DataType, Field, Schema, Table, Value};
    use everest_ir::print::print_module;
    use everest_ir::registry::Context;
    use everest_ir::verify::verify_module;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64)])
            .collect();
        c.register("t", Table::new(schema.clone(), rows).expect("table"));
        let rows = (0..7)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        c.register("d", Table::new(schema, rows).expect("table"));
        c
    }

    #[test]
    fn lowered_query_verifies_and_schedules() {
        let catalog = catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        let q = parse(
            "SELECT t.k, sum(t.v) FROM t JOIN d ON t.k = d.k WHERE t.v > 1 GROUP BY t.k \
             ORDER BY t.k LIMIT 5",
        )
        .expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let optimized = optimizer.optimize(&plan);
        let lowered = lower(&optimized, &optimizer, &HlsOptions::default()).expect("lowers");
        verify_module(&Context::with_all_dialects(), &lowered.module).expect("dfg verifies");
        // scan t, scan d, filter, join, aggregate, sort, limit (the
        // select-list projection is pure columns — wiring, no kernel)
        assert!(lowered.kernels.len() >= 6, "{}", lowered.kernels.len());
        assert!(lowered.total_cycles() > 0);
        assert!(lowered.dominant_kernel().is_some());
        for kernel in &lowered.kernels {
            assert!(kernel.hls.cycles > 0, "kernel {} scheduled", kernel.name);
        }
    }

    /// The lowering contract restated for the test: post-order, one
    /// kernel per operator except pure-column projections, scans sized
    /// by their column count.
    fn kernel_sites<'p>(
        plan: &'p LogicalPlan,
        optimizer: &Optimizer,
        out: &mut Vec<(&'p LogicalPlan, usize, usize)>,
    ) {
        for child in plan.children() {
            kernel_sites(child, optimizer, out);
        }
        let width = match plan {
            LogicalPlan::Project { exprs, .. }
                if exprs
                    .iter()
                    .all(|(e, _)| matches!(e, crate::plan::Expr::Column(_))) =>
            {
                return
            }
            LogicalPlan::Scan { columns, .. } => columns.len().clamp(1, 8),
            _ => 1,
        };
        out.push((plan, clamp_rows(optimizer.estimate_rows(plan)), width));
    }

    fn assert_same_kernel(got: &QueryKernel, want: &QueryKernel) {
        assert_eq!(
            (&got.name, &got.op, got.rows),
            (&want.name, &want.op, want.rows)
        );
        assert_eq!(
            print_module(&got.module),
            print_module(&want.module),
            "{}",
            got.name
        );
        assert_eq!(got.hls, want.hls, "{}", got.name);
        assert_eq!(got.static_bound_us, want.static_bound_us, "{}", got.name);
    }

    #[test]
    fn a_shared_kernel_is_what_the_miss_path_builds() {
        let catalog = catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        let fast = HlsOptions {
            unroll: 2,
            licm: true,
            clock_ns: 2.5,
            ..HlsOptions::default()
        };
        for sql in [
            "SELECT v FROM t WHERE v > 2",
            "SELECT k, v * 2 AS w FROM t ORDER BY k LIMIT 3",
            "SELECT t.k, sum(t.v) FROM t JOIN d ON t.k = d.k WHERE t.v > 1 GROUP BY t.k \
             ORDER BY t.k LIMIT 5",
        ] {
            let plan = plan_query(&catalog, &parse(sql).expect("parses")).expect("plans");
            for plan in [optimizer.optimize(&plan), plan] {
                let mut sites = Vec::new();
                kernel_sites(&plan, &optimizer, &mut sites);
                for options in [HlsOptions::default(), fast] {
                    let first = lower(&plan, &optimizer, &options).expect("lowers");
                    let again = lower(&plan, &optimizer, &options).expect("lowers");
                    assert_eq!(first.kernels.len(), sites.len(), "{sql}");
                    for (index, (node, rows, width)) in sites.iter().enumerate() {
                        let shared = &first.kernels[index];
                        assert!(Arc::ptr_eq(shared, &again.kernels[index]), "{sql}");
                        let fresh = compile_kernel(&shared.name, node, *rows, *width, &options)
                            .expect("compiles");
                        assert_same_kernel(shared, &fresh);
                    }
                }
            }
        }
    }

    #[test]
    fn every_option_is_part_of_the_key() {
        let plan = LogicalPlan::Scan {
            table: "t".to_string(),
            columns: vec!["t.k".to_string()],
            projection: None,
        };
        let base = HlsOptions::default();
        let variants = [
            base,
            HlsOptions {
                format: NumericFormat::F32,
                ..base
            },
            HlsOptions {
                pipeline: false,
                ..base
            },
            HlsOptions { unroll: 2, ..base },
            HlsOptions {
                partition: 2,
                ..base
            },
            HlsOptions {
                clock_ns: 5.0,
                ..base
            },
            HlsOptions {
                dsp_limit: Some(1),
                ..base
            },
            HlsOptions { licm: true, ..base },
        ];
        // A place no query's plan reaches, so every first lookup is a miss.
        let probe = |rows, width, options: &HlsOptions| {
            shared_kernel(9_999, &plan, rows, width, options).expect("compiles")
        };
        let kernels: Vec<Arc<QueryKernel>> = variants
            .iter()
            .map(|options| {
                let (kernel, compiled) = probe(16, 2, options);
                assert!(compiled, "{options:?} took another option set's kernel");
                kernel
            })
            .collect();
        for (i, options) in variants.iter().enumerate() {
            let (hit, compiled) = probe(16, 2, options);
            assert!(!compiled && Arc::ptr_eq(&hit, &kernels[i]), "{options:?}");
        }
        for (rows, width) in [(17, 2), (16, 3)] {
            assert!(
                probe(rows, width, &base).1,
                "{rows}x{width} is a shape of its own"
            );
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let catalog = catalog();
        let optimizer = Optimizer::for_catalog(&catalog);
        let q = parse("SELECT v FROM t WHERE v > 2").expect("parses");
        let plan = plan_query(&catalog, &q).expect("plans");
        let a = lower(&plan, &optimizer, &HlsOptions::default()).expect("lowers");
        let b = lower(&plan, &optimizer, &HlsOptions::default()).expect("lowers");
        let names_a: Vec<&str> = a.kernels.iter().map(|k| k.name.as_str()).collect();
        let names_b: Vec<&str> = b.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names_a, names_b);
        assert_eq!(a.total_cycles(), b.total_cycles());
    }
}
