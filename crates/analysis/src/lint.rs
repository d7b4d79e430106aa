//! The lint framework: the [`Lint`] trait, the [`Collector`] findings
//! sink, and the [`Analyzer`] driver.
//!
//! Unlike [`verify_module`](everest_ir::verify::verify_module), which
//! stops at the first violation, an analyzer *collects*: every lint
//! runs to completion over the whole module and the report holds all
//! findings, each tagged with the op's structural path.

use std::cell::OnceCell;

use everest_ir::ids::OpId;
use everest_ir::location::OpPath;
use everest_ir::module::Module;
use everest_ir::registry::Context;
use everest_ir::Symbol;

use crate::diagnostics::{Diagnostic, Severity};
use crate::interval::{self, IntervalFacts};
use crate::report::AnalysisReport;

/// Static description of one lint id a [`Lint`] can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintInfo {
    /// Stable kebab-case id used in reports.
    pub id: &'static str,
    /// One-line description for catalogues and docs.
    pub description: &'static str,
    /// Severity every finding of this id is reported at.
    pub default_severity: Severity,
}

/// A set of op kinds: one bit per registered op name, at the name's
/// fixed [`Symbol::index`], and one bit for every other name.
///
/// A lint declares the kinds its findings need ([`Lint::ops`]);
/// [`Analyzer::run`] takes the census of the kinds a module's walk
/// holds and skips every lint whose declared kinds are all absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpKinds(u128);

/// The bit every name past the registered ones shares.
const OTHER: u32 = u128::BITS - 1;

impl OpKinds {
    /// Every kind, registered or not: a lint declaring it runs on every
    /// module.
    pub(crate) const ANY: OpKinds = OpKinds(u128::MAX);

    /// The kinds named, each a registered op name (any other is a
    /// compile error in a `const`).
    pub const fn of(names: &[&str]) -> OpKinds {
        let mut bits = 0;
        let mut at = 0;
        while at < names.len() {
            bits |= 1 << Symbol::registered(names[at]).index();
            at += 1;
        }
        OpKinds(bits)
    }

    /// The kinds of every op of `walk` (erased ids skipped).
    fn census(module: &Module, walk: &[OpId]) -> OpKinds {
        let mut bits = 0;
        for &op in walk {
            if let Some(operation) = module.op(op) {
                bits |= 1 << (operation.name.index() as u32).min(OTHER);
            }
        }
        OpKinds(bits)
    }

    /// Whether a lint declaring `self` has anything to look at in a
    /// module of kinds `census`.
    fn admits(self, census: OpKinds) -> bool {
        self == OpKinds::ANY || self.0 & census.0 != 0
    }
}

/// A non-mutating analysis over a module.
///
/// One `Lint` implementation may emit several related lint ids (e.g.
/// the memref lifetime analysis emits use-after-free, double-free,
/// leak and out-of-bounds findings from a single walk); it declares
/// them all via [`Lint::lints`] so the analyzer can catalogue them and
/// resolve their severities.
///
/// A lint declares through [`Lint::ops`] the op kinds without which it
/// finds nothing. The built-in lints read the module's ops from the one
/// pre-order walk of the run the collector holds, not a walk of their
/// own.
pub trait Lint {
    /// Name of the analysis (pass-style, for debugging/catalogues).
    fn name(&self) -> &'static str;

    /// The lint ids this analysis can emit.
    fn lints(&self) -> &'static [LintInfo];

    /// The op kinds the lint inspects: on a module with none of them
    /// it must find nothing, and [`Analyzer::run`] does not run it.
    /// The default, every kind, runs it on every module.
    fn ops(&self) -> OpKinds {
        OpKinds::ANY
    }

    /// Runs the analysis, emitting findings into `out`.
    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>);
}

/// A lint as an [`Analyzer`] holds it.
type SharedLint = dyn Lint + Send + Sync;

/// The default lint set, in run order: stateless unit structs, so one
/// static table serves every analyzer.
static DEFAULT_LINTS: [&SharedLint; 8] = [
    &crate::typecheck::TypeCheck,
    &crate::typecheck::MemorySpaceCheck,
    &crate::lifetime::MemrefLifetime,
    &crate::dataflow::DfgStructure,
    &crate::hls::HlsPreSynthesis,
    &crate::interval::IntervalAnalysis,
    &crate::escape::MemorySpaceEscape,
    &crate::latency::WorstCaseLatency,
];

/// Findings sink handed to lints.
///
/// Resolves each emission's severity (the declaring lint's default),
/// drops [`Severity::Allow`] findings, and attaches the op's
/// structural path — the same [`OpPath`] verification errors carry.
pub struct Collector<'a> {
    /// The run's analyzer, whose lints' [`LintInfo`]s give each id its
    /// default.
    analyzer: &'a Analyzer,
    module: &'a Module,
    /// The module's ops in pre-order, walked once for the run.
    walk: &'a [OpId],
    /// The module's interval fixpoint, solved by the first lint of the
    /// run that asks and read by the rest.
    intervals: &'a OnceCell<IntervalFacts>,
    diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Debug for Collector<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("diagnostics", &self.diagnostics)
            .finish_non_exhaustive()
    }
}

impl<'a> Collector<'a> {
    /// Every op of the module under analysis in pre-order (region
    /// nesting order), as [`Module::walk_ops`] lists them: walked once
    /// per [`Analyzer::run`] for every lint. The borrow is the run's,
    /// not the collector's, so findings can be emitted while it is
    /// held.
    pub(crate) fn walk(&self) -> &'a [OpId] {
        self.walk
    }

    /// The ops nested under the op at `walk()[at]`, at any depth: the
    /// pre-order walk lists them right after it, so this is a slice of
    /// the walk, not another walk.
    pub(crate) fn nested(&self, at: usize) -> &'a [OpId] {
        let count = self
            .walk
            .get(at)
            .and_then(|&op| self.module.op(op))
            .map_or(0, |op| nested_count(self.module, op));
        &self.walk[at + 1..at + 1 + count]
    }

    /// The interval fixpoint of the module under analysis
    /// ([`interval::compute`]), solved at most once per
    /// [`Analyzer::run`] however many lints read it. The borrow is the
    /// run's, not the collector's, so findings can be emitted while it
    /// is held.
    pub(crate) fn interval_facts(&self) -> &'a IntervalFacts {
        self.intervals
            .get_or_init(|| interval::compute_over(self.module, self.walk))
    }

    /// The severity of `lint`: the default the last registered lint
    /// declaring the id gives it (warn when none does). The defaults
    /// are the lints' own static [`LintInfo`] tables, searched in place:
    /// a run builds no table of them.
    fn severity_of(&self, lint: &str) -> Severity {
        self.analyzer
            .lints()
            .rev()
            .find_map(|l| l.lints().iter().rev().find(|info| info.id == lint))
            .map_or(Severity::Warn, |info| info.default_severity)
    }

    /// Emits a finding anchored to a specific op.
    pub fn emit(&mut self, lint: &str, op: OpId, message: impl Into<String>) {
        let severity = self.severity_of(lint);
        if severity == Severity::Allow {
            return;
        }
        let name = self.module.op(op).map(|o| o.name.to_string());
        self.diagnostics.push(Diagnostic {
            lint: lint.to_string(),
            severity,
            op: name,
            path: OpPath::of(self.module, op),
            message: message.into(),
        });
    }

    /// Number of findings collected so far (used by lints to cap noise).
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// How many ops are nested under `operation`, at any depth: how far
/// past it the pre-order walk runs before leaving it.
fn nested_count(module: &Module, operation: &everest_ir::module::Operation) -> usize {
    let mut count = 0;
    for &region in &operation.regions {
        for &block in &module.region(region).blocks {
            for &op in &module.block(block).ops {
                count += 1 + module
                    .op(op)
                    .map_or(0, |nested| nested_count(module, nested));
            }
        }
    }
    count
}

/// Runs a set of lints over modules and aggregates their findings.
pub struct Analyzer {
    /// The built-in lints, run first: the default set or none.
    builtin: &'static [&'static SharedLint],
    /// Lints added through [`Analyzer::with_lint`], run after them.
    added: Vec<Box<SharedLint>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("lints", &self.lints().map(|l| l.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::with_default_lints()
    }
}

impl Analyzer {
    /// An analyzer with no lints registered.
    pub fn new() -> Self {
        Analyzer {
            builtin: &[],
            added: Vec::new(),
        }
    }

    /// An analyzer with the full EVEREST lint set: type checking,
    /// memory-space checking, memref lifetimes, dataflow structure,
    /// HLS pre-synthesis lints, and the fixpoint-powered analyses
    /// (interval propagation, memory-space escape, worst-case latency).
    /// The set is one static table: building the analyzer allocates
    /// nothing.
    pub fn with_default_lints() -> Self {
        Analyzer {
            builtin: &DEFAULT_LINTS,
            added: Vec::new(),
        }
    }

    /// The lints of [`Analyzer::with_default_lints`], in run order.
    pub fn default_lints() -> &'static [&'static (dyn Lint + Send + Sync)] {
        &DEFAULT_LINTS
    }

    /// Adds a lint. Lints are `Send + Sync` (they take `&self` and all
    /// built-ins are stateless), so one analyzer can be shared across
    /// threads.
    #[must_use]
    pub fn with_lint(mut self, lint: Box<dyn Lint + Send + Sync>) -> Self {
        self.added.push(lint);
        self
    }

    /// Every registered lint, in run order.
    fn lints(&self) -> impl DoubleEndedIterator<Item = &SharedLint> {
        let added = self.added.iter().map(|lint| &**lint);
        self.builtin.iter().copied().chain(added)
    }

    /// Runs all lints over the module and collects every finding.
    ///
    /// Walks the module once: every lint reads that walk, and a lint
    /// whose declared op kinds ([`Lint::ops`]) the walk does not hold
    /// is not run.
    ///
    /// Never fails: malformed modules simply produce findings (or are
    /// skipped by individual lints); use the verifier for hard
    /// structural errors.
    pub fn run(&self, ctx: &Context, module: &Module) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        let walk = module.walk_ops();
        let census = OpKinds::census(module, &walk);
        let intervals = OnceCell::new();
        for lint in self.lints().filter(|lint| lint.ops().admits(census)) {
            let mut out = Collector {
                analyzer: self,
                module,
                walk: &walk,
                intervals: &intervals,
                diagnostics: Vec::new(),
            };
            lint.run(ctx, module, &mut out);
            if report.diagnostics.is_empty() {
                report.diagnostics = out.diagnostics;
            } else {
                report.diagnostics.append(&mut out.diagnostics);
            }
        }
        report.normalize();
        report
    }

    /// Runs the ConDRust graph lints over an extracted dataflow graph.
    pub fn run_graph(&self, graph: &everest_condrust::DataflowGraph) -> AnalysisReport {
        let mut report = crate::dataflow::analyze_condrust_graph(graph);
        report.normalize();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core;

    /// Flags every op under the one `test-count` id its table declares.
    struct CountOps(&'static [LintInfo]);

    const COUNT_LINTS: &[LintInfo] = &[LintInfo {
        id: "test-count",
        description: "flags every op",
        default_severity: Severity::Warn,
    }];

    impl Lint for CountOps {
        fn name(&self) -> &'static str {
            "count-ops"
        }

        fn lints(&self) -> &'static [LintInfo] {
            self.0
        }

        fn run(&self, _ctx: &Context, _module: &Module, out: &mut Collector<'_>) {
            for &op in out.walk() {
                out.emit("test-count", op, "an op");
            }
        }
    }

    #[test]
    fn collector_gathers_every_finding_with_paths() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        core::binary(&mut m, top, "arith.addf", a, b);
        let analyzer = Analyzer::new().with_lint(Box::new(CountOps(COUNT_LINTS)));
        let report = analyzer.run(&ctx, &m);
        assert_eq!(report.diagnostics.len(), 3);
        for d in &report.diagnostics {
            assert!(d.path.is_some(), "module ops have paths");
        }
    }

    #[test]
    fn allow_level_suppresses_findings() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        core::const_f64(&mut m, top, 1.0);
        const ALLOWED: &[LintInfo] = &[LintInfo {
            default_severity: Severity::Allow,
            ..COUNT_LINTS[0]
        }];
        let analyzer = Analyzer::new().with_lint(Box::new(CountOps(ALLOWED)));
        assert!(analyzer.run(&ctx, &m).is_clean());
    }

    #[test]
    fn default_catalogue_has_the_documented_lint_set() {
        let analyzer = Analyzer::with_default_lints();
        let ids: Vec<&str> = analyzer
            .lints()
            .flat_map(|l| l.lints())
            .map(|i| i.id)
            .collect();
        for id in [
            "type-mismatch",
            "memory-space",
            "memref-use-after-free",
            "memref-double-free",
            "memref-leak",
            "memref-out-of-bounds",
            "dfg-multiple-writers",
            "dfg-unbuffered-cycle",
            "dfg-dangling-port",
            "hls-loop-invariant",
            "hls-unpipelinable",
            "interval-out-of-bounds",
            "interval-dead-branch",
            "dfg-channel-capacity",
            "memory-space-escape",
            "latency-deadline",
            "latency-unbounded",
        ] {
            assert!(ids.contains(&id), "missing lint id {id}");
        }
    }
}
