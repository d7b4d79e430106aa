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

/// A non-mutating analysis over a module.
///
/// One `Lint` implementation may emit several related lint ids (e.g.
/// the memref lifetime analysis emits use-after-free, double-free,
/// leak and out-of-bounds findings from a single walk); it declares
/// them all via [`Lint::lints`] so the analyzer can catalogue them and
/// resolve their severities.
pub trait Lint {
    /// Name of the analysis (pass-style, for debugging/catalogues).
    fn name(&self) -> &'static str;

    /// The lint ids this analysis can emit.
    fn lints(&self) -> &'static [LintInfo];

    /// Runs the analysis, emitting findings into `out`.
    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>);
}

/// Findings sink handed to lints.
///
/// Resolves each emission's severity (the declaring lint's default),
/// drops [`Severity::Allow`] findings, and attaches the op's
/// structural path — the same [`OpPath`] verification errors carry.
pub struct Collector<'a> {
    /// The run's lints, whose [`LintInfo`]s give each id its default.
    lints: &'a [Box<dyn Lint + Send + Sync>],
    module: &'a Module,
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
    fn new(
        lints: &'a [Box<dyn Lint + Send + Sync>],
        module: &'a Module,
        intervals: &'a OnceCell<IntervalFacts>,
    ) -> Self {
        Collector {
            lints,
            module,
            intervals,
            diagnostics: Vec::new(),
        }
    }

    /// The interval fixpoint of the module under analysis
    /// ([`interval::compute`]), solved at most once per
    /// [`Analyzer::run`] however many lints read it. The borrow is the
    /// run's, not the collector's, so findings can be emitted while it
    /// is held.
    pub(crate) fn interval_facts(&self) -> &'a IntervalFacts {
        self.intervals
            .get_or_init(|| interval::compute(self.module))
    }

    /// The severity of `lint`: the default the last registered lint
    /// declaring the id gives it (warn when none does). The defaults
    /// are the lints' own static [`LintInfo`] tables, searched in place:
    /// a run builds no table of them.
    fn severity_of(&self, lint: &str) -> Severity {
        self.lints
            .iter()
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

/// Runs a set of lints over modules and aggregates their findings.
pub struct Analyzer {
    lints: Vec<Box<dyn Lint + Send + Sync>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field(
                "lints",
                &self.lints.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
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
        Analyzer { lints: Vec::new() }
    }

    /// An analyzer with the full EVEREST lint set: type checking,
    /// memory-space checking, memref lifetimes, dataflow structure,
    /// HLS pre-synthesis lints, and the fixpoint-powered analyses
    /// (interval propagation, memory-space escape, worst-case latency).
    pub fn with_default_lints() -> Self {
        Analyzer {
            lints: Vec::with_capacity(8),
        }
        .with_lint(Box::new(crate::typecheck::TypeCheck))
        .with_lint(Box::new(crate::typecheck::MemorySpaceCheck))
        .with_lint(Box::new(crate::lifetime::MemrefLifetime))
        .with_lint(Box::new(crate::dataflow::DfgStructure))
        .with_lint(Box::new(crate::hls::HlsPreSynthesis))
        .with_lint(Box::new(crate::interval::IntervalAnalysis))
        .with_lint(Box::new(crate::escape::MemorySpaceEscape))
        .with_lint(Box::new(crate::latency::WorstCaseLatency))
    }

    /// Adds a lint. Lints are `Send + Sync` (they take `&self` and all
    /// built-ins are stateless), so one analyzer can be shared across
    /// threads.
    #[must_use]
    pub fn with_lint(mut self, lint: Box<dyn Lint + Send + Sync>) -> Self {
        self.lints.push(lint);
        self
    }

    /// Runs all lints over the module and collects every finding.
    ///
    /// Never fails: malformed modules simply produce findings (or are
    /// skipped by individual lints); use the verifier for hard
    /// structural errors.
    pub fn run(&self, ctx: &Context, module: &Module) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        let intervals = OnceCell::new();
        for lint in &self.lints {
            let mut out = Collector::new(&self.lints, module, &intervals);
            lint.run(ctx, module, &mut out);
            report.diagnostics.extend(out.diagnostics);
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

        fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
            for op in module.walk_ops() {
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
            .lints
            .iter()
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
