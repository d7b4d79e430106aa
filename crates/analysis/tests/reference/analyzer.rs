//! The analyzer run loop the one-walk census replaced: every lint of the
//! default set runs on every module, alone, so over a walk of its own
//! and with interval facts of its own, whatever op kinds the module
//! holds.

use everest_analysis::{AnalysisReport, Analyzer, Collector, Lint, LintInfo};
use everest_ir::module::Module;
use everest_ir::registry::Context;

/// A lint with its declared op kinds hidden: it runs on every module.
struct Everywhere(&'static (dyn Lint + Send + Sync));

impl Lint for Everywhere {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn lints(&self) -> &'static [LintInfo] {
        self.0.lints()
    }

    fn run(&self, ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        self.0.run(ctx, module, out);
    }
}

/// The normalized findings of every default lint, each run alone on
/// `module`.
pub(crate) fn run(ctx: &Context, module: &Module) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for &lint in Analyzer::default_lints() {
        let alone = Analyzer::new().with_lint(Box::new(Everywhere(lint)));
        report
            .diagnostics
            .extend(alone.run(ctx, module).diagnostics);
    }
    report.normalize();
    report
}
