//! `basecamp`: the single point of access to the EVEREST SDK (paper
//! §IV: "All tools within the SDK are wrapped under the basecamp
//! command").
//!
//! The compilation flow mirrors Fig. 2: kernels written in EKL enter the
//! MLIR-style IR, are lowered to loops, synthesized by the HLS engine,
//! and wrapped into an optimized FPGA system architecture by Olympus for
//! the selected target platform; coordination programs written in the
//! ConDRust subset compile to deterministic dataflow graphs.

use std::sync::Arc;

use everest_analysis::{AnalysisReport, Analyzer};
use everest_ekl::check::Program;
use everest_hls::{HlsOptions, HlsReport};
use everest_ir::module::Module;
use everest_ir::registry::Context;
use everest_olympus::{KernelSpec, SystemArchitecture, SystemConfig};
use everest_platform::device::FpgaDevice;
use everest_telemetry::Registry;

use crate::error::SdkError;

/// Supported deployment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// AMD Alveo u55c (PCIe, HBM2) — the PTDR prototype platform.
    AlveoU55c,
    /// AMD Alveo u280 (PCIe, HBM2 + DDR4).
    AlveoU280,
    /// IBM cloudFPGA (network-attached).
    CloudFpga,
    /// No offloading: CPU execution only.
    Cpu,
}

impl Target {
    /// The device model, if the target is an FPGA.
    pub fn device(&self) -> Option<FpgaDevice> {
        match self {
            Target::AlveoU55c => Some(FpgaDevice::alveo_u55c()),
            Target::AlveoU280 => Some(FpgaDevice::alveo_u280()),
            Target::CloudFpga => Some(FpgaDevice::cloudfpga()),
            Target::Cpu => None,
        }
    }

    /// Parses a target name.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::UnknownPlatform`] for unknown names.
    pub fn parse(name: &str) -> Result<Target, SdkError> {
        match name {
            "alveo_u55c" => Ok(Target::AlveoU55c),
            "alveo_u280" => Ok(Target::AlveoU280),
            "cloudfpga" => Ok(Target::CloudFpga),
            "cpu" => Ok(Target::Cpu),
            other => Err(SdkError::UnknownPlatform(other.to_string())),
        }
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// The deployment target.
    pub target: Target,
    /// HLS options (numeric format, pipelining, unrolling, ...).
    pub hls: HlsOptions,
    /// Run the Olympus design-space exploration (otherwise a default
    /// architecture is generated).
    pub explore: bool,
    /// Batch size assumed during exploration.
    pub batch_items: u64,
    /// Fraction of kernel traffic that is reads.
    pub read_fraction: f64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            target: Target::AlveoU55c,
            hls: HlsOptions::default(),
            explore: false,
            batch_items: 64,
            read_fraction: 0.7,
        }
    }
}

/// A fully compiled kernel: every intermediate the flow produces.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The validated EKL program.
    pub program: Program,
    /// Loop-level IR module.
    pub module: Module,
    /// HLS synthesis report.
    pub hls: HlsReport,
    /// System architecture (None for CPU targets).
    pub architecture: Option<SystemArchitecture>,
    /// `olympus` dialect description (None for CPU targets).
    pub system_ir: Option<Module>,
    /// Estimated per-invocation FPGA time in µs (None for CPU targets).
    pub fpga_time_us: Option<f64>,
}

/// A compiled coordination program.
#[derive(Debug)]
pub struct CoordinationProgram {
    /// The extracted dataflow graph.
    pub graph: everest_condrust::DataflowGraph,
    /// The `dfg` dialect module.
    pub dfg_ir: Module,
}

/// The SDK entry point.
#[derive(Debug)]
pub struct Basecamp {
    context: Context,
    telemetry: Arc<Registry>,
}

impl Default for Basecamp {
    fn default() -> Self {
        Self::new()
    }
}

impl Basecamp {
    /// Boots the SDK with every dialect registered. Stage spans are
    /// recorded into the process-global telemetry registry, where the
    /// lower layers (HLS, Olympus, platform, runtime) also report, so a
    /// single trace covers the whole flow.
    pub fn new() -> Basecamp {
        Basecamp {
            context: Context::with_all_dialects(),
            telemetry: Registry::global(),
        }
    }

    /// Uses a dedicated telemetry registry instead of the process-global
    /// one. Only the `basecamp.*` stage spans land there; free-function
    /// instrumentation in the lower layers still reports to the global
    /// registry.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Basecamp {
        self.telemetry = registry;
        self
    }

    /// The telemetry registry receiving this instance's stage spans.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The dialect registry in use.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Compiles an EKL kernel end to end for the selected target.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError`] from any failing stage.
    pub fn compile_kernel(
        &self,
        source: &str,
        options: CompileOptions,
    ) -> Result<CompiledKernel, SdkError> {
        let compile_span = self.telemetry.span("basecamp.compile");
        // Frontend.
        let program = {
            let _s = self.telemetry.span("basecamp.parse");
            let kernel = everest_ekl::parser::parse(source)
                .map_err(|e| SdkError::Frontend(e.to_string()))?;
            everest_ekl::check::check(&kernel).map_err(|e| SdkError::Frontend(e.to_string()))?
        };
        compile_span.arg("kernel", program.name.as_str());
        // Lowering + verification.
        let module = {
            let _s = self.telemetry.span("basecamp.lower");
            everest_ekl::lower::lower_to_loops(&program)?
        };
        {
            let _s = self.telemetry.span("basecamp.verify");
            everest_ir::verify::verify_module(&self.context, &module)?;
        }
        // HLS.
        let hls = {
            let _s = self.telemetry.span("basecamp.hls");
            everest_hls::synthesize(&module, &program.name, options.hls)?
        };
        // System generation.
        let (architecture, system_ir, fpga_time_us) = self.generate_system(&hls, options)?;
        self.telemetry.counter_add("basecamp.kernels_compiled", 1);
        Ok(CompiledKernel {
            program,
            module,
            hls,
            architecture,
            system_ir,
            fpga_time_us,
        })
    }

    /// Shared Olympus back half of both kernel flows: wraps the HLS
    /// report into an optimized (or default) system architecture for the
    /// target, verifies the emitted `olympus` IR, and estimates the
    /// per-item FPGA time.
    #[allow(clippy::type_complexity)]
    fn generate_system(
        &self,
        hls: &HlsReport,
        options: CompileOptions,
    ) -> Result<(Option<SystemArchitecture>, Option<Module>, Option<f64>), SdkError> {
        let Some(device) = options.target.device() else {
            return Ok((None, None, None));
        };
        let _s = self.telemetry.span("basecamp.olympus");
        let spec = KernelSpec::from_report(hls.clone(), options.read_fraction);
        let architecture = if options.explore {
            everest_olympus::explore(&spec, &device, options.batch_items)?.best
        } else {
            everest_olympus::generate(spec, &device, SystemConfig::default())?
        };
        let makespan =
            everest_olympus::estimate_makespan(&architecture, &device, options.batch_items);
        let ir = everest_olympus::emit_ir(&architecture);
        everest_ir::verify::verify_module(&self.context, &ir)?;
        let per_item = makespan.total_us / options.batch_items.max(1) as f64;
        Ok((Some(architecture), Some(ir), Some(per_item)))
    }

    /// Compiles a legacy CFDlang program end to end (the second input
    /// language of Fig. 5, translated to EKL and lowered as EKL is).
    ///
    /// # Errors
    ///
    /// Returns [`SdkError`] from any failing stage.
    pub fn compile_cfdlang(
        &self,
        source: &str,
        name: &str,
        options: CompileOptions,
    ) -> Result<CompiledKernel, SdkError> {
        let compile_span = self.telemetry.span("basecamp.compile");
        compile_span.arg("kernel", name).arg("frontend", "cfdlang");
        let program = {
            let _s = self.telemetry.span("basecamp.parse");
            everest_ekl::cfdlang::compile(source, name)
                .map_err(|e| SdkError::Frontend(e.to_string()))?
        };
        let module = {
            let _s = self.telemetry.span("basecamp.lower");
            everest_ekl::lower::lower_to_loops(&program)?
        };
        {
            let _s = self.telemetry.span("basecamp.verify");
            everest_ir::verify::verify_module(&self.context, &module)?;
        }
        let hls = {
            let _s = self.telemetry.span("basecamp.hls");
            everest_hls::synthesize(&module, name, options.hls)?
        };
        let (architecture, system_ir, fpga_time_us) = self.generate_system(&hls, options)?;
        self.telemetry.counter_add("basecamp.kernels_compiled", 1);
        Ok(CompiledKernel {
            program,
            module,
            hls,
            architecture,
            system_ir,
            fpga_time_us,
        })
    }

    /// Compiles a ConDRust coordination program to its dataflow graph and
    /// `dfg` IR.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Coordination`] on parse or extraction errors.
    pub fn compile_coordination(&self, source: &str) -> Result<CoordinationProgram, SdkError> {
        let coordinate_span = self.telemetry.span("basecamp.coordinate");
        let graph = {
            let _s = self.telemetry.span("basecamp.parse");
            let function = everest_condrust::parse_function(source)
                .map_err(|e| SdkError::Coordination(e.to_string()))?;
            everest_condrust::DataflowGraph::from_function(&function)
                .map_err(|e| SdkError::Coordination(e.to_string()))?
        };
        coordinate_span.arg("nodes", graph.nodes.len());
        let dfg_ir = {
            let _s = self.telemetry.span("basecamp.lower");
            everest_condrust::lower::lower_to_dfg(&graph)?
        };
        {
            let _s = self.telemetry.span("basecamp.verify");
            everest_ir::verify::verify_module(&self.context, &dfg_ir)?;
        }
        Ok(CoordinationProgram { graph, dfg_ir })
    }

    /// Runs the full static-analysis lint suite over a module.
    ///
    /// Unlike verification (which stops at the first structural
    /// violation), the analyzer collects *every* finding — type
    /// mismatches, memory-space hazards, memref lifetime bugs, dataflow
    /// races and HLS anti-patterns — as a single [`AnalysisReport`].
    pub fn analyze_module(&self, module: &Module) -> AnalysisReport {
        let span = self.telemetry.span("basecamp.analyze");
        let report = Analyzer::with_default_lints().run(&self.context, module);
        span.arg("findings", report.diagnostics.len());
        report
    }

    /// Analyzes every module a compiled kernel produced (the loop-level
    /// module plus the `olympus` system IR, when present).
    pub fn analyze_kernel(&self, kernel: &CompiledKernel) -> AnalysisReport {
        let mut report = self.analyze_module(&kernel.module);
        if let Some(system_ir) = &kernel.system_ir {
            report.merge(self.analyze_module(system_ir));
            report.normalize();
        }
        report
    }

    /// Analyzes a coordination program: the `dfg` IR module and the
    /// source-level ConDRust graph, merged into one report.
    pub fn analyze_coordination(&self, program: &CoordinationProgram) -> AnalysisReport {
        let analyzer = Analyzer::with_default_lints();
        let mut report = analyzer.run(&self.context, &program.dfg_ir);
        report.merge(analyzer.run_graph(&program.graph));
        report.normalize();
        report
    }

    /// Prints any produced IR module in the textual format.
    pub fn print_ir(module: &Module) -> String {
        everest_ir::print::print_module(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};

    fn small_dims() -> RrtmgDims {
        RrtmgDims {
            nlay: 8,
            ngpt: 4,
            ntemp: 5,
            npres: 10,
            neta: 4,
            nflav: 2,
        }
    }

    #[test]
    fn end_to_end_rrtmg_compilation() {
        let basecamp = Basecamp::new();
        let source = major_absorber_source(small_dims());
        let compiled = basecamp
            .compile_kernel(&source, CompileOptions::default())
            .unwrap();
        assert_eq!(compiled.program.name, "major_absorber");
        assert!(compiled.hls.cycles > 0);
        let arch = compiled.architecture.as_ref().unwrap();
        assert_eq!(arch.platform, "alveo_u55c");
        assert!(compiled.fpga_time_us.unwrap() > 0.0);
        let ir_text = Basecamp::print_ir(compiled.system_ir.as_ref().unwrap());
        assert!(ir_text.contains("olympus.system"));
    }

    #[test]
    fn cpu_target_skips_system_generation() {
        let basecamp = Basecamp::new();
        let source = major_absorber_source(small_dims());
        let compiled = basecamp
            .compile_kernel(
                &source,
                CompileOptions {
                    target: Target::Cpu,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        assert!(compiled.architecture.is_none());
        assert!(compiled.fpga_time_us.is_none());
    }

    #[test]
    fn exploration_does_not_regress_default() {
        let basecamp = Basecamp::new();
        let source = major_absorber_source(small_dims());
        let default = basecamp
            .compile_kernel(&source, CompileOptions::default())
            .unwrap();
        let explored = basecamp
            .compile_kernel(
                &source,
                CompileOptions {
                    explore: true,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        assert!(explored.fpga_time_us.unwrap() <= default.fpga_time_us.unwrap() + 1e-9);
    }

    #[test]
    fn frontend_errors_are_reported() {
        let basecamp = Basecamp::new();
        let err = basecamp
            .compile_kernel("kernel broken {", CompileOptions::default())
            .unwrap_err();
        assert!(matches!(err, SdkError::Frontend(_)));
    }

    /// Three nested loops of four billion iterations: the cycle count
    /// does not fit 64 bits, and a wrapped one must not reach Olympus.
    #[test]
    fn cycle_count_overflow_is_an_error_not_a_wrapped_number() {
        let source = "kernel big {
            index i : 0..4000000000
            index j : 0..4000000000
            index k : 0..4000000000
            input a : [i]
            let d = sum(i)(sum(j)(sum(k)(a[i])))
            output d
        }";
        let err = Basecamp::new()
            .compile_kernel(source, CompileOptions::default())
            .unwrap_err();
        let SdkError::Ir(everest_ir::IrError::Pass { pass, message }) = &err else {
            panic!("expected the scheduler's error, got {err}");
        };
        assert_eq!(pass, "hls.schedule");
        assert!(
            message.contains("depth 1") && message.contains("4000000000 iterations"),
            "{message}"
        );
    }

    /// Twenty thousand parentheses, and two hundred thousand terms the
    /// operator loop would chain into a left-deep tree: both used to
    /// overflow the stack; both are a parse error naming the line.
    #[test]
    fn hostile_expression_depth_is_a_frontend_error_not_an_abort() {
        let around = |expr: String| {
            format!("kernel deep {{\n index i : 0..4\n input a : [i]\n let y[i] = {expr}\n output y\n}}")
        };
        let parens = format!("{}a[i]{}", "(".repeat(20_000), ")".repeat(20_000));
        let chain = vec!["a[i]"; 200_000].join(" + ");
        for source in [around(parens), around(chain)] {
            let err = Basecamp::new()
                .compile_kernel(&source, CompileOptions::default())
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "frontend: parse error at line 4: expression nests deeper than 256 levels"
            );
        }
    }

    #[test]
    fn unknown_platform_is_rejected() {
        assert!(matches!(
            Target::parse("virtex2"),
            Err(SdkError::UnknownPlatform(_))
        ));
        assert_eq!(Target::parse("cloudfpga").unwrap(), Target::CloudFpga);
    }

    #[test]
    fn cfdlang_flow_compiles_matrix_kernel() {
        let basecamp = Basecamp::new();
        let compiled = basecamp
            .compile_cfdlang(
                "var input A : [16 32]
                 var input B : [32 16]
                 var output C : [16 16]
                 C = A . B",
                "matmul",
                CompileOptions::default(),
            )
            .unwrap();
        assert_eq!(compiled.program.name, "matmul");
        assert!(compiled.hls.cycles > 16 * 16 * 32 / 4, "contraction work");
        assert!(compiled.architecture.is_some());
    }

    #[test]
    fn coordination_flow_compiles_fig4() {
        let basecamp = Basecamp::new();
        let program = basecamp
            .compile_coordination(everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
            .unwrap();
        assert!(program.graph.nodes.len() >= 4);
        let text = Basecamp::print_ir(&program.dfg_ir);
        assert!(text.contains("dfg.graph"));
    }

    #[test]
    fn compiled_rrtmg_kernel_has_no_deny_findings() {
        let basecamp = Basecamp::new();
        let source = major_absorber_source(small_dims());
        let compiled = basecamp
            .compile_kernel(&source, CompileOptions::default())
            .unwrap();
        let report = basecamp.analyze_kernel(&compiled);
        assert!(
            !report.has_denials(),
            "flow-produced IR must be deny-clean:\n{}",
            report.to_text()
        );
    }

    #[test]
    fn coordination_program_analysis_is_deny_clean() {
        let basecamp = Basecamp::new();
        let program = basecamp
            .compile_coordination(everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
            .unwrap();
        let report = basecamp.analyze_coordination(&program);
        assert!(
            !report.has_denials(),
            "coordination pipeline must be deny-clean:\n{}",
            report.to_text()
        );
    }

    #[test]
    fn analyze_module_reports_hand_written_bugs() {
        use everest_ir::dialects::core as irc;
        use everest_ir::types::Type;

        let basecamp = Basecamp::new();
        let mut m = Module::new();
        let top = m.top_block();
        let i = irc::const_index(&mut m, top, 1);
        // Float arithmetic over index operands: legal arity, but it
        // breaks `arith.addf`'s declared operand class, which the
        // verifier refuses and the analysis reports.
        m.build_op("arith.addf", [i, i], [Type::Index])
            .append_to(top);
        let report = basecamp.analyze_module(&m);
        assert!(report.has_denials());
        assert_eq!(report.by_lint("type-mismatch").len(), 1);
    }
}
