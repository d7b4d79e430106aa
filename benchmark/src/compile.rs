//! `compile_corpus`: the paper's compilation flow over a seeded corpus.
//!
//! One operation is one kernel through `basecamp compile --explore
//! --emit-ir` plus `basecamp analyze` plus the SDK's one shipped pass
//! pipeline: `compile_kernel(explore)` → `canonicalization_pipeline` on
//! the loop module → `analyze_kernel` → `print_ir` of both modules.

use std::collections::HashMap;

use everest_analysis::Analyzer;
use everest_ekl::interp::Tensor;
use everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};
use everest_ir::interp::{Buffer, Interpreter, Value};
use everest_ir::pass::canonicalization_pipeline;
use everest_ir::print::print_module;
use everest_ir::verify::verify_module;
use everest_olympus::KernelSpec;
use everest_sdk::{Basecamp, CompileOptions, Target};

use crate::gen::{ekl_kernel, Digest, Rng};
use crate::harness::{Oracle, Pass, Workload};
use crate::metrics::Layers;
use crate::stats;
use crate::trace::Tracer;

/// Statement count of each size class and how many generated kernels
/// it gets. Fixed, not drawn: the total work must not move with the
/// seed, only the kernels' contents do.
const CLASSES: [(usize, usize); 5] = [(8, 16), (32, 12), (64, 10), (128, 6), (256, 4)];
/// The classes the scaling exponents are fitted between.
const SCALING_CLASSES: (usize, usize) = (64, 256);
/// Generated kernels up to this size are also run through both
/// interpreters.
const INTERP_MAX_STATEMENTS: usize = 64;

const CFDLANG: [(&str, &str); 2] = [
    (
        "cfd_matmul",
        "var input A : [16 32]\nvar input B : [32 16]\nvar output C : [16 16]\nC = A . B\n",
    ),
    (
        "cfd_axpy_outer",
        "var input u : [24]\nvar input v : [24]\nvar input w : [12]\nvar output T : [24 12]\nT = (u + v) # w\n",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Ekl,
    Cfdlang,
    Condrust,
}

#[derive(Debug)]
struct Item {
    name: String,
    flavor: Flavor,
    source: String,
    /// `let` statements (0 where the notion does not apply).
    statements: usize,
    /// Whether the benchmark generated it (size class known, interpreter
    /// oracle applicable).
    generated: bool,
    target: Target,
}

/// What a flow produced, reduced to what the checks compare.
#[derive(Debug)]
struct Produced {
    /// Printed loop (or dfg) IR, then the printed system IR if any.
    texts: Vec<String>,
    cycles: u64,
    findings: usize,
}

/// Exact per-item facts, gathered by the traced flow.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    ops_lowered: usize,
    ops_canonical: usize,
    points: usize,
    pruned: usize,
    nodes: usize,
    findings: usize,
}

/// The `compile_corpus` workload.
pub struct CompileCorpus {
    basecamp: Basecamp,
    items: Vec<Item>,
    /// Digest of each item's warm-up output.
    expected: Vec<(u64, u64)>,
    seed: u64,
    digest: Digest,
    facts: Vec<Facts>,
}

impl Produced {
    /// What a later pass must reproduce: the printed IR and the lint
    /// findings (digested), and the cycles.
    fn signature(&self) -> (u64, u64) {
        let mut d = Digest::default();
        for text in &self.texts {
            d.str(text);
        }
        d.u64(self.findings as u64);
        (d.0, self.cycles)
    }
}

fn options(target: Target) -> CompileOptions {
    CompileOptions {
        target,
        explore: true,
        ..CompileOptions::default()
    }
}

fn corpus(seed: u64, quick: bool) -> Vec<Item> {
    let mut rng = Rng::new(seed, 0xC0DE);
    let mut items = Vec::new();
    for (statements, count) in CLASSES {
        let count = if quick { (count / 10).max(1) } else { count };
        for n in 0..count {
            let name = format!("gen_s{statements}_{n}");
            items.push(Item {
                source: ekl_kernel(&mut rng, &name, statements),
                name,
                flavor: Flavor::Ekl,
                statements,
                generated: true,
                target: Target::AlveoU55c,
            });
        }
    }
    rng.shuffle(&mut items);

    let dims = [
        RrtmgDims {
            nlay: 8,
            ngpt: 4,
            ntemp: 5,
            npres: 10,
            neta: 4,
            nflav: 2,
        },
        RrtmgDims {
            nlay: 16,
            ngpt: 8,
            ntemp: 5,
            npres: 10,
            neta: 4,
            nflav: 2,
        },
        RrtmgDims {
            nlay: 32,
            ngpt: 16,
            ntemp: 5,
            npres: 10,
            neta: 4,
            nflav: 2,
        },
    ];
    let targets = [Target::AlveoU55c, Target::AlveoU280, Target::CloudFpga];
    let (dims, targets) = if quick {
        (&dims[..1], &targets[..1])
    } else {
        (&dims[..], &targets[..])
    };
    for (d, dim) in dims.iter().enumerate() {
        for (t, target) in targets.iter().enumerate() {
            items.push(Item {
                name: format!("rrtmg_d{d}_t{t}"),
                flavor: Flavor::Ekl,
                source: major_absorber_source(*dim),
                statements: 3,
                generated: false,
                target: *target,
            });
        }
    }
    for (name, source) in CFDLANG {
        items.push(Item {
            name: name.to_string(),
            flavor: Flavor::Cfdlang,
            source: source.to_string(),
            statements: 1,
            generated: false,
            target: Target::AlveoU55c,
        });
    }
    items.push(Item {
        name: "condrust_map_match".to_string(),
        flavor: Flavor::Condrust,
        source: everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH.to_string(),
        statements: 0,
        generated: false,
        target: Target::Cpu,
    });
    items
}

impl CompileCorpus {
    /// The flow as a user of the SDK calls it.
    fn flow(&self, item: &Item) -> Result<Produced, String> {
        let ctx = self.basecamp.context();
        match item.flavor {
            Flavor::Ekl | Flavor::Cfdlang => {
                let kernel = if item.flavor == Flavor::Ekl {
                    self.basecamp
                        .compile_kernel(&item.source, options(item.target))
                } else {
                    self.basecamp
                        .compile_cfdlang(&item.source, &item.name, options(item.target))
                }
                .map_err(|e| e.to_string())?;
                let mut canonical = kernel.module.clone();
                canonicalization_pipeline()
                    .run(ctx, &mut canonical)
                    .map_err(|e| e.to_string())?;
                let report = self.basecamp.analyze_kernel(&kernel);
                let mut texts = vec![Basecamp::print_ir(&kernel.module)];
                if let Some(system) = &kernel.system_ir {
                    texts.push(Basecamp::print_ir(system));
                }
                Ok(Produced {
                    texts,
                    cycles: kernel.hls.cycles,
                    findings: report.diagnostics.len(),
                })
            }
            Flavor::Condrust => {
                let program = self
                    .basecamp
                    .compile_coordination(&item.source)
                    .map_err(|e| e.to_string())?;
                let mut canonical = program.dfg_ir.clone();
                canonicalization_pipeline()
                    .run(ctx, &mut canonical)
                    .map_err(|e| e.to_string())?;
                let report = self.basecamp.analyze_coordination(&program);
                Ok(Produced {
                    texts: vec![Basecamp::print_ir(&program.dfg_ir)],
                    cycles: 0,
                    findings: report.diagnostics.len(),
                })
            }
        }
    }

    /// The same flow through the individual public stage functions, in
    /// the order `compile_kernel` and friends call them, a span around
    /// each.
    fn traced_flow(&self, item: &Item, tracer: &mut Tracer) -> Result<(Produced, Facts), String> {
        let ctx = self.basecamp.context();
        let s = |e: &dyn std::fmt::Display| e.to_string();
        let mut facts = Facts::default();
        if item.flavor == Flavor::Condrust {
            let (graph, dfg) = tracer.time("condrust.compile", || {
                let function = everest_condrust::parse_function(&item.source).map_err(|e| s(&e))?;
                let graph =
                    everest_condrust::DataflowGraph::from_function(&function).map_err(|e| s(&e))?;
                let dfg = everest_condrust::lower::lower_to_dfg(&graph).map_err(|e| s(&e))?;
                Ok::<_, String>((graph, dfg))
            })?;
            tracer
                .time("ir.verify", || verify_module(ctx, &dfg))
                .map_err(|e| s(&e))?;
            let mut canonical = dfg.clone();
            tracer
                .time("ir.canonicalize", || {
                    canonicalization_pipeline().run(ctx, &mut canonical)
                })
                .map_err(|e| s(&e))?;
            let report = tracer.time("analysis.run", || {
                let analyzer = Analyzer::with_default_lints();
                let mut report = analyzer.run(ctx, &dfg);
                report.merge(analyzer.run_graph(&graph));
                report.normalize();
                report
            });
            let texts = tracer.time("ir.print", || vec![print_module(&dfg)]);
            facts.nodes = graph.nodes.len();
            facts.ops_lowered = dfg.num_ops();
            facts.ops_canonical = canonical.num_ops();
            facts.findings = report.diagnostics.len();
            let produced = Produced {
                texts,
                cycles: 0,
                findings: report.diagnostics.len(),
            };
            return Ok((produced, facts));
        }

        let opts = options(item.target);
        let program = if item.flavor == Flavor::Ekl {
            let kernel = tracer
                .time("ekl.parse", || everest_ekl::parser::parse(&item.source))
                .map_err(|e| s(&e))?;
            tracer
                .time("ekl.check", || everest_ekl::check::check(&kernel))
                .map_err(|e| s(&e))?
        } else {
            tracer
                .time("ekl.cfdlang", || {
                    everest_ekl::cfdlang::compile(&item.source, &item.name)
                })
                .map_err(|e| s(&e))?
        };
        let module = tracer
            .time("ekl.lower", || everest_ekl::lower::lower_to_loops(&program))
            .map_err(|e| s(&e))?;
        tracer
            .time("ir.verify", || verify_module(ctx, &module))
            .map_err(|e| s(&e))?;
        let hls = tracer
            .time("hls.synthesize", || {
                everest_hls::synthesize(&module, &program.name, opts.hls)
            })
            .map_err(|e| s(&e))?;
        let device = item.target.device().ok_or("FPGA target expected")?;
        let exploration = tracer
            .time("olympus.explore", || {
                let spec = KernelSpec::from_report(hls.clone(), opts.read_fraction);
                everest_olympus::explore(&spec, &device, opts.batch_items)
            })
            .map_err(|e| s(&e))?;
        facts.points = exploration.points.len();
        facts.pruned = exploration.pruned;
        let architecture = exploration.best;
        tracer.time("olympus.makespan", || {
            everest_olympus::estimate_makespan(&architecture, &device, opts.batch_items)
        });
        let system = tracer.time("olympus.emit_ir", || {
            everest_olympus::emit_ir(&architecture)
        });
        tracer
            .time("ir.verify", || verify_module(ctx, &system))
            .map_err(|e| s(&e))?;
        let mut canonical = module.clone();
        tracer
            .time("ir.canonicalize", || {
                canonicalization_pipeline().run(ctx, &mut canonical)
            })
            .map_err(|e| s(&e))?;
        let report = tracer.time("analysis.run", || {
            let analyzer = Analyzer::with_default_lints();
            let mut report = analyzer.run(ctx, &module);
            report.merge(analyzer.run(ctx, &system));
            report.normalize();
            report
        });
        let texts = tracer.time("ir.print", || {
            vec![print_module(&module), print_module(&system)]
        });
        facts.ops_lowered = module.num_ops();
        facts.ops_canonical = canonical.num_ops();
        facts.findings = report.diagnostics.len();
        let produced = Produced {
            texts,
            cycles: hls.cycles,
            findings: report.diagnostics.len(),
        };
        Ok((produced, facts))
    }

    fn class_of(&self, op: usize) -> Option<usize> {
        let item = &self.items[op];
        item.generated.then_some(item.statements)
    }

    /// Lowered and canonicalized modules both compute what the EKL
    /// reference interpreter computes.
    fn interp_matches(&self, item: &Item, rng: &mut Rng) -> Result<(), String> {
        let ctx = self.basecamp.context();
        let kernel = everest_ekl::parser::parse(&item.source).map_err(|e| e.to_string())?;
        let program = everest_ekl::check::check(&kernel).map_err(|e| e.to_string())?;
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        for name in &program.inputs {
            let shape = program.tensors[name].shape.clone();
            let volume: u64 = shape.iter().product();
            let data = (0..volume).map(|_| rng.range(0.0, 1.0)).collect();
            inputs.insert(name.clone(), Tensor::from_data(&shape, data));
        }
        let reference =
            everest_ekl::interp::evaluate(&program, &inputs).map_err(|e| e.to_string())?;
        let output = &program.outputs[0];
        let want = &reference[output].data;

        let lowered = everest_ekl::lower::lower_to_loops(&program).map_err(|e| e.to_string())?;
        let mut canonical = lowered.clone();
        canonicalization_pipeline()
            .run(ctx, &mut canonical)
            .map_err(|e| e.to_string())?;
        for (label, module) in [("lowered", &lowered), ("canonicalized", &canonical)] {
            let mut interp = Interpreter::new();
            let mut args = Vec::new();
            for name in &program.inputs {
                let t = &inputs[name];
                args.push(interp.alloc_buffer(Buffer::from_data(&t.shape, t.data.clone())));
            }
            let out = interp.alloc_buffer(Buffer::zeros(&program.tensors[output].shape));
            args.push(out.clone());
            interp
                .run_function(module, &program.name, &args)
                .map_err(|e| format!("{label}: {e}"))?;
            let Value::Buffer(handle) = out else {
                return Err("output handle is a buffer".to_string());
            };
            let got = &interp.buffer(handle).data;
            let equal =
                got.len() == want.len() && got.iter().zip(want).all(|(g, w)| stats::close(*g, *w));
            if !equal {
                return Err(format!("{label} module differs from the EKL interpreter"));
            }
        }
        Ok(())
    }
}

impl Workload for CompileCorpus {
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> CompileCorpus {
        let items = steps.time(|| corpus(seed, quick));
        let mut digest = Digest::default();
        for item in &items {
            digest.str(&item.name);
            digest.str(&item.source);
        }
        let mut workload = CompileCorpus {
            basecamp: Basecamp::new(),
            facts: vec![Facts::default(); items.len()],
            items,
            expected: Vec::new(),
            seed,
            digest,
        };
        // Warm-up pass: its outputs are what every later pass must equal.
        workload.expected = workload
            .items
            .iter()
            .map(|item| match steps.time(|| workload.flow(item)) {
                Ok(p) => p.signature(),
                Err(_) => (0, u64::MAX),
            })
            .collect();
        workload
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn verify(&mut self) -> Oracle {
        let mut oracle = Oracle::default();
        let mut rng = Rng::new(self.seed, 0x1A7E);
        for (item, expected) in self.items.iter().zip(&self.expected) {
            // Two compiles print identical IR and cycles.
            let again = self.flow(item);
            oracle.check(
                matches!(&again, Ok(p) if p.signature() == *expected),
                || {
                    format!(
                        "{}: second compile differs ({:?})",
                        item.name,
                        again.as_ref().err()
                    )
                },
            );
            // print(parse(print(m))) == print(m), for every module printed.
            for text in again.iter().flat_map(|p| &p.texts) {
                let round_trip = everest_ir::parse::parse_module(text).map(|m| print_module(&m));
                oracle.check(matches!(&round_trip, Ok(back) if back == text), || {
                    format!("{}: printed IR does not round-trip", item.name)
                });
            }
            if item.generated && item.statements <= INTERP_MAX_STATEMENTS {
                let outcome = self.interp_matches(item, &mut rng);
                oracle.check(outcome.is_ok(), || {
                    format!("{}: {}", item.name, outcome.unwrap_err())
                });
            }
        }
        oracle
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for (item, expected) in self.items.iter().zip(&self.expected) {
            let produced = pass.time(|| self.flow(item));
            let same = matches!(&produced, Ok(p) if p.signature() == *expected);
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
        let mut facts = Vec::with_capacity(self.items.len());
        let mut round_trips = Vec::new();
        for (op, (item, expected)) in self.items.iter().zip(&self.expected).enumerate() {
            tracer.at(round, op);
            let produced = pass.time(|| self.traced_flow(item, tracer));
            // The decomposition is the same work: same IR, same cycles.
            let same = matches!(&produced, Ok((p, _)) if p.signature() == *expected);
            pass.failed += u64::from(!same);
            pass.work += 1;
            match produced {
                Ok((produced, fact)) => {
                    facts.push(fact);
                    round_trips.extend(produced.texts);
                }
                Err(_) => facts.push(Facts::default()),
            }
        }
        // Traced run only, outside the flow: parsing the printed IR back.
        tracer.at(round, self.items.len());
        for text in &round_trips {
            let _ = tracer.time("ir.parse", || everest_ir::parse::parse_module(text));
        }
        self.facts = facts;

        let self_s = tracer.self_seconds(round);
        let mut staged = 0.0;
        for (span, metric) in STAGES {
            let seconds = self_s.get(span).copied().unwrap_or(0.0);
            layers.sample(metric, seconds);
            if *span != "ir.parse" {
                staged += seconds;
            }
        }
        layers.sample(
            "compile.unattributed_share",
            stats::unattributed_share(staged, plain.seconds()),
        );
        pass
    }

    fn finish(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let sum = |f: fn(&Facts) -> usize| self.facts.iter().map(f).sum::<usize>() as f64;
        let lowered = sum(|f| f.ops_lowered);
        let canonical = sum(|f| f.ops_canonical);
        layers.set("ir.ops_lowered", lowered);
        layers.set("ir.ops_canonical", canonical);
        if lowered > 0.0 {
            layers.set("ir.canonicalize_shrink_share", 1.0 - canonical / lowered);
            layers.set(
                "hls.ns_per_op",
                layers.value("hls.synthesize_s") * 1e9 / lowered,
            );
            layers.set(
                "analysis.ns_per_op",
                layers.value("analysis.run_s") * 1e9 / lowered,
            );
        }
        layers.set("olympus.points_evaluated", sum(|f| f.points));
        layers.set("olympus.points_pruned", sum(|f| f.pruned));
        layers.set("condrust.nodes", sum(|f| f.nodes));
        layers.set(
            "ekl.source_bytes",
            self.items.iter().map(|i| i.source.len()).sum::<usize>() as f64,
        );
        layers.set(
            "ekl.statements",
            self.items.iter().map(|i| i.statements).sum::<usize>() as f64,
        );
        let cycles: u64 = self.expected.iter().map(|(_, c)| *c).sum();
        layers.set("hls.cycles", cycles as f64);
        layers.set("virtual.cycles", cycles as f64);
        layers.set("analysis.findings", sum(|f| f.findings));

        // Scaling exponents: median stage time and median op count of
        // the 64- and 256-statement generated kernels.
        let (small, large) = SCALING_CLASSES;
        for (span, metric) in [
            ("ir.canonicalize", "ir.canonicalize_scaling"),
            ("hls.synthesize", "hls.synthesize_scaling"),
            ("analysis.run", "analysis.run_scaling"),
        ] {
            let point = |class: usize| {
                let times: Vec<f64> = tracer
                    .spans()
                    .iter()
                    .filter(|s| {
                        s.name == span
                            && (s.op as usize) < self.items.len()
                            && self.class_of(s.op as usize) == Some(class)
                    })
                    .map(|s| (s.end_ns - s.start_ns) as f64)
                    .collect();
                let ops: Vec<f64> = (0..self.items.len())
                    .filter(|&op| self.class_of(op) == Some(class))
                    .map(|op| self.facts[op].ops_lowered as f64)
                    .collect();
                (stats::median(&ops), stats::median(&times))
            };
            layers.set(metric, stats::scaling_exponent(point(small), point(large)));
        }
    }
}

/// Span name → the per-layer metric its self time feeds.
const STAGES: &[(&str, &str)] = &[
    ("ekl.parse", "ekl.parse_s"),
    ("ekl.check", "ekl.check_s"),
    ("ekl.lower", "ekl.lower_s"),
    ("ekl.cfdlang", "ekl.cfdlang_s"),
    ("condrust.compile", "condrust.compile_s"),
    ("ir.verify", "ir.verify_s"),
    ("ir.canonicalize", "ir.canonicalize_s"),
    ("ir.print", "ir.print_s"),
    ("ir.parse", "ir.parse_s"),
    ("hls.synthesize", "hls.synthesize_s"),
    ("olympus.explore", "olympus.explore_s"),
    ("olympus.makespan", "olympus.makespan_s"),
    ("olympus.emit_ir", "olympus.emit_ir_s"),
    ("analysis.run", "analysis.run_s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let digest = |seed| CompileCorpus::setup(seed, true, &mut Pass::default()).digest();
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }

    #[test]
    fn quick_corpus_passes_its_oracles() {
        let mut workload = CompileCorpus::setup(42, true, &mut Pass::default());
        let oracle = workload.verify();
        assert!(oracle.attempted > 0);
        assert!(oracle.failures.is_empty(), "{:?}", oracle.failures);
        assert_eq!(workload.pass().failed, 0);
    }
}
