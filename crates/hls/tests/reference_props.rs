//! `synthesize` against the hash-map implementation it replaced
//! (`tests/reference/`): the same `HlsReport` — cycles, time, area,
//! units, loops, bytes — for generated kernels under random options.

mod reference;

use std::fmt::Write as _;

use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_hls::engine::{synthesize, HlsOptions};
use everest_hls::resources::NumericFormat;
use everest_ir::dialects::core;
use everest_ir::module::{single_result, Module};
use everest_ir::types::{FixedFormat, MemorySpace, PositFormat, Type};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// An EKL kernel of `statements` lets: elementwise, `select`, `sum`
/// over a row, a two-level loop nest, and a nested reduction to a
/// scalar that later statements read back.
fn ekl_kernel(rng: &mut Rng, statements: usize) -> String {
    let rows = rng.pick(&[4u64, 8, 16]);
    let cols = rng.pick(&[2u64, 4]);
    let mut src = format!(
        "kernel k {{\n  index i : 0..{rows}\n  index j : 0..{cols}\n  \
         input a : [i]\n  input b : [i]\n  input m : [i, j]\n"
    );
    // `vectors` names the `[i]` tensors defined so far.
    let mut vectors = vec!["a".to_string(), "b".to_string()];
    let mut scalars: Vec<String> = Vec::new();
    let mut matrices = vec!["m".to_string()];
    for k in 0..statements {
        let prev = vectors.last().expect("inputs").clone();
        let other = vectors[rng.below(vectors.len())].clone();
        let matrix = matrices[rng.below(matrices.len())].clone();
        let scale = match scalars.last() {
            Some(scalar) if rng.below(2) == 0 => format!("{scalar} * "),
            _ => String::new(),
        };
        let c = 0.125 * (1 + rng.below(7)) as f64;
        match rng.below(6) {
            0 | 1 => {
                let op = rng.pick(&["+", "-", "*"]);
                let _ = writeln!(
                    src,
                    "  let s{k}[i] = {scale}{c} * {prev}[i] {op} {other}[i]"
                );
                vectors.push(format!("s{k}"));
            }
            2 => {
                let _ = writeln!(
                    src,
                    "  let s{k}[i] = select({prev}[i] <= {c}, {other}[i], {c} * {prev}[i])"
                );
                vectors.push(format!("s{k}"));
            }
            3 => {
                let _ = writeln!(
                    src,
                    "  let s{k}[i] = sum(j)({c} * {matrix}[i, j] * {prev}[i]) + {other}[i]"
                );
                vectors.push(format!("s{k}"));
            }
            4 => {
                let _ = writeln!(
                    src,
                    "  let s{k}[i, j] = {matrix}[i, j] * {prev}[i] + {c} * {other}[i]"
                );
                matrices.push(format!("s{k}"));
            }
            _ => {
                let _ = writeln!(
                    src,
                    "  let s{k} = sum(i)(sum(j)({matrix}[i, j] * {prev}[i]))"
                );
                scalars.push(format!("s{k}"));
            }
        }
    }
    // The output reads the last of each shape, so none of them is dead.
    let (vector, matrix) = (vectors.last().expect("inputs"), matrices.last().expect("m"));
    let scalar = scalars.last().map_or("0.5", String::as_str);
    let _ = writeln!(
        src,
        "  let out[i] = {scalar} * {vector}[i] + sum(j)({matrix}[i, j])\n  output out\n}}"
    );
    src
}

/// A hand-built function the EKL lowering would not emit: stores and
/// loads at the top level around loops, copies whose source and
/// destination were just written, an `scf.if` inside a loop body, a
/// buffer loaded and stored in one body (a recurrence).
fn ir_kernel(rng: &mut Rng) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let ty = Type::memref(&[16], Type::F64, MemorySpace::Device);
    let (_f, entry) = core::build_func(&mut m, top, "k", &[ty.clone(), ty.clone()], &[]);
    let args = m.block(entry).args.clone();
    let scratch = core::alloc(
        &mut m,
        entry,
        Type::memref(&[16], Type::F64, MemorySpace::Plm),
    );
    let buffers = [args[0], args[1], scratch];
    let zero = core::const_index(&mut m, entry, 0);
    let one = core::const_index(&mut m, entry, 1);
    let bound = core::const_index(&mut m, entry, 16);
    let half = core::const_f64(&mut m, entry, 0.5);
    for _ in 0..2 + rng.below(5) {
        match rng.below(4) {
            0 => {
                let buf = rng.pick(&buffers);
                m.build_op("memref.store", [half, buf, zero], [])
                    .append_to(entry);
            }
            1 => {
                let buf = rng.pick(&buffers);
                m.build_op("memref.load", [buf, one], [Type::F64])
                    .append_to(entry);
            }
            2 => {
                let (src, dst) = (rng.pick(&buffers), rng.pick(&buffers));
                m.build_op("memref.copy", [src, dst], []).append_to(entry);
            }
            _ => {
                let (_loop, body) = core::build_for(&mut m, entry, zero, bound, one);
                let iv = m.block(body).args[0];
                for _ in 0..1 + rng.below(3) {
                    let (from, to) = (rng.pick(&buffers), rng.pick(&buffers));
                    let load = m
                        .build_op("memref.load", [from, iv], [Type::F64])
                        .append_to(body);
                    let loaded = single_result(&m, load);
                    let name = rng.pick(&["arith.mulf", "arith.addf", "arith.divf"]);
                    let value = core::binary(&mut m, body, name, loaded, half);
                    if rng.below(3) == 0 {
                        let cond = m
                            .build_op("arith.cmpf", [value, half], [Type::Int(1)])
                            .attr("predicate", "olt")
                            .append_to(body);
                        let cond = single_result(&m, cond);
                        let branch = m.build_op("scf.if", [cond], []).regions(1).append_to(body);
                        let region = m.op(branch).expect("just built").regions[0];
                        let then = m.add_block(region, &[]);
                        m.build_op("memref.store", [value, to, iv], [])
                            .append_to(then);
                        m.build_op("scf.yield", [], []).append_to(then);
                    } else {
                        m.build_op("memref.store", [value, to, iv], [])
                            .append_to(body);
                    }
                }
                m.build_op("scf.yield", [], []).append_to(body);
            }
        }
    }
    m.build_op("func.return", [], []).append_to(entry);
    m
}

fn options(rng: &mut Rng) -> HlsOptions {
    HlsOptions {
        format: rng.pick(&[
            NumericFormat::F64,
            NumericFormat::F32,
            NumericFormat::Fixed(FixedFormat::signed(15, 16)),
            NumericFormat::Posit(PositFormat::new(16, 1)),
        ]),
        pipeline: rng.below(4) != 0,
        unroll: rng.pick(&[1, 1, 2, 4]),
        partition: rng.pick(&[1, 2, 4]),
        dsp_limit: rng.pick(&[None, None, Some(1), Some(2)]),
        licm: rng.below(4) == 0,
        ..HlsOptions::default()
    }
}

#[test]
fn synthesize_matches_the_hash_map_reference() {
    let mut rng = Rng(0x5EED_0023);
    let mut loops = 0;
    let mut copies = 0;
    for case in 0..288 {
        let (module, source) = if case % 9 == 8 {
            (ir_kernel(&mut rng), "hand-built IR".to_string())
        } else {
            let statements = 1 + rng.below(12);
            let source = ekl_kernel(&mut rng, statements);
            let program = check(&parse(&source).expect("parses")).expect("checks");
            (lower_to_loops(&program).expect("lowers"), source)
        };
        copies += module
            .live_ops()
            .filter(|(_, op)| op.name == "memref.copy")
            .count();
        for _ in 0..2 {
            let options = options(&mut rng);
            // Unrolling refuses a body with an `scf.if`: then both refuse.
            let got = synthesize(&module, "k", options);
            let want = reference::engine::synthesize(&module, "k", options);
            assert_eq!(got, want, "case {case} under {options:?}:\n{source}");
            if let (Ok(got), Ok(want)) = (got, want) {
                assert_eq!(got.to_text(), want.to_text());
                loops += got.loops.len();
            }
        }
    }
    assert!(loops > 2_000, "the kernels have loops to pipeline: {loops}");
    assert!(copies > 100, "and copies to order: {copies}");
}
