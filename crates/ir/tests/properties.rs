//! Property-based tests over the IR core: printer/parser round-trips,
//! canonicalization idempotence, the linear-time passes against their
//! naive per-item references, the direct-write printer against the
//! `core::fmt` printer it replaced (`reference/print.rs`), the one-pass
//! parser against the parser it replaced (`reference/parse.rs`) and
//! base2 numeric invariants.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use everest_ir::attr::{AttrKey, AttrMap, Attribute};
use everest_ir::base2::{Fixed, Posit};
use everest_ir::dialects::core;
use everest_ir::module::{single_result, Module};
use everest_ir::pass::{
    canonicalization_pipeline, ConstantFolding, Cse, Dce, LoopInvariantCodeMotion, Pass,
    PassManager, PassStats,
};
use everest_ir::print::print_module;
use everest_ir::registry::{Context, OpTrait};
use everest_ir::types::{FixedFormat, PositFormat, Type};
use everest_ir::verify::verify_module;
use everest_ir::{BlockId, IrError, IrResult, MemorySpace, OpId, ValueId, ValueList};

#[path = "reference/print.rs"]
mod reference;

#[path = "reference/parse.rs"]
mod reference_parse;

/// Builds a random but well-formed module: a DAG of float arithmetic over
/// a pool of constants and buffer loads, with stores keeping part of it
/// alive.
///
/// `kind % 5` picks the op; `kind / 5 % 5` picks its shape: a single op,
/// the same op twice (a duplicate for CSE), a commutative-style pair with
/// swapped operands, a load (a leaf folding cannot remove), or a step
/// into a new `scf.for` body nested in the current block (out again once
/// two deep). Loop bodies read values of the enclosing blocks, so a
/// value CSE merges or folding replaces is also used from a *different*
/// block than the one it was merged in.
fn random_module(consts: &[f64], ops: &[(u8, usize, usize)], keep: usize) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let buf = core::alloc(
        &mut m,
        top,
        Type::memref(&[4], Type::F64, everest_ir::MemorySpace::Host),
    );
    let mut values: Vec<ValueId> = consts
        .iter()
        .map(|&c| core::const_f64(&mut m, top, c))
        .collect();
    // Open loop bodies, innermost last, each with the number of values
    // that were in scope when it was entered.
    let mut open: Vec<(BlockId, usize)> = Vec::new();
    // Leaves every open loop: each body stores the last value in scope
    // (keeping part of the body alive) and loses the values it defined.
    fn close(
        m: &mut Module,
        open: &mut Vec<(BlockId, usize)>,
        values: &mut Vec<ValueId>,
        buf: ValueId,
    ) {
        while let Some((body, outer_values)) = open.pop() {
            let last = *values.last().expect("at least one constant");
            let slot = core::const_index(m, body, open.len() as i64);
            m.build_op("memref.store", [last, buf, slot], [])
                .append_to(body);
            m.build_op("scf.yield", [], []).append_to(body);
            values.truncate(outer_values);
        }
    }
    for &(kind, a, b) in ops {
        let block = open.last().map_or(top, |&(body, _)| body);
        let lhs = values[a % values.len()];
        let rhs = values[b % values.len()];
        let name = match kind % 5 {
            0 => "arith.addf",
            1 => "arith.subf",
            2 => "arith.mulf",
            3 => "arith.maxf",
            _ => "arith.minf",
        };
        match kind / 5 % 5 {
            0 => values.push(core::binary(&mut m, block, name, lhs, rhs)),
            1 => {
                values.push(core::binary(&mut m, block, name, lhs, rhs));
                values.push(core::binary(&mut m, block, name, lhs, rhs));
            }
            2 => {
                values.push(core::binary(&mut m, block, name, lhs, rhs));
                values.push(core::binary(&mut m, block, name, rhs, lhs));
            }
            3 => {
                let slot = core::const_index(&mut m, block, (a % 4) as i64);
                let load = m
                    .build_op("memref.load", [buf, slot], [Type::F64])
                    .append_to(block);
                values.push(single_result(&m, load));
            }
            _ if open.len() == 2 => close(&mut m, &mut open, &mut values, buf),
            _ => {
                let lb = core::const_index(&mut m, block, 0);
                let ub = core::const_index(&mut m, block, 4);
                let step = core::const_index(&mut m, block, 1);
                let (_loop, body) = core::build_for(&mut m, block, lb, ub, step);
                open.push((body, values.len()));
            }
        }
    }
    close(&mut m, &mut open, &mut values, buf);
    // Keep one value alive through an impure store.
    let kept = values[keep % values.len()];
    let slot = core::const_index(&mut m, top, 3);
    m.build_op("memref.store", [kept, buf, slot], [])
        .append_to(top);
    m
}

/// Attribute payloads a careless CSE key conflates: zeros of both signs,
/// two NaNs, "one" spelt five ways, and containers differing only in
/// such an element.
fn colliding_payloads() -> Vec<Attribute> {
    let dict = |v: Attribute| Attribute::Dict([("x".to_string(), v)].into_iter().collect());
    vec![
        Attribute::Float(0.0),
        Attribute::Float(-0.0),
        Attribute::Float(f64::from_bits(0x7ff8_0000_0000_0000)),
        Attribute::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Attribute::Int(1),
        Attribute::Float(1.0),
        Attribute::Str("1".into()),
        Attribute::SymbolRef("1".into()),
        Attribute::Bool(true),
        Attribute::Array(vec![Attribute::Int(1)]),
        Attribute::Array(vec![Attribute::Float(1.0)]),
        Attribute::DenseF64(vec![0.0]),
        Attribute::DenseF64(vec![-0.0]),
        Attribute::DenseI64(vec![1]),
        Attribute::from(Type::F64),
        Attribute::from(Type::F32),
        dict(Attribute::Int(1)),
        dict(Attribute::Float(1.0)),
    ]
}

/// Appends to the top block of a [`random_module`] pure ops that a
/// careless CSE would merge or keep apart wrongly — constants carrying
/// the [`colliding_payloads`], the same payload under different
/// attribute names, `arith.cmpf` under different predicates, binary ops
/// with their operands swapped — and a store of every float constant
/// among them, so dead-code elimination leaves the survivors in the
/// print. An integer payload makes a pair of constants that differ only
/// in result type, `index` first and `f64` second: merged, the `f64`
/// one's store would write an index (the generator's own slot constants
/// are `index` as well) and the module would stop verifying.
fn add_colliding_ops(m: &mut Module, consts: usize, picks: &[(u8, u8)]) {
    let top = m.top_block();
    // `random_module` starts with its buffer, then its constants.
    let start = m.block(top).ops[..=consts].to_vec();
    let buf = single_result(m, start[0]);
    let x = single_result(m, start[1]);
    let y = single_result(m, start[1 + picks.len() % consts]);
    let payloads = colliding_payloads();
    for &(kind, pick) in picks {
        let payload = payloads[pick as usize % payloads.len()].clone();
        let op = match kind % 4 {
            0 => {
                if let Attribute::Int(_) = payload {
                    m.build_op("arith.constant", [], [Type::Index])
                        .attr("value", payload.clone())
                        .append_to(top);
                }
                m.build_op("arith.constant", [], [Type::F64])
                    .attr("value", payload)
            }
            1 => m
                .build_op("arith.constant", [], [Type::F64])
                .attr("value", 1.0)
                .attr(["tag", "label", "value2"][kind as usize / 4 % 3], payload),
            2 => {
                let (a, b) = if pick % 2 == 0 { (x, y) } else { (y, x) };
                m.build_op("arith.cmpf", [a, b], [Type::bool()])
                    .attr("predicate", ["olt", "ole", "oeq"][kind as usize / 4 % 3])
            }
            _ => {
                let (a, b) = if pick % 2 == 0 { (x, y) } else { (y, x) };
                let name = ["arith.addf", "arith.subf", "arith.maxf"][kind as usize / 4 % 3];
                m.build_op(name, [a, b], [Type::F64])
            }
        };
        let op = op.append_to(top);
        let value = single_result(m, op);
        if kind % 4 < 2 {
            let slot = core::const_index(m, top, 0);
            m.build_op("memref.store", [value, buf, slot], [])
                .append_to(top);
        }
    }
}

/// Today's passes replaced one scan of the module *per item* (per
/// folded op, per merged duplicate, per dead op) with one sweep per
/// pass. These are the per-item algorithms they replaced, kept as the
/// reference the new ones must match byte for byte.
mod naive {
    use super::*;

    pub(crate) fn constant_folding(_ctx: &Context, m: &mut Module) -> PassStats {
        fn constant_of(m: &Module, v: ValueId) -> Option<f64> {
            let everest_ir::module::ValueDef::OpResult { op, .. } = m.value(v).def else {
                return None;
            };
            let op = m.op(op)?;
            if op.name != "arith.constant" {
                return None;
            }
            op.attr("value")?.as_float()
        }
        let mut stats = PassStats::default();
        loop {
            let mut changed = false;
            for op in m.walk_ops() {
                let Some(operation) = m.op(op) else { continue };
                let &[a, b] = operation.operands.as_slice() else {
                    continue;
                };
                let (Some(a), Some(b)) = (constant_of(m, a), constant_of(m, b)) else {
                    continue;
                };
                let value = match operation.name.as_str() {
                    "arith.addf" => a + b,
                    "arith.subf" => a - b,
                    "arith.mulf" => a * b,
                    "arith.maxf" => a.max(b),
                    "arith.minf" => a.min(b),
                    _ => continue,
                };
                let result = operation.results[0];
                let ty = m.value_type(result).clone();
                let constant = m
                    .build_op("arith.constant", [], [ty])
                    .attr("value", Attribute::Float(value))
                    .detached();
                m.insert_op_before(op, constant);
                let new_value = single_result(m, constant);
                m.replace_all_uses(result, new_value);
                m.erase_op(op).expect("live op");
                stats.ops_rewritten += 1;
                changed = true;
            }
            if !changed {
                return stats;
            }
        }
    }

    pub(crate) fn cse(ctx: &Context, m: &mut Module) -> PassStats {
        type Key = (String, Vec<ValueId>, Vec<(String, AttrKey)>, Vec<Type>);
        let mut stats = PassStats::default();
        for block in (0..m.num_blocks() as u32).map(BlockId::from_raw) {
            let mut seen: HashMap<Key, Vec<ValueId>> = HashMap::new();
            for op in m.block(block).ops.clone() {
                let Some(operation) = m.op(op) else { continue };
                let name = operation.name;
                if !ctx.reads_only(name) || !operation.regions.is_empty() {
                    // An op that may write a buffer ends the loads of it
                    // kept so far; one with regions ends them all.
                    let all = !operation.regions.is_empty();
                    let written = operation.operands.to_vec();
                    seen.retain(|(kept, operands, ..), _| {
                        kept != "memref.load"
                            || !(all || operands.first().is_some_and(|b| written.contains(b)))
                    });
                    continue;
                }
                let mut operands = operation.operands.to_vec();
                if ctx.has_trait(name, OpTrait::Commutative) {
                    operands.sort();
                }
                let attrs = operation
                    .attributes
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.structural_key()))
                    .collect();
                let results = operation.results.to_vec();
                let types = results.iter().map(|&r| m.value_type(r).clone()).collect();
                let key = (name.to_string(), operands, attrs, types);
                if let Some(kept) = seen.get(&key).cloned() {
                    for (from, to) in results.iter().zip(kept) {
                        m.replace_all_uses(*from, to);
                    }
                    m.erase_op(op).expect("live op");
                    stats.ops_erased += 1;
                } else {
                    seen.insert(key, results);
                }
            }
        }
        stats
    }

    pub(crate) fn dce(ctx: &Context, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        loop {
            let before = stats.ops_erased;
            for op in m.walk_ops().into_iter().rev() {
                let Some(operation) = m.op(op) else { continue };
                let dead = ctx.reads_only(operation.name)
                    && operation.regions.is_empty()
                    && operation.results.iter().all(|&r| m.is_unused(r));
                if dead {
                    m.erase_op(op).expect("live op");
                    stats.ops_erased += 1;
                }
            }
            if stats.ops_erased == before {
                return stats;
            }
        }
    }
}

/// Builds `func @k(%buf: memref<8xf64>)`: a random DAG of float
/// arithmetic over constants and loads from the argument buffer, with a
/// random set of stores writing results back into it. Every observable
/// effect of the function is therefore the final buffer contents.
fn random_function(
    consts: &[f64],
    ops: &[(u8, usize, usize)],
    stores: &[(usize, usize)],
) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let buf_ty = Type::memref(&[8], Type::F64, everest_ir::MemorySpace::Host);
    let (_f, body) = core::build_func(&mut m, top, "k", &[buf_ty], &[]);
    let buf = m.block(body).args[0];
    let mut values: Vec<ValueId> = consts
        .iter()
        .map(|&c| core::const_f64(&mut m, body, c))
        .collect();
    // Seed the pool with loads so the DAG depends on runtime input.
    for slot in 0..2 {
        let i = core::const_index(&mut m, body, slot);
        let load = m
            .build_op("memref.load", [buf, i], [Type::F64])
            .append_to(body);
        values.push(single_result(&m, load));
    }
    for &(kind, a, b) in ops {
        let lhs = values[a % values.len()];
        let rhs = values[b % values.len()];
        let name = match kind % 5 {
            0 => "arith.addf",
            1 => "arith.subf",
            2 => "arith.mulf",
            3 => "arith.maxf",
            _ => "arith.minf",
        };
        values.push(core::binary(&mut m, body, name, lhs, rhs));
    }
    for &(v, slot) in stores {
        let val = values[v % values.len()];
        let i = core::const_index(&mut m, body, (slot % 8) as i64);
        m.build_op("memref.store", [val, buf, i], [])
            .append_to(body);
    }
    m.build_op("func.return", [], []).append_to(body);
    m
}

/// Runs `@k` on a fresh interpreter over `data`, returning the buffer
/// contents after the call.
fn run_k(module: &Module, data: &[f64]) -> Vec<f64> {
    use everest_ir::interp::{Buffer, Interpreter, Value};
    let mut interp = Interpreter::new();
    let arg = interp.alloc_buffer(Buffer::from_data(&[8], data.to_vec()));
    let Value::Buffer(handle) = arg else {
        unreachable!("alloc_buffer returns a buffer handle");
    };
    interp
        .run_function(module, "k", std::slice::from_ref(&arg))
        .expect("generated function interprets cleanly");
    interp.buffer(handle).data.clone()
}

/// Builds `func @k` over `buffers` (two or three) `memref<4xf64>`
/// arguments: straight-line code and `scf.for` nests, up to two deep and
/// one to three trips each, that load, compute and store over the shared
/// buffers. Stores feed later loads (read after write), loads precede
/// stores to their cell (write after read), and a loop reads the cells
/// its earlier iterations stored (loop-carried).
///
/// Each step `(kind, a, b, c)` picks by `kind % 8`: a load (0, 1) or a
/// store of value `c` (2, 3) at buffer `a`, index `b` — one of three
/// constants made once at entry, or an enclosing induction variable —
/// an arithmetic op on values `b` and `c` (4), a constant (5), a loop
/// entered (6) or left (7).
fn random_loop_function(buffers: usize, program: &[(u8, usize, usize, usize)]) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let buf_ty = Type::memref(&[4], Type::F64, MemorySpace::Host);
    let (_f, entry) = core::build_func(&mut m, top, "k", &vec![buf_ty; buffers], &[]);
    let args = m.block(entry).args.to_vec();
    let mut indices: Vec<ValueId> = (0..3)
        .map(|i| core::const_index(&mut m, entry, i))
        .collect();
    let mut values = vec![core::const_f64(&mut m, entry, 1.5)];
    // Open loop bodies, innermost last, with the values and indices in
    // scope when each was entered.
    let mut open: Vec<(BlockId, usize, usize)> = Vec::new();
    let mut block = entry;
    let close = |m: &mut Module, open: &mut Vec<(BlockId, usize, usize)>| {
        let (body, values, indices) = open.pop().expect("a loop is open");
        m.build_op("scf.yield", [], []).append_to(body);
        (values, indices)
    };
    for &(kind, a, b, c) in program {
        let buffer = args[a % buffers];
        let index = indices[b % indices.len()];
        let value = values[c % values.len()];
        match kind % 8 {
            0 | 1 => {
                let load = m
                    .build_op("memref.load", [buffer, index], [Type::F64])
                    .append_to(block);
                values.push(single_result(&m, load));
            }
            2 | 3 => {
                m.build_op("memref.store", [value, buffer, index], [])
                    .append_to(block);
            }
            4 => {
                let name = ["arith.addf", "arith.mulf", "arith.subf", "arith.maxf"][a % 4];
                let lhs = values[b % values.len()];
                values.push(core::binary(&mut m, block, name, lhs, value));
            }
            5 => values.push(core::const_f64(&mut m, block, (c % 5) as f64 - 2.0)),
            6 if open.len() < 2 => {
                let lb = core::const_index(&mut m, block, 0);
                let ub = core::const_index(&mut m, block, 1 + (a % 3) as i64);
                let step = core::const_index(&mut m, block, 1);
                let (_loop, body) = core::build_for(&mut m, block, lb, ub, step);
                open.push((body, values.len(), indices.len()));
                indices.push(m.block(body).args[0]);
                block = body;
            }
            7 if !open.is_empty() => {
                let (v, i) = close(&mut m, &mut open);
                values.truncate(v);
                indices.truncate(i);
                block = open.last().map_or(entry, |&(body, ..)| body);
            }
            _ => {}
        }
    }
    while !open.is_empty() {
        close(&mut m, &mut open);
    }
    m.build_op("func.return", [], []).append_to(entry);
    m
}

/// Runs `@k` over buffers filled from `data`, four values each; returns
/// every buffer's contents after the call, back to back.
fn run_on_buffers(module: &Module, buffers: usize, data: &[f64]) -> Vec<f64> {
    use everest_ir::interp::{Buffer, Interpreter, Value};
    let mut interp = Interpreter::new();
    let args: Vec<Value> = (data.chunks(4).take(buffers))
        .map(|cells| interp.alloc_buffer(Buffer::from_data(&[4], cells.to_vec())))
        .collect();
    interp
        .run_function(module, "k", &args)
        .expect("generated function interprets cleanly");
    let handle = |arg: &Value| match arg {
        Value::Buffer(handle) => *handle,
        _ => unreachable!("alloc_buffer returns a buffer handle"),
    };
    (args.iter())
        .flat_map(|arg| interp.buffer(handle(arg)).data.clone())
        .collect()
}

proptest! {
    #[test]
    fn print_parse_roundtrip_is_fixed_point(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..6),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
    ) {
        let m = random_module(&consts, &ops, keep);
        let text = print_module(&m);
        let parsed = everest_ir::parse::parse_module(&text).expect("printed IR must parse");
        prop_assert_eq!(print_module(&parsed), text);
    }

    #[test]
    fn random_modules_verify(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..6),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
    ) {
        let m = random_module(&consts, &ops, keep);
        let ctx = Context::with_all_dialects();
        prop_assert!(verify_module(&ctx, &m).is_ok());
    }

    #[test]
    fn canonicalization_is_idempotent(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..6),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
    ) {
        let ctx = Context::with_all_dialects();
        let mut m = random_module(&consts, &ops, keep);
        canonicalization_pipeline().run(&ctx, &mut m).expect("pipeline runs");
        let once = print_module(&m);
        canonicalization_pipeline().run(&ctx, &mut m).expect("pipeline runs twice");
        prop_assert_eq!(print_module(&m), once);
    }

    #[test]
    fn canonicalization_preserves_stored_constant(
        consts in proptest::collection::vec(-8.0f64..8.0, 1..5),
        ops in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..8),
        keep in any::<usize>(),
    ) {
        // With only add/sub/mul over constants, the stored value must fold
        // to a single constant equal to the reference evaluation.
        let mut reference: Vec<f64> = consts.clone();
        for &(kind, a, b) in &ops {
            let x = reference[a % reference.len()];
            let y = reference[b % reference.len()];
            reference.push(match kind % 5 {
                0 => x + y,
                1 => x - y,
                2 => x * y,
                3 => x.max(y),
                _ => x.min(y),
            });
        }
        let expected = reference[keep % reference.len()];

        let ctx = Context::with_all_dialects();
        let mut m = random_module(&consts, &ops, keep);
        canonicalization_pipeline().run(&ctx, &mut m).expect("pipeline runs");
        // Find the store; its operand must be a constant with the value.
        let store = m.find_op("memref.store").expect("store survives");
        let v = m.op(store).unwrap().operands[0];
        let everest_ir::module::ValueDef::OpResult { op, .. } = m.value(v).def else {
            panic!("stored value must be an op result");
        };
        let op = m.op(op).unwrap();
        prop_assert_eq!(op.name.as_str(), "arith.constant");
        let got = op.attr("value").unwrap().as_float().unwrap();
        prop_assert!((got - expected).abs() < 1e-9 || (got.is_nan() && expected.is_nan()));
    }

    #[test]
    fn fixed_quantization_error_bounded(v in -120.0f64..120.0) {
        let fmt = FixedFormat::signed(7, 8);
        let err = Fixed::quantization_error(v, fmt);
        prop_assert!(err <= fmt.resolution() / 2.0 + 1e-12,
            "error {err} exceeds half ulp for {v}");
    }

    #[test]
    fn fixed_addition_matches_real_within_ulp(a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let fmt = FixedFormat::signed(7, 8);
        let fa = Fixed::from_f64(a, fmt);
        let fb = Fixed::from_f64(b, fmt);
        let sum = fa.add(fb).to_f64();
        let real = fa.to_f64() + fb.to_f64();
        // In-range additions are exact in fixed point.
        prop_assert!((sum - real).abs() < 1e-12);
    }

    #[test]
    fn fixed_roundtrip_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let fmt = FixedFormat::signed(7, 8);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let qlo = Fixed::from_f64(lo, fmt).to_f64();
        let qhi = Fixed::from_f64(hi, fmt).to_f64();
        prop_assert!(qlo <= qhi, "quantization must be monotone");
    }

    #[test]
    fn posit_roundtrip_error_bounded_in_normal_range(v in 0.01f64..100.0) {
        let fmt = PositFormat::new(16, 1);
        let err = Posit::roundtrip_error(v, fmt);
        // posit<16,1> has >= 9 fraction bits in this range.
        prop_assert!(err < 4e-3, "posit16 error {err} too large for {v}");
    }

    #[test]
    fn posit_sign_symmetry(v in 0.001f64..1000.0) {
        let fmt = PositFormat::new(16, 1);
        let pos = Posit::from_f64(v, fmt).to_f64();
        let neg = Posit::from_f64(-v, fmt).to_f64();
        prop_assert_eq!(pos, -neg);
    }

    #[test]
    fn posit_decode_encode_is_identity_on_valid_bits(bits in 0u64..65536) {
        let fmt = PositFormat::new(16, 1);
        let p = Posit { raw: bits & 0xFFFF, format: fmt };
        if p.is_nar() {
            return Ok(());
        }
        let decoded = p.to_f64();
        let re = Posit::from_f64(decoded, fmt);
        prop_assert_eq!(re.raw, p.raw,
            "bits {:#06x} decoded to {} re-encoded to {:#06x}", p.raw, decoded, re.raw);
    }

    #[test]
    fn threaded_batch_is_byte_identical_to_sequential(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..5),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..10),
        keeps in proptest::collection::vec(any::<usize>(), 1..7),
        threads in 2usize..5,
    ) {
        // The replay-equality contract: running the pipeline over a batch
        // on N worker threads must produce byte-identical modules and
        // identical stats to the 1-thread run, for any batch size and
        // thread count (including threads > batch size).
        let ctx = Context::with_all_dialects();
        let mut sequential: Vec<Module> =
            keeps.iter().map(|&k| random_module(&consts, &ops, k)).collect();
        let mut threaded: Vec<Module> =
            keeps.iter().map(|&k| random_module(&consts, &ops, k)).collect();
        let pm = canonicalization_pipeline();
        let seq_stats = pm.run_batch(&ctx, &mut sequential).expect("sequential batch runs");
        let thr_stats = pm
            .run_batch_threaded(&ctx, &mut threaded, threads)
            .expect("threaded batch runs");
        prop_assert_eq!(seq_stats, thr_stats);
        for (a, b) in sequential.iter().zip(&threaded) {
            prop_assert_eq!(print_module(a), print_module(b));
        }
    }

    #[test]
    fn canonicalization_preserves_interpreter_semantics(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..5),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        stores in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..5),
        data in proptest::collection::vec(-100.0f64..100.0, 8..9),
    ) {
        let ctx = Context::with_all_dialects();
        let mut m = random_function(&consts, &ops, &stores);
        prop_assert!(verify_module(&ctx, &m).is_ok());
        let before = run_k(&m, &data);
        canonicalization_pipeline()
            .run(&ctx, &mut m)
            .expect("canonicalization of a verified module never fails");
        prop_assert!(verify_module(&ctx, &m).is_ok());
        let after = run_k(&m, &data);
        prop_assert_eq!(before.len(), after.len());
        for (i, (x, y)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                x == y || (x.is_nan() && y.is_nan()),
                "slot {i} diverged after canonicalization: {x} vs {y}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every rewrite keeps what the interpreter computes, bit for bit,
    /// on loop nests whose loads and stores meet in the same cells:
    /// each pass alone, then `licm` followed by the canonicalization
    /// pipeline.
    #[test]
    fn each_pass_keeps_loop_nests_over_shared_buffers_bit_exact(
        buffers in 2usize..4,
        program in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..32,
        ),
        data in proptest::collection::vec(-8.0f64..8.0, 12..13),
    ) {
        let ctx = Context::with_all_dialects();
        let m = random_loop_function(buffers, &program);
        prop_assert!(verify_module(&ctx, &m).is_ok());
        let want = run_on_buffers(&m, buffers, &data);
        let passes: [&dyn Pass; 4] = [&LoopInvariantCodeMotion, &Cse, &ConstantFolding, &Dce];
        let mut pipeline = m.clone();
        LoopInvariantCodeMotion.run(&ctx, &mut pipeline).expect("licm runs");
        canonicalization_pipeline()
            .run(&ctx, &mut pipeline)
            .expect("canonicalization of a verified module never fails");
        let alone = passes.iter().map(|pass| {
            let mut got = m.clone();
            pass.run(&ctx, &mut got).expect("a pass runs on a verified module");
            (pass.name(), got)
        });
        for (what, got) in alone.chain([("licm + canonicalization", pipeline)]) {
            prop_assert!(verify_module(&ctx, &got).is_ok(), "{} broke the module", what);
            let got = run_on_buffers(&got, buffers, &data);
            let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            prop_assert!(
                want.iter().zip(&got).all(same),
                "{} changed the buffers: {:?} -> {:?}\n{}",
                what,
                want,
                got,
                print_module(&m)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linear_passes_match_the_naive_per_item_rewrites(
        consts in proptest::collection::vec(-4.0f64..4.0, 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..32),
        keep in any::<usize>(),
        colliding in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..24),
    ) {
        type Reference = fn(&Context, &mut Module) -> PassStats;
        let ctx = Context::with_all_dialects();
        let mut fast = random_module(&consts, &ops, keep);
        add_colliding_ops(&mut fast, consts.len(), &colliding);
        let mut slow = fast.clone();
        // The shipped pipeline's order, pass by pass.
        for _round in 0..2 {
            let passes: [(&dyn Pass, Reference); 3] = [
                (&ConstantFolding, naive::constant_folding),
                (&Cse, naive::cse),
                (&Dce, naive::dce),
            ];
            for (pass, reference) in passes {
                let got = pass.run(&ctx, &mut fast).expect("pass runs on a verified module");
                let want = reference(&ctx, &mut slow);
                prop_assert_eq!(got, want, "stats of {} differ", pass.name());
                prop_assert_eq!(
                    print_module(&fast),
                    print_module(&slow),
                    "IR after {} differs",
                    pass.name()
                );
                let verified = verify_module(&ctx, &fast);
                prop_assert!(verified.is_ok(), "{:?} after {}", verified, pass.name());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AttrMap against the BTreeMap<String, Attribute> it replaced
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn attr_map_behaves_as_the_btree_map_it_replaced(
        steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<i64>()), 0..48),
    ) {
        // Not in byte order, and first used in whatever order the steps
        // draw them: the order names were interned in is not theirs.
        const NAMES: [&str; 12] = [
            "value", "sym_name", "a", "Z", "_x", "a.b", "a_b", "aa", "a0", "B", "value2", "",
        ];
        let mut map = AttrMap::new();
        let mut model: BTreeMap<String, Attribute> = BTreeMap::new();
        for (kind, name, payload) in steps {
            let name = NAMES[name as usize % NAMES.len()];
            match kind % 8 {
                0 => {
                    map.clear();
                    model.clear();
                }
                1 | 2 => {
                    prop_assert_eq!(map.get(name), model.get(name));
                    prop_assert_eq!(map.contains_key(name), model.contains_key(name));
                }
                _ => {
                    let value = match kind % 3 {
                        0 => Attribute::Int(payload),
                        1 => Attribute::Float(payload as f64),
                        _ => Attribute::Str(payload.to_string()),
                    };
                    let replaced = map.insert(name, value.clone());
                    prop_assert_eq!(replaced, model.insert(name.to_string(), value));
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            let listed: Vec<(&str, &Attribute)> = map.iter().collect();
            let expected: Vec<(&str, &Attribute)> =
                model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            prop_assert_eq!(listed, expected);
        }
    }
}

// ---------------------------------------------------------------------------
// ValueList against the Vec<ValueId> it replaced
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lengths wander across the four ids held in place, both ways:
    /// pushes and extends spill past them, truncates and clears come
    /// back under them with the spilled slice kept, `from_iter` and
    /// `clone` rebuild at the live length, and writes land through the
    /// slice either side of the boundary.
    #[test]
    fn value_list_behaves_as_the_vec_it_replaced(
        steps in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..64),
    ) {
        let mut list = ValueList::new();
        let mut model: Vec<ValueId> = Vec::new();
        for (kind, payload) in steps {
            let value = ValueId::from_raw(payload);
            let run = (0..payload % 7).map(|k| ValueId::from_raw(payload.wrapping_add(k)));
            match kind % 10 {
                0..=2 => {
                    list.push(value);
                    model.push(value);
                }
                3 => {
                    list.extend(run.clone());
                    model.extend(run);
                }
                4 => {
                    // A length the iterator does not tell up front.
                    let unsized_run = run.filter(|v| v.index() % 3 != 0);
                    list.extend(unsized_run.clone());
                    model.extend(unsized_run);
                }
                5 => {
                    let len = payload as usize % (model.len() + 2);
                    list.truncate(len);
                    model.truncate(len);
                }
                6 => {
                    list.clear();
                    model.clear();
                }
                7 => {
                    list = model.iter().copied().chain(run.clone()).collect();
                    model.extend(run);
                }
                8 => list = list.clone(),
                _ => {
                    if !model.is_empty() {
                        let at = payload as usize % model.len();
                        list[at] = ValueId::from_raw(!payload);
                        model[at] = ValueId::from_raw(!payload);
                    }
                }
            }
            prop_assert_eq!(list.as_slice(), model.as_slice());
            prop_assert!(list.capacity() >= list.len());
            prop_assert_eq!(list.clone(), model.clone());
            prop_assert_eq!(list.clone().into_iter().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(ValueList::from(model.clone()), model.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Ops past the four operands a ValueList holds in place
// ---------------------------------------------------------------------------

/// A function over a rank-3 buffer whose load and stores carry three
/// subscripts (four and five operands) and whose return carries six
/// values, then a dataflow graph whose node reads six channels and
/// writes five. Returns the module and the values the test forwards:
/// the function's second and third arguments, the three subscripts and
/// the six channels.
fn wide_module() -> (Module, Vec<ValueId>) {
    let mut m = Module::new();
    let top = m.top_block();
    let buf = Type::memref(&[2, 2, 2], Type::F64, everest_ir::MemorySpace::Plm);
    let mut inputs = vec![buf];
    inputs.extend(vec![Type::F64; 5]);
    let (_f, entry) = core::build_func(&mut m, top, "wide", &inputs, &vec![Type::F64; 6]);
    let args = m.block(entry).args.clone();
    let [i, j, k] = [0, 1, 1].map(|v| core::const_index(&mut m, entry, v));
    let load = m
        .build_op("memref.load", [args[0], i, j, k], [Type::F64])
        .append_to(entry);
    let loaded = single_result(&m, load);
    m.build_op("memref.store", [args[1], args[0], k, j, i], [])
        .append_to(entry);
    m.build_op("memref.store", [loaded, args[0], i, i, k], [])
        .append_to(entry);
    let returned = [loaded, args[1], args[2], args[3], args[4], args[5]];
    m.build_op("func.return", returned, []).append_to(entry);

    let (_g, body) = everest_ir::dialects::dataflow::build_graph(&mut m, top, "fan");
    let channels: Vec<ValueId> = (0..6)
        .map(|n| everest_ir::dialects::dataflow::build_channel(&mut m, body, Type::F64, n + 1))
        .collect();
    let stream = Type::Stream(Box::new(Type::F64));
    m.build_op("dfg.node", channels.clone(), vec![stream; 5])
        .attr("callee", Attribute::SymbolRef("fan_in".into()))
        .append_to(body);
    m.build_op("dfg.yield", [], []).append_to(body);
    let mut values = vec![args[1], args[2], i, j, k];
    values.extend(channels);
    (m, values)
}

/// What [`wide_module`] printed when operands and results were `Vec`s.
const WIDE: &str = r#"module {
  "func.func"() ({
    ^bb(%0: memref<2x2x2xf64, plm>, %1: f64, %2: f64, %3: f64, %4: f64, %5: f64):
      %6 = "arith.constant"() {value = 0} : () -> (index)
      %7 = "arith.constant"() {value = 1} : () -> (index)
      %8 = "arith.constant"() {value = 1} : () -> (index)
      %9 = "memref.load"(%0, %6, %7, %8) : (memref<2x2x2xf64, plm>, index, index, index) -> (f64)
      "memref.store"(%1, %0, %8, %7, %6) : (f64, memref<2x2x2xf64, plm>, index, index, index) -> ()
      "memref.store"(%9, %0, %6, %6, %8) : (f64, memref<2x2x2xf64, plm>, index, index, index) -> ()
      "func.return"(%9, %1, %2, %3, %4, %5) : (f64, f64, f64, f64, f64, f64) -> ()
  }) {function_type = (memref<2x2x2xf64, plm>, f64, f64, f64, f64, f64) -> (f64, f64, f64, f64, f64, f64), sym_name = "wide"} : () -> ()
  "dfg.graph"() ({
    ^bb():
      %10 = "dfg.channel"() {capacity = 1} : () -> (!dfg.stream<f64>)
      %11 = "dfg.channel"() {capacity = 2} : () -> (!dfg.stream<f64>)
      %12 = "dfg.channel"() {capacity = 3} : () -> (!dfg.stream<f64>)
      %13 = "dfg.channel"() {capacity = 4} : () -> (!dfg.stream<f64>)
      %14 = "dfg.channel"() {capacity = 5} : () -> (!dfg.stream<f64>)
      %15 = "dfg.channel"() {capacity = 6} : () -> (!dfg.stream<f64>)
      %16, %17, %18, %19, %20 = "dfg.node"(%10, %11, %12, %13, %14, %15) {callee = @fan_in} : (!dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>) -> (!dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>, !dfg.stream<f64>)
      "dfg.yield"() : () -> ()
  }) {sym_name = "fan"} : () -> ()
}
"#;

#[test]
fn ops_past_four_operands_print_parse_clone_and_forward_as_vecs_did() {
    let ctx = Context::with_all_dialects();
    let (mut m, values) = wide_module();
    verify_module(&ctx, &m).expect("verifies");
    let text = print_module(&m);
    assert_eq!(text, WIDE);
    let widths: Vec<(usize, usize)> = m
        .live_ops()
        .map(|(_, o)| (o.operands.len(), o.results.len()))
        .filter(|&(operands, results)| operands > 4 || results > 4)
        .collect();
    assert_eq!(widths, [(5, 0), (5, 0), (6, 0), (6, 5)]);

    let parsed = everest_ir::parse::parse_module(&text).expect("parses");
    assert_eq!(print_module(&parsed), WIDE);
    let copy = m.clone();
    assert_eq!(print_module(&copy), WIDE);
    for ((_, a), (_, b)) in m.live_ops().zip(copy.live_ops()) {
        assert_eq!((&a.operands, &a.results), (&b.operands, &b.results));
    }

    // The second argument, the last subscript and the last channel,
    // forwarded onto values that are not forwarded themselves: one
    // sweep, as the per-value rewrite does it, into the same text.
    let pairs = [
        (values[0], values[1]),
        (values[4], values[2]),
        (values[10], values[5]),
    ];
    let mut naive = m.clone();
    let mut forward: Vec<ValueId> = (0..m.num_values() as u32).map(ValueId::from_raw).collect();
    for (from, to) in pairs {
        forward[from.index()] = to;
        naive.replace_all_uses(from, to);
    }
    m.forward_uses(&forward);
    let expected = WIDE
        .replace("(%0, %6, %7, %8)", "(%0, %6, %7, %6)")
        .replace("(%1, %0, %8, %7, %6)", "(%2, %0, %6, %7, %6)")
        .replace("(%9, %0, %6, %6, %8)", "(%9, %0, %6, %6, %6)")
        .replace("(%9, %1, %2,", "(%9, %2, %2,")
        .replace("%14, %15)", "%14, %10)");
    assert_eq!(print_module(&m), expected);
    assert_eq!(print_module(&naive), expected);
    verify_module(&ctx, &m).expect("still verifies");
}

// ---------------------------------------------------------------------------
// Module::revision and the verification it lets the pass manager skip
// ---------------------------------------------------------------------------

/// Runs one public mutator call and holds it to the revision rule: if
/// what the module prints moved, so did `revision()`.
fn watched(m: &mut Module, what: &str, call: impl FnOnce(&mut Module)) -> TestCaseResult {
    let (text, revision) = (print_module(m), m.revision());
    call(m);
    prop_assert!(
        print_module(m) == text || m.revision() != revision,
        "{} changed the module and left revision() at {}",
        what,
        revision
    );
    Ok(())
}

/// The pass manager's loop as it stood before verification followed
/// `Module::revision`: verify, then verify again after every pass,
/// whatever the pass did.
fn always_verify(
    passes: &[Box<dyn Pass + Send + Sync>],
    ctx: &Context,
    module: &mut Module,
) -> IrResult<Vec<(String, PassStats)>> {
    verify_module(ctx, module)?;
    let mut all = Vec::new();
    for pass in passes {
        let stats = pass.run(ctx, module)?;
        verify_module(ctx, module).map_err(|e| IrError::Pass {
            pass: pass.name().to_string(),
            message: format!("verification failed after pass: {e}"),
        })?;
        all.push((pass.name().to_string(), stats));
    }
    Ok(all)
}

/// Appends an op no dialect registers and reports that it did nothing.
struct QuietBreaker(&'static str);

impl Pass for QuietBreaker {
    fn name(&self) -> &str {
        self.0
    }

    fn run(&self, _ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let top = module.top_block();
        module.build_op("nosuch.op", [], []).append_to(top);
        Ok(PassStats::default())
    }
}

/// Changes the module validly (a new constant nobody uses) and reports
/// that it did nothing.
struct QuietWriter;

impl Pass for QuietWriter {
    fn name(&self) -> &str {
        "quiet-writer"
    }

    fn run(&self, _ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let top = module.top_block();
        let first = module.block(top).ops[0];
        let constant = module
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(0.5))
            .detached();
        module.insert_op_before(first, constant);
        Ok(PassStats::default())
    }
}

fn pipeline_of(kinds: &[u8]) -> Vec<Box<dyn Pass + Send + Sync>> {
    kinds
        .iter()
        .map(|kind| -> Box<dyn Pass + Send + Sync> {
            match kind % 8 {
                0 | 1 => Box::new(ConstantFolding),
                2 | 3 => Box::new(Cse),
                4 => Box::new(Dce),
                5 => Box::new(LoopInvariantCodeMotion),
                6 => Box::new(QuietWriter),
                _ => Box::new(QuietBreaker("quiet-breaker")),
            }
        })
        .collect()
}

#[test]
fn a_quiet_breaker_is_caught_and_named_wherever_it_runs() {
    let ctx = Context::with_all_dialects();
    for position in 0..4 {
        let build = || {
            let mut passes = pipeline_of(&[0, 2, 4]);
            passes.insert(position, Box::new(QuietBreaker("the-culprit")));
            passes
        };
        let mut pm = PassManager::new();
        for pass in build() {
            pm.add(pass);
        }
        let mut got = random_module(&[1.0, 2.0], &[(0, 0, 1), (5, 0, 1)], 2);
        let mut want = got.clone();
        let err = pm
            .run(&ctx, &mut got)
            .expect_err("nosuch.op is unregistered");
        assert_eq!(Err(err.clone()), always_verify(&build(), &ctx, &mut want));
        assert!(
            matches!(&err, IrError::Pass { pass, .. } if pass == "the-culprit"),
            "position {position}: {err}"
        );
        assert_eq!(print_module(&got), print_module(&want));
    }
}

#[test]
fn read_only_calls_and_empty_mutations_keep_the_revision() {
    let mut m = random_module(&[1.0, 2.0], &[(0, 0, 1), (20, 0, 1), (0, 1, 2)], 1);
    let revision = m.revision();
    assert_eq!(m.clone().revision(), revision);
    let top = m.top_block();
    let unused = core::const_f64(&mut m, top, 9.0);
    let revision_after_build = m.revision();
    assert_ne!(revision_after_build, revision);
    let _ = (print_module(&m), m.walk_ops(), m.num_ops(), m.find_op("x"));
    let _ = (
        m.lookup_symbol("k"),
        m.is_unused(unused),
        m.live_ops().count(),
    );
    m.erase_ops(&[]).expect("nothing to erase");
    let other = ValueId::from_raw(0);
    assert_eq!(m.replace_all_uses(unused, other), 0);
    assert!(
        m.replace_all_uses(other, other) > 0,
        "%0 is the buffer every store names"
    );
    let identity: Vec<ValueId> = (0..m.num_values() as u32).map(ValueId::from_raw).collect();
    m.forward_uses(&identity);
    m.forward_uses(&[]);
    assert!(m.op_mut(OpId::from_raw(u32::MAX)).is_none());
    assert_eq!(m.revision(), revision_after_build);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn revision_moves_whenever_the_printed_module_does(
        consts in proptest::collection::vec(-4.0f64..4.0, 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
        steps in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..24),
    ) {
        let mut m = random_module(&consts, &ops, keep);
        // Ops built detached and not yet attached anywhere.
        let mut pool: Vec<OpId> = Vec::new();
        for (kind, a, b) in steps {
            // `random_module` always leaves the buffer, a constant and a
            // store at the top, and no step below erases the last op.
            let attached = m.walk_ops();
            let op = attached[a % attached.len()];
            let other = attached[b % attached.len()];
            let value = ValueId::from_raw((b % m.num_values()) as u32);
            let leaf = |m: &Module, op: OpId| m.op(op).expect("attached").regions.is_empty();
            match kind % 12 {
                0 => watched(&mut m, "op_mut (attribute)", |m| {
                    let operation = m.op_mut(op).expect("attached");
                    operation.attributes.insert("tag", Attribute::Int(b as i64 % 3));
                })?,
                1 => watched(&mut m, "op_mut (operand)", |m| {
                    if let Some(slot) = m.op_mut(op).expect("attached").operands.first_mut() {
                        *slot = value;
                    }
                })?,
                2 => watched(&mut m, "op_mut (unused)", |m| {
                    let _ = m.op_mut(op);
                })?,
                3 => {
                    let region = m.op(op).expect("attached").regions.first().copied();
                    let region = region.unwrap_or(m.top_region());
                    watched(&mut m, "add_block", |m| {
                        m.add_block(region, &[Type::F64]);
                    })?;
                }
                4 => watched(&mut m, "create_op", |m| {
                    let built = m
                        .build_op("arith.constant", [], [Type::F64])
                        .attr("value", Attribute::Float(b as f64))
                        .detached();
                    pool.push(built);
                })?,
                5 => if let Some(built) = pool.pop() {
                    let block = m.op(op).expect("attached").parent_block.expect("attached");
                    watched(&mut m, "append_op", |m| m.append_op(block, built))?;
                },
                6 => if let Some(built) = pool.pop() {
                    watched(&mut m, "insert_op_before", |m| m.insert_op_before(op, built))?;
                },
                7 => if op != other && leaf(&m, op) {
                    watched(&mut m, "move_op_before", |m| m.move_op_before(op, other))?;
                },
                8 => if attached.len() > 1 {
                    watched(&mut m, "erase_op", |m| m.erase_op(op).expect("attached and live"))?;
                },
                9 => if attached.len() > 2 && op != other && leaf(&m, op) && leaf(&m, other) {
                    watched(&mut m, "erase_ops", |m| {
                        m.erase_ops(&[op, other]).expect("distinct, live, not nested");
                    })?;
                },
                10 => {
                    let from = ValueId::from_raw((a % m.num_values()) as u32);
                    watched(&mut m, "replace_all_uses", |m| {
                        m.replace_all_uses(from, value);
                    })?;
                }
                _ => {
                    // Identity but for one entry, over a prefix of the values.
                    let len = 1 + a % m.num_values();
                    let mut forward: Vec<ValueId> =
                        (0..len as u32).map(ValueId::from_raw).collect();
                    forward[b % len] = value;
                    watched(&mut m, "forward_uses", |m| m.forward_uses(&forward))?;
                }
            }
        }
        prop_assert_eq!(m.clone().revision(), m.revision());
    }

    #[test]
    fn verifying_on_change_matches_verifying_after_every_pass(
        consts in proptest::collection::vec(-4.0f64..4.0, 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..24),
        keep in any::<usize>(),
        kinds in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let ctx = Context::with_all_dialects();
        let mut got = random_module(&consts, &ops, keep);
        let mut want = got.clone();
        let mut pm = PassManager::new();
        for pass in pipeline_of(&kinds) {
            pm.add(pass);
        }
        // Same statistics or the same error (the breaker is named, also
        // when passes before it were skipped over), and the same module
        // left behind either way.
        prop_assert_eq!(
            pm.run(&ctx, &mut got),
            always_verify(&pipeline_of(&kinds), &ctx, &mut want)
        );
        prop_assert_eq!(print_module(&got), print_module(&want));
    }
}

// ---------------------------------------------------------------------------
// Parser totality
// ---------------------------------------------------------------------------

/// Every type and attribute form the printer can emit, in one module,
/// so byte mutations reach each branch of the parser.
const EVERY_FORM: &str = r#"module {
  "func.func"() ({
    ^bb(%0: tensor<4x?xf64>, %1: memref<8xi32, plm>):
      %2 = "arith.constant"() {value = -1.5e-3} : () -> (!base2.posit<16,1>)
      %3 = "base2.cast"(%2) {dict = {a = [1, true, "s\"q", @sym], t = (f32) -> (index)}} : (!base2.posit<16,1>) -> (!base2.fixed<s7,8>)
      "dfg.push"(%3) {dense = dense_f64<1.0, 2.5>, ids = dense_i64<-3, 4>, ty = !dfg.stream<!dfg.token>} : (!base2.fixed<s7,8>) -> ()
      "func.return"() : () -> ()
  }) {function_type = (tensor<4x?xf64>, memref<8xi32, plm>) -> (), sym_name = "every_form"} : () -> ()
}
"#;

/// Bytes the grammar gives meaning to, plus a digit run and a non-ASCII lead byte.
const MUTATION_BYTES: &[u8] = b"\"(){}%^<>,:-=!@[]?\\x0919e. \n\xc3";

fn mutate(text: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, how, with) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = at % bytes.len();
        let with = MUTATION_BYTES[with as usize % MUTATION_BYTES.len()];
        match how % 5 {
            0 => bytes[at] = with,
            1 => bytes.insert(at, with),
            2 => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            // A long digit run: value numbers and widths far out of range.
            _ => {
                bytes.splice(at..at, std::iter::repeat_n(b'9', 1 + with as usize % 24));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `Ok`, or a parse error naming a line of the text; anything else —
/// a panic, another error kind — fails the case.
fn assert_parse_is_total(text: &str) -> TestCaseResult {
    match everest_ir::parse::parse_module(text) {
        Ok(module) => {
            // What parsed prints, and prints the same once more.
            let printed = print_module(&module);
            let again = everest_ir::parse::parse_module(&printed);
            prop_assert!(again.is_ok(), "printed form of {:?} does not parse", text);
            prop_assert_eq!(print_module(&again.expect("checked")), printed);
        }
        Err(everest_ir::IrError::Parse { line, message }) => {
            let lines = text.matches('\n').count() + 1;
            prop_assert!((1..=lines).contains(&line), "line {} of {}", line, lines);
            prop_assert!(!message.is_empty());
        }
        Err(other) => prop_assert!(false, "not a parse error: {}", other),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_module_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        shaped in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        assert_parse_is_total(&String::from_utf8_lossy(&bytes))?;
        // The same, drawn from the grammar's own alphabet.
        let shaped: Vec<u8> = shaped
            .iter()
            .map(|b| MUTATION_BYTES[*b as usize % MUTATION_BYTES.len()])
            .collect();
        let shaped = String::from_utf8_lossy(&shaped);
        assert_parse_is_total(&shaped)?;
        assert_parse_is_total(&format!("module {{ {shaped} }}"))?;
    }

    #[test]
    fn parse_module_is_total_on_mutated_modules(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..4),
    ) {
        let printed = print_module(&random_module(&consts, &ops, keep));
        assert_parse_is_total(&mutate(&printed, &edits))?;
        assert_parse_is_total(&mutate(EVERY_FORM, &edits))?;
    }
}

#[test]
fn the_every_form_seed_parses_before_it_is_mutated() {
    let module = everest_ir::parse::parse_module(EVERY_FORM).expect("the seed text parses");
    assert_eq!(module.num_ops(), 5);
    if let Err(e) = assert_parse_is_total(EVERY_FORM) {
        panic!("{e}");
    }
}

/// Draws values from a word stream the test generator supplies (the
/// vendored proptest has no recursive strategies): a word picks a
/// variant, the next ones its payload.
struct Draw<'w> {
    words: &'w [u64],
    at: usize,
}

impl Draw<'_> {
    fn word(&mut self) -> u64 {
        // Cycles through the words, salted by position, so a short
        // stream still draws a deep tree.
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        word ^ (self.at as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.word() % n
    }

    /// Floats every spelling branch meets: both zeros, NaN, the
    /// infinities, the `1e15` switch to `{v:e}`, integers below and
    /// above it, a subnormal, fractions and raw bit patterns.
    fn float(&mut self) -> f64 {
        const SPECIAL: [f64; 16] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0,
            -2.5,
            0.1,
            123_456.0,
        ];
        match self.below(3) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => f64::from_bits(self.word()),
            _ => (self.word() >> 11) as f64 / 1024.0 - 4e12,
        }
    }

    /// Text over an alphabet of quotes, backslashes, punctuation the
    /// parser cares about and non-ASCII.
    fn text(&mut self) -> String {
        const ALPHABET: [&str; 12] = [
            "a", "Z", "\"", "\\", " ", "=", "{", "}", "é", "\n", "\\\"", "𝄞",
        ];
        (0..self.below(6))
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn shape(&mut self) -> Vec<Option<u64>> {
        (0..self.below(4))
            .map(|_| match self.below(4) {
                0 => None,
                1 => Some(self.word()),
                _ => Some(self.below(1024)),
            })
            .collect()
    }

    fn ty(&mut self, depth: u32) -> Type {
        let variants = if depth == 0 { 8 } else { 12 };
        match self.below(variants) {
            0 => Type::Int(self.word() as u32),
            1 => Type::F32,
            2 => Type::F64,
            3 => Type::Index,
            4 => Type::None,
            5 => Type::Token,
            6 => Type::Fixed(FixedFormat {
                signed: self.below(2) == 0,
                int_bits: self.word() as u32,
                frac_bits: self.below(64) as u32,
            }),
            7 => Type::Posit(PositFormat::new(
                2 + self.below(u64::from(u32::MAX - 2)) as u32,
                self.below(8) as u32,
            )),
            8 => Type::Tensor {
                shape: self.shape(),
                elem: Box::new(self.ty(depth - 1)),
            },
            9 => Type::MemRef {
                shape: self.shape(),
                elem: Box::new(self.ty(depth - 1)),
                space: [MemorySpace::Host, MemorySpace::Device, MemorySpace::Plm]
                    [self.below(3) as usize],
            },
            10 => Type::Stream(Box::new(self.ty(depth - 1))),
            _ => Type::Function {
                inputs: (0..self.below(3)).map(|_| self.ty(depth - 1)).collect(),
                outputs: (0..self.below(3)).map(|_| self.ty(depth - 1)).collect(),
            },
        }
    }

    fn attr(&mut self, depth: u32) -> Attribute {
        let variants = if depth == 0 { 8 } else { 10 };
        match self.below(variants) {
            0 => Attribute::Int(self.word() as i64),
            1 => Attribute::Float(self.float()),
            2 => Attribute::Str(self.text()),
            3 => Attribute::Bool(self.below(2) == 0),
            4 => Attribute::from(self.ty(2)),
            5 => Attribute::SymbolRef(self.text()),
            6 => Attribute::DenseF64((0..self.below(5)).map(|_| self.float()).collect()),
            7 => Attribute::DenseI64((0..self.below(5)).map(|_| self.word() as i64).collect()),
            8 => Attribute::Array((0..self.below(4)).map(|_| self.attr(depth - 1)).collect()),
            _ => Attribute::Dict(
                (0..self.below(4))
                    .map(|_| (self.text(), self.attr(depth - 1)))
                    .collect(),
            ),
        }
    }
}

/// A module that prints every type in `types` as a result type, an
/// operand type and a block argument type, and every attribute in
/// `attrs` under its own key.
fn module_of(types: &[Type], attrs: &[Attribute]) -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let holder = m.build_op("test.holder", [], []).regions(1).append_to(top);
    let region = m.op(holder).expect("attached").regions[0];
    let body = m.add_block(region, types);
    let args = m.block(body).args.to_vec();
    let mut op = m.build_op("test.everything", args, types.to_vec());
    for (i, attr) in attrs.iter().enumerate() {
        op = op.attr(format!("a{i}"), attr.clone());
    }
    op.append_to(body);
    m
}

/// Every `Type` variant, dynamic dimensions and all three memory
/// spaces included.
fn every_type() -> Vec<Type> {
    let dynamic = vec![Some(4), None, Some(0), Some(u64::MAX)];
    vec![
        Type::Int(1),
        Type::Int(u32::MAX),
        Type::F32,
        Type::F64,
        Type::Index,
        Type::None,
        Type::Fixed(FixedFormat::signed(7, 8)),
        Type::Fixed(FixedFormat::unsigned(0, 32)),
        Type::Posit(PositFormat::new(16, 1)),
        Type::Posit(PositFormat::new(2, 0)),
        Type::Tensor {
            shape: dynamic.clone(),
            elem: Box::new(Type::Fixed(FixedFormat::signed(3, 4))),
        },
        Type::Tensor {
            shape: Vec::new(),
            elem: Box::new(Type::F64),
        },
        Type::MemRef {
            shape: dynamic.clone(),
            elem: Box::new(Type::F32),
            space: MemorySpace::Host,
        },
        Type::memref(
            &[1024],
            Type::Posit(PositFormat::new(8, 0)),
            MemorySpace::Device,
        ),
        Type::MemRef {
            shape: vec![None],
            elem: Box::new(Type::Index),
            space: MemorySpace::Plm,
        },
        Type::Stream(Box::new(Type::tensor(&[2, 3], Type::F64))),
        Type::Token,
        Type::Function {
            inputs: vec![Type::F64, Type::memref(&[8], Type::F64, MemorySpace::Plm)],
            outputs: vec![Type::Token],
        },
        Type::Function {
            inputs: Vec::new(),
            outputs: Vec::new(),
        },
    ]
}

/// Every `Attribute` variant: strings with quotes and backslashes,
/// nested arrays and dictionaries, dense arrays, and the floats whose
/// spelling switches branch.
fn every_attribute() -> Vec<Attribute> {
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e15,
        -1e15,
        1e15 - 1.0,
        1e300,
        5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff),
        2.5,
        -1.0,
        0.1,
    ];
    let nested = Attribute::Dict(
        [
            (
                "inner \"key\"".to_string(),
                Attribute::Array(vec![Attribute::Int(-1), Attribute::Array(Vec::new())]),
            ),
            ("x".to_string(), Attribute::Dict(BTreeMap::new())),
        ]
        .into_iter()
        .collect(),
    );
    let mut attrs: Vec<Attribute> = floats.into_iter().map(Attribute::Float).collect();
    attrs.extend([
        Attribute::Int(i64::MIN),
        Attribute::Int(0),
        Attribute::Int(i64::MAX),
        Attribute::Str(String::new()),
        Attribute::Str("plain".into()),
        Attribute::Str("q\"u\\o\\\"te\"\"".into()),
        Attribute::Str("\\".into()),
        Attribute::Str("ünï\"cödé\\".into()),
        Attribute::Bool(true),
        Attribute::Bool(false),
        Attribute::from(Type::Function {
            inputs: vec![Type::F64],
            outputs: vec![Type::tensor(&[4], Type::F32)],
        }),
        Attribute::Array(Vec::new()),
        Attribute::Array(vec![
            Attribute::Float(-0.0),
            Attribute::Str("\"".into()),
            nested.clone(),
        ]),
        nested,
        Attribute::SymbolRef("kernel".into()),
        Attribute::DenseF64(floats.to_vec()),
        Attribute::DenseF64(Vec::new()),
        Attribute::DenseI64(vec![i64::MIN, -1, 0, 7, i64::MAX]),
        Attribute::DenseI64(Vec::new()),
    ]);
    attrs
}

#[test]
fn every_type_and_attribute_prints_as_the_fmt_printer_printed_it() {
    let types = every_type();
    let attrs = every_attribute();
    for ty in &types {
        assert_eq!(ty.to_string(), reference::ty(ty));
    }
    for attr in &attrs {
        assert_eq!(attr.to_string(), reference::attr(attr), "{attr:?}");
    }
    let m = module_of(&types, &attrs);
    assert_eq!(print_module(&m), reference::print_module(&m));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_module_matches_the_fmt_printer_byte_for_byte(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..6),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        stores in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..4),
    ) {
        let mut m = random_module(&consts, &ops, keep);
        add_colliding_ops(&mut m, consts.len(), &picks);
        prop_assert_eq!(print_module(&m), reference::print_module(&m));
        let ctx = Context::with_all_dialects();
        canonicalization_pipeline()
            .run(&ctx, &mut m)
            .expect("a generated module canonicalizes");
        prop_assert_eq!(print_module(&m), reference::print_module(&m));
        let f = random_function(&consts, &ops, &stores);
        prop_assert_eq!(print_module(&f), reference::print_module(&f));
    }

    #[test]
    fn drawn_types_and_attributes_print_as_the_fmt_printer_printed_them(
        words in proptest::collection::vec(any::<u64>(), 1..48),
    ) {
        let mut draw = Draw { words: &words, at: 0 };
        let types: Vec<Type> = (0..1 + draw.below(4)).map(|_| draw.ty(3)).collect();
        let attrs: Vec<Attribute> = (0..1 + draw.below(4)).map(|_| draw.attr(3)).collect();
        for ty in &types {
            prop_assert_eq!(ty.to_string(), reference::ty(ty));
        }
        for attr in &attrs {
            prop_assert_eq!(attr.to_string(), reference::attr(attr));
        }
        let m = module_of(&types, &attrs);
        prop_assert_eq!(print_module(&m), reference::print_module(&m));
    }
}

// ---------------------------------------------------------------------------
// The per-module type table
// ---------------------------------------------------------------------------

/// Every value of `module_of`'s `test.everything` op — its operands (the
/// block arguments) and its results — against the type it was built
/// with, each `types` drawn twice.
fn check_type_table(m: &Module, types: &[Type], what: &str) -> TestCaseResult {
    let op = m.find_op("test.everything").expect("module_of builds one");
    let op = m.op(op).expect("live");
    let values: Vec<ValueId> = op
        .operands
        .iter()
        .chain(op.results.iter())
        .copied()
        .collect();
    prop_assert_eq!(values.len(), 2 * types.len());
    let built = types.iter().chain(types);
    for (&v, ty) in values.iter().zip(built.clone()) {
        prop_assert_eq!(m.value_type(v), ty, "{}: {}", what, v);
        prop_assert_eq!(m.ty(m.value_type_id(v)), ty, "{}: {}", what, v);
    }
    for (&a, ta) in values.iter().zip(built.clone()) {
        for (&b, tb) in values.iter().zip(built.clone()) {
            let same = m.value_type_id(a) == m.value_type_id(b);
            prop_assert_eq!(
                same,
                ta == tb,
                "{}: {} and {} ({} / {})",
                what,
                a,
                b,
                ta,
                tb
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal types get one id, unequal ones two; `value_type` is the
    /// type a value was built with; and a clone, a clone that then
    /// interns more types, and the module parsed back from its text
    /// keep both.
    #[test]
    fn equal_types_share_one_id_and_every_value_keeps_its_type(
        words in proptest::collection::vec(any::<u64>(), 1..48),
    ) {
        let mut draw = Draw { words: &words, at: 0 };
        // A few distinct types, each drawn as several separately built
        // copies, with the fixed scalars among them.
        let pool: Vec<Type> = (0..1 + draw.below(5))
            .map(|k| if k == 0 { Type::Index } else { draw.ty(2) })
            .collect();
        let types: Vec<Type> = (0..1 + draw.below(10))
            .map(|_| pool[draw.below(pool.len() as u64) as usize].clone())
            .collect();
        let m = module_of(&types, &[]);
        check_type_table(&m, &types, "built")?;
        let mut copy = m.clone();
        check_type_table(&copy, &types, "cloned")?;
        // The copy's table is shared until it adds a type; the source
        // still reads its own afterwards.
        let extra = Type::memref(&[3, 5], Type::F32, MemorySpace::Plm);
        let id = copy.intern_type(extra.clone());
        prop_assert_eq!(copy.ty(id), &extra);
        prop_assert_eq!(copy.intern_type(extra), id);
        check_type_table(&copy, &types, "cloned, then grown")?;
        check_type_table(&m, &types, "the source of a grown clone")?;
        let parsed = everest_ir::parse::parse_module(&print_module(&m))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        check_type_table(&parsed, &types, "parsed")?;
    }
}

// ---------------------------------------------------------------------------
// The one-pass parser against the parser it replaced
// ---------------------------------------------------------------------------

/// An `scf.if` whose results are used after it and whose two regions
/// (the second of two blocks) define and use values of their own:
/// renumbering a `%N` here makes an op use its own result inside its
/// regions, or define a number twice.
const REGIONS_WITH_RESULTS: &str = r#"module {
  %0 = "arith.constant"() {value = true} : () -> (i1)
  %1, %2 = "scf.if"(%0) ({
    ^bb():
      %3 = "arith.constant"() {scale = -2.5e-3, value = 1.5E+1} : () -> (f64)
      "scf.yield"(%3, %3) : (f64, f64) -> ()
  }) ({
    ^bb(%4: f64, %5: index):
      "scf.yield"(%4, %4) : (f64, f64) -> ()
    ^bb(%6: i1):
      "scf.yield"(%6, %6) : (i1, i1) -> ()
  }) : (i1) -> (f64, f64)
  "t.use"(%1, %2) : (f64, f64) -> ()
}
"#;

/// Whitespace `char::is_whitespace` accepts, ASCII and not, and a
/// comment. The comment holds none of `^ " ( { } )`: the reference scans
/// a block body for its end with comments read as text, so one holding
/// them can end a block early for it and not for the one-pass parser.
const SPACES: [&str; 10] = [
    " ",
    "\t",
    "\r\n",
    "\u{b}",
    "\u{c}",
    "\u{85}",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "\n// note: a.b = [1, %2] <x> @y\n",
];

/// `text` with byte `edits` (see [`mutate`]), then `spaces` inserted at
/// char boundaries, then the number after some `%` replaced.
fn perturb(
    text: &str,
    edits: &[(usize, u8, u8)],
    spaces: &[(usize, u8)],
    renumber: &[(usize, u8)],
) -> String {
    let mut text = if edits.is_empty() {
        text.to_string()
    } else {
        mutate(text, edits)
    };
    for &(at, which) in spaces {
        let mut at = at % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at += 1;
        }
        text.insert_str(at, SPACES[which as usize % SPACES.len()]);
    }
    for &(at, n) in renumber {
        let from = at % (text.len() + 1);
        let Some(percent) = text.as_bytes()[from..]
            .iter()
            .position(|&b| b == b'%')
            .map(|i| from + i)
            .or_else(|| text.find('%'))
        else {
            break;
        };
        let digits = text[percent + 1..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        text.replace_range(percent + 1..percent + 1 + digits, &n.to_string());
    }
    text
}

/// Whether some op of `m` uses one of its own results inside its
/// regions, at any depth.
fn uses_own_result(m: &Module) -> bool {
    m.walk_ops().into_iter().any(|op| {
        let results = &m.op(op).expect("walked ops are live").results;
        m.walk_nested(op).into_iter().any(|inner| {
            let operands = &m.op(inner).expect("walked ops are live").operands;
            operands.iter().any(|v| results.contains(v))
        })
    })
}

/// The reference and the one-pass parser both accept `text` and build
/// modules that print alike, or both reject it (the one-pass parser at a
/// line of the text), or the reference accepts one of the two forms the
/// one-pass parser rejects: a value number defined twice, or an op using
/// its own result inside its regions.
fn assert_parsers_agree(text: &str) -> TestCaseResult {
    let lines = text.matches('\n').count() + 1;
    match (
        reference_parse::parse_module(text),
        everest_ir::parse::parse_module(text),
    ) {
        (Ok(want), Ok(got)) => prop_assert_eq!(print_module(&got), print_module(&want)),
        (Err(_), Err(IrError::Parse { line, .. })) => {
            prop_assert!((1..=lines).contains(&line), "line {} of {}", line, lines);
        }
        (Ok(want), Err(IrError::Parse { message, .. })) => prop_assert!(
            message.starts_with("redefinition of value %")
                || (message.starts_with("use of undefined value %") && uses_own_result(&want)),
            "only the reference accepts {:?}: {}",
            text,
            message
        ),
        (want, got) => prop_assert!(
            false,
            "reference {:?}, one-pass {:?} on {:?}",
            want.map(|m| print_module(&m)),
            got.map(|m| print_module(&m)),
            text
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_parser_agrees_with_the_reference_on_perturbed_modules(
        consts in proptest::collection::vec(-100.0f64..100.0, 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
        keep in any::<usize>(),
        words in proptest::collection::vec(any::<u64>(), 1..24),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..3),
        spaces in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        renumber in proptest::collection::vec((any::<usize>(), 0u8..8), 0..2),
    ) {
        let mut draw = Draw { words: &words, at: 0 };
        let types: Vec<Type> = (0..1 + draw.below(3)).map(|_| draw.ty(2)).collect();
        let attrs: Vec<Attribute> = (0..draw.below(3)).map(|_| draw.attr(2)).collect();
        for seed in [
            print_module(&random_module(&consts, &ops, keep)),
            print_module(&module_of(&types, &attrs)),
            EVERY_FORM.to_string(),
            REGIONS_WITH_RESULTS.to_string(),
        ] {
            assert_parsers_agree(&perturb(&seed, &edits, &spaces, &renumber))?;
        }
    }

    #[test]
    fn one_pass_parser_agrees_with_the_reference_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        shaped in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        assert_parsers_agree(&String::from_utf8_lossy(&bytes))?;
        let shaped: Vec<u8> = shaped
            .iter()
            .map(|b| MUTATION_BYTES[*b as usize % MUTATION_BYTES.len()])
            .collect();
        let shaped = String::from_utf8_lossy(&shaped);
        assert_parsers_agree(&shaped)?;
        assert_parsers_agree(&format!("module {{ {shaped} }}"))?;
    }
}

#[test]
fn the_reference_accepts_what_the_one_pass_parser_rejects() {
    let parse = everest_ir::parse::parse_module;
    // Unperturbed, the seed parses alike.
    assert_parsers_agree(REGIONS_WITH_RESULTS).expect("the seed parses alike");
    let own_result = REGIONS_WITH_RESULTS.replace("\"scf.yield\"(%3, %3)", "\"scf.yield\"(%3, %1)");
    let redefined = REGIONS_WITH_RESULTS.replace("%5: index", "%3: index");
    for (text, message) in [
        (own_result, "use of undefined value %1"),
        (redefined, "redefinition of value %3"),
    ] {
        assert!(reference_parse::parse_module(&text).is_ok());
        match parse(&text) {
            Err(IrError::Parse { message: got, .. }) => assert_eq!(got, message),
            other => panic!("expected {message}, got {other:?}"),
        }
        assert_parsers_agree(&text).expect("an allowed difference");
    }
}
