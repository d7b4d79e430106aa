//! The module the golden report (`buggy_module.txt`) is rendered from,
//! shared by the test binaries that analyse it.

use everest_ir::attr::Attribute;
use everest_ir::dialects::core::{alloc, build_for, build_func, const_index};
use everest_ir::module::{single_result, Module};
use everest_ir::types::{MemorySpace, Type};

/// One module, three provable bugs:
/// * a host→device CPU bounce (memory-space-escape),
/// * an induction variable shifted past the memref extent
///   (interval-out-of-bounds),
/// * a worst-case latency bound above the declared deadline
///   (latency-deadline).
pub(crate) fn buggy_module() -> Module {
    let mut m = Module::new();
    let top = m.top_block();
    let (func, body) = build_func(&mut m, top, "buggy", &[], &[]);
    let host = alloc(
        &mut m,
        body,
        Type::memref(&[8], Type::F64, MemorySpace::Host),
    );
    let dev = alloc(
        &mut m,
        body,
        Type::memref(&[8], Type::F64, MemorySpace::Device),
    );
    // CPU bounce: element-wise host → device without olympus.dma.
    let zero = const_index(&mut m, body, 0);
    let bounced = m
        .build_op("memref.load", vec![host, zero], vec![Type::F64])
        .append_to(body);
    let bounced = single_result(&m, bounced);
    m.build_op("memref.store", vec![bounced, dev, zero], vec![])
        .append_to(body);
    // Shifted induction variable: buf[i + 8] over extent 8.
    let lb = const_index(&mut m, body, 0);
    let ub = const_index(&mut m, body, 8);
    let step = const_index(&mut m, body, 1);
    let (_for_op, loop_body) = build_for(&mut m, body, lb, ub, step);
    let iv = m.block(loop_body).args[0];
    let shift = const_index(&mut m, loop_body, 8);
    let idx = m
        .build_op("arith.addi", vec![iv, shift], vec![Type::Index])
        .append_to(loop_body);
    let idx = single_result(&m, idx);
    let x = m
        .build_op("memref.load", vec![dev, idx], vec![Type::F64])
        .append_to(loop_body);
    let x = single_result(&m, x);
    let y = m
        .build_op("arith.mulf", vec![x, x], vec![Type::F64])
        .append_to(loop_body);
    let y = single_result(&m, y);
    m.build_op("memref.store", vec![y, host, zero], vec![])
        .append_to(body);
    m.build_op("func.return", vec![], vec![]).append_to(body);
    // A deadline no execution can meet (the loop alone costs more).
    if let Some(op) = m.op_mut(func) {
        op.attributes.insert("deadline_us", Attribute::Float(0.01));
    }
    m
}
