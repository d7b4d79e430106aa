//! The fifteen per-op verifiers the dialects registered before each
//! op's rules became a declared `Constraint` list, kept verbatim apart
//! from imports, with the table of the ops each was registered for.
//! `constraint_props.rs` holds the declared rules to them and to the
//! old `type-mismatch` lint (`typecheck.rs`).

use everest_ir::attr::Attribute;
use everest_ir::error::{IrError, IrResult};
use everest_ir::ids::OpId;
use everest_ir::module::Module;
use everest_ir::types::{MemorySpace, Type};

/// A custom verifier: the module and the op being checked.
pub(crate) type VerifyFn = fn(&Module, OpId) -> IrResult<()>;

/// The ops that declared `OpTrait::SameOperandResultTypes` and
/// registered `verify_same_types`.
pub(crate) const SAME_OPERAND_RESULT_TYPES: &[&str] = &[
    "arith.addf",
    "arith.subf",
    "arith.mulf",
    "arith.divf",
    "arith.maxf",
    "arith.minf",
    "arith.addi",
    "arith.subi",
    "arith.muli",
    "arith.divsi",
    "arith.remsi",
    "arith.andi",
    "arith.ori",
    "arith.xori",
    "arith.negf",
    "arith.absf",
    "arith.sqrt",
    "arith.exp",
    "arith.log",
];

/// The verifier the dialects registered for `name`, if any.
pub(crate) fn verifier(name: &str) -> Option<VerifyFn> {
    let f: VerifyFn = match name {
        "func.func" => verify_func,
        name if SAME_OPERAND_RESULT_TYPES.contains(&name) => verify_same_types,
        "scf.for" => verify_for,
        "memref.load" => verify_load,
        "memref.store" => verify_store,
        "dfg.channel" => verify_channel,
        "dfg.node" => verify_node,
        "base2.quantize" => verify_quantize,
        "base2.dequantize" => verify_dequantize,
        "base2.add" | "base2.sub" | "base2.mul" | "base2.div" => verify_base2_arith,
        "olympus.plm" => verify_plm,
        "olympus.dma" => verify_dma,
        "olympus.replicate" => verify_replicate,
        "olympus.lane" => verify_lane,
        _ => return None,
    };
    Some(f)
}

fn verify_func(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let ty = operation
        .attr("function_type")
        .and_then(Attribute::as_type)
        .ok_or_else(|| IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "missing 'function_type' type attribute".into(),
        })?;
    let Type::Function { inputs, .. } = ty else {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "'function_type' must be a function type".into(),
        });
    };
    let region = operation.regions[0];
    let entry = *m
        .region(region)
        .blocks
        .first()
        .ok_or_else(|| IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "function body must have an entry block".into(),
        })?;
    let args = &m.block(entry).args;
    if args.len() != inputs.len() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "entry block has {} arguments but function type expects {}",
                args.len(),
                inputs.len()
            ),
        });
    }
    for (arg, expected) in args.iter().zip(inputs) {
        if m.value_type(*arg) != expected {
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: format!(
                    "entry argument type {} does not match function type {}",
                    m.value_type(*arg),
                    expected
                ),
            });
        }
    }
    Ok(())
}

fn verify_same_types(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let mut types = operation
        .operands
        .iter()
        .chain(operation.results.iter())
        .map(|&v| m.value_type_id(v));
    if let Some(first) = types.next() {
        for t in types {
            if t != first {
                let (first, t) = (m.ty(first), m.ty(t));
                return Err(IrError::Verification {
                    op: operation.name.to_string(),
                    path: None,
                    message: format!("operand/result types differ: {first} vs {t}"),
                });
            }
        }
    }
    Ok(())
}

fn verify_for(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    if operation.operands.len() < 3 {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "scf.for needs at least lb, ub and step operands".into(),
        });
    }
    let num_iter_args = operation.operands.len() - 3;
    if operation.results.len() != num_iter_args {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "scf.for with {num_iter_args} iter args must have {num_iter_args} results, got {}",
                operation.results.len()
            ),
        });
    }
    let region = operation.regions[0];
    let entry = *m
        .region(region)
        .blocks
        .first()
        .ok_or_else(|| IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "scf.for body must have an entry block".into(),
        })?;
    let num_args = m.block(entry).args.len();
    if num_args != 1 + num_iter_args {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "scf.for body must take induction variable plus {num_iter_args} iter args, got {num_args}"
            ),
        });
    }
    Ok(())
}

fn verify_load(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let base = m.value_type(operation.operands[0]);
    let Type::MemRef { shape, elem, .. } = base else {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("first operand must be a memref, got {base}"),
        });
    };
    if operation.operands.len() - 1 != shape.len() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "memref of rank {} indexed with {} indices",
                shape.len(),
                operation.operands.len() - 1
            ),
        });
    }
    let result = m.value_type(operation.results[0]);
    if result != elem.as_ref() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("result type {result} does not match element type {elem}"),
        });
    }
    Ok(())
}

fn verify_store(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let base = m.value_type(operation.operands[1]);
    let Type::MemRef { shape, elem, .. } = base else {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("second operand must be a memref, got {base}"),
        });
    };
    if operation.operands.len() - 2 != shape.len() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "memref of rank {} indexed with {} indices",
                shape.len(),
                operation.operands.len() - 2
            ),
        });
    }
    let stored = m.value_type(operation.operands[0]);
    if stored != elem.as_ref() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("stored type {stored} does not match element type {elem}"),
        });
    }
    Ok(())
}

fn verify_channel(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let ty = m.value_type(operation.results[0]);
    if !matches!(ty, Type::Stream(_)) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("channel must produce a !dfg.stream type, got {ty}"),
        });
    }
    if let Some(cap) = operation.int_attr("capacity") {
        if cap <= 0 {
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: format!("channel capacity must be positive, got {cap}"),
            });
        }
    }
    Ok(())
}

fn verify_node(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    // All node operands and results must be streams or tokens.
    for &v in operation.operands.iter().chain(&operation.results) {
        let ty = m.value_type(v);
        if !matches!(ty, Type::Stream(_) | Type::Token) {
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: format!("node ports must be streams or tokens, got {ty}"),
            });
        }
    }
    Ok(())
}

fn is_base2_scalar(ty: &Type) -> bool {
    matches!(ty, Type::Fixed(_) | Type::Posit(_))
}

fn verify_quantize(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let src = m.value_type(operation.operands[0]);
    let dst = m.value_type(operation.results[0]);
    if !matches!(src, Type::F32 | Type::F64) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("quantize source must be a float, got {src}"),
        });
    }
    if !is_base2_scalar(dst) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("quantize result must be a base2 type, got {dst}"),
        });
    }
    Ok(())
}

fn verify_dequantize(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let src = m.value_type(operation.operands[0]);
    let dst = m.value_type(operation.results[0]);
    if !is_base2_scalar(src) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("dequantize source must be a base2 type, got {src}"),
        });
    }
    if !matches!(dst, Type::F32 | Type::F64) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("dequantize result must be a float, got {dst}"),
        });
    }
    Ok(())
}

fn verify_base2_arith(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let name = operation.name;
    let first = m.value_type(operation.operands[0]).clone();
    if !is_base2_scalar(&first) {
        return Err(IrError::Verification {
            op: name.to_string(),
            path: None,
            message: format!("base2 arithmetic requires base2 operands, got {first}"),
        });
    }
    for &v in operation.operands.iter().chain(&operation.results) {
        if m.value_type(v) != &first {
            return Err(IrError::Verification {
                op: name.to_string(),
                path: None,
                message: "all base2 operands/results must share one format".into(),
            });
        }
    }
    Ok(())
}

fn verify_positive_attr(m: &Module, op: OpId, attr: &str) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let v = operation
        .int_attr(attr)
        .ok_or_else(|| IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("missing '{attr}' integer attribute"),
        })?;
    if v <= 0 {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("'{attr}' must be positive, got {v}"),
        });
    }
    Ok(())
}

fn verify_plm(m: &Module, op: OpId) -> IrResult<()> {
    verify_positive_attr(m, op, "banks")?;
    let operation = m.op(op).expect("verifier receives live ops");
    let ty = m.value_type(operation.results[0]);
    match ty {
        Type::MemRef { space, .. } if *space == MemorySpace::Plm => Ok(()),
        other => Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("plm must produce a plm-space memref, got {other}"),
        }),
    }
}

fn verify_dma(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let dir = operation
        .str_attr("direction")
        .ok_or_else(|| IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: "missing 'direction' attribute".into(),
        })?;
    if dir != "h2d" && dir != "d2h" && dir != "d2d" {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("direction must be h2d, d2h or d2d, got '{dir}'"),
        });
    }
    for &v in &operation.operands {
        if !matches!(m.value_type(v), Type::MemRef { .. }) {
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: "dma operands must be memrefs".into(),
            });
        }
    }
    Ok(())
}

fn verify_replicate(m: &Module, op: OpId) -> IrResult<()> {
    verify_positive_attr(m, op, "factor")
}

fn verify_lane(m: &Module, op: OpId) -> IrResult<()> {
    verify_positive_attr(m, op, "width_bits")?;
    let operation = m.op(op).expect("verifier receives live ops");
    let w = operation.int_attr("width_bits").unwrap_or(0);
    if !(w as u64).is_power_of_two() {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("lane width must be a power of two, got {w}"),
        });
    }
    Ok(())
}
