//! Lowering from tensor dialects (`teil`, `esn`) to loop-level IR
//! (`scf` + `arith` + `memref`).
//!
//! This is the central lowering of the EVEREST compilation flow (Fig. 5):
//! an `ekl.kernel` whose body is a DAG of tensor operations becomes a
//! `func.func` over memrefs containing explicit loop nests — the form the
//! HLS engine schedules. Conventions:
//!
//! * the kernel's `ekl.input` ops become function arguments (in order),
//!   followed by one argument per `ekl.output`;
//! * every intermediate tensor is materialized into a fresh buffer
//!   (the HLS flow later promotes these to PLMs and removes copies);
//! * `teil.constant` lowers to an alloc carrying an `init` attribute.

use std::collections::HashMap;

use crate::attr::Attribute;
use crate::dialects::core::{build_for, const_index};
use crate::dialects::tensorlang::{broadcast_shapes, parse_einsum_notation};
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, ValueId};
use crate::module::{single_result, Module};
use crate::types::{MemorySpace, Type};

/// Lowers the `ekl.kernel` named `kernel` in `src` into a fresh module
/// containing a loop-level `func.func` with the same name.
///
/// # Errors
///
/// Returns an error if the kernel is missing, uses dynamic shapes, or
/// contains an op the lowering does not support.
pub fn lower_kernel_to_loops(src: &Module, kernel: &str) -> IrResult<Module> {
    let kernel_op = src
        .lookup_symbol(kernel)
        .ok_or_else(|| IrError::InvalidId(format!("no kernel '{kernel}'")))?;
    let operation = src
        .op(kernel_op)
        .ok_or_else(|| IrError::InvalidId("kernel erased".into()))?;
    let region = *operation
        .regions
        .first()
        .ok_or_else(|| IrError::Malformed("kernel has no region".into()))?;
    let body = src.region(region).blocks[0];

    // Pass 1: collect inputs and outputs to build the signature.
    let mut input_types = Vec::new();
    let mut output_types = Vec::new();
    for &op in &src.block(body).ops {
        let o = src.op(op).expect("live");
        match o.name.as_str() {
            "ekl.input" => input_types.push(memref_of(src.value_type(o.results[0]))?),
            "ekl.output" => output_types.push(memref_of(src.value_type(o.operands[0]))?),
            _ => {}
        }
    }

    // The lowering emits a bounded number of ops per source op; size the
    // destination arenas once instead of regrowing mid-build.
    let mut dst = Module::with_capacity(4 * src.block(body).ops.len());
    let top = dst.top_block();
    let all_args: Vec<Type> = input_types.iter().chain(&output_types).cloned().collect();
    let (_f, entry) = crate::dialects::core::build_func(&mut dst, top, kernel, &all_args, &[]);

    let mut lowerer = Lowerer {
        src,
        dst,
        entry,
        map: HashMap::new(),
    };

    let mut next_input = 0usize;
    let mut next_output = input_types.len();
    for &op in &src.block(body).ops {
        let o = src.op(op).expect("live");
        match o.name.as_str() {
            "ekl.input" => {
                let arg = lowerer.dst.block(entry).args[next_input];
                next_input += 1;
                lowerer.map.insert(o.results[0], arg);
            }
            "ekl.output" => {
                let arg = lowerer.dst.block(entry).args[next_output];
                next_output += 1;
                let value = lowerer.mapped(o.operands[0])?;
                lowerer
                    .dst
                    .build_op("memref.copy", [value, arg], [])
                    .append_to(entry);
            }
            "ekl.yield" => {}
            _ => lowerer.lower_op(op)?,
        }
    }
    let mut dst = lowerer.dst;
    dst.build_op("func.return", [], []).append_to(entry);
    Ok(dst)
}

fn memref_of(ty: &Type) -> IrResult<Type> {
    let shape = static_shape(ty)?;
    let elem = ty
        .elem()
        .cloned()
        .ok_or_else(|| IrError::Type(format!("expected tensor type, got {ty}")))?;
    Ok(Type::memref(&shape, elem, MemorySpace::Device))
}

fn static_shape(ty: &Type) -> IrResult<Vec<u64>> {
    ty.shape()
        .ok_or_else(|| IrError::Type(format!("expected shaped type, got {ty}")))?
        .iter()
        .map(|d| d.ok_or_else(|| IrError::Type("dynamic shapes unsupported in lowering".into())))
        .collect()
}

struct Lowerer<'s> {
    src: &'s Module,
    dst: Module,
    entry: BlockId,
    /// tensor SSA value in `src` → memref value in `dst`.
    map: HashMap<ValueId, ValueId>,
}

impl<'s> Lowerer<'s> {
    fn mapped(&self, v: ValueId) -> IrResult<ValueId> {
        self.map
            .get(&v)
            .copied()
            .ok_or_else(|| IrError::Malformed(format!("value {v} not lowered yet")))
    }

    fn alloc_result(&mut self, src_value: ValueId) -> IrResult<ValueId> {
        let ty = memref_of(self.src.value_type(src_value))?;
        let op = self
            .dst
            .build_op("memref.alloc", [], [ty])
            .append_to(self.entry);
        let v = single_result(&self.dst, op);
        self.map.insert(src_value, v);
        Ok(v)
    }

    /// Builds a loop nest over `bounds` in `block`; returns the induction
    /// variables and the innermost body. Yields are appended afterwards by
    /// [`Lowerer::close_loop_nest`].
    fn open_loop_nest(&mut self, block: BlockId, bounds: &[u64]) -> (Vec<ValueId>, Vec<BlockId>) {
        let mut ivs = Vec::new();
        let mut bodies = Vec::new();
        let mut current = block;
        for &bound in bounds {
            let lb = const_index(&mut self.dst, current, 0);
            let ub = const_index(&mut self.dst, current, bound as i64);
            let step = const_index(&mut self.dst, current, 1);
            let (_op, body) = build_for(&mut self.dst, current, lb, ub, step);
            ivs.push(self.dst.block(body).args[0]);
            bodies.push(body);
            current = body;
        }
        (ivs, bodies)
    }

    fn close_loop_nest(&mut self, bodies: &[BlockId]) {
        for &body in bodies.iter().rev() {
            self.dst.build_op("scf.yield", [], []).append_to(body);
        }
    }

    /// Loads `memref[indices]` in `block`.
    fn load(&mut self, block: BlockId, memref: ValueId, indices: &[ValueId]) -> ValueId {
        let elem = self
            .dst
            .value_type(memref)
            .elem()
            .cloned()
            .expect("memref has element type");
        let mut operands = vec![memref];
        operands.extend_from_slice(indices);
        let op = self
            .dst
            .build_op("memref.load", operands, [elem])
            .append_to(block);
        single_result(&self.dst, op)
    }

    fn store(&mut self, block: BlockId, value: ValueId, memref: ValueId, indices: &[ValueId]) {
        let mut operands = vec![value, memref];
        operands.extend_from_slice(indices);
        self.dst
            .build_op("memref.store", operands, [])
            .append_to(block);
    }

    /// Broadcast-aware indices: maps output ivs (length = out rank) onto an
    /// input of `in_shape` aligned at the trailing dimensions.
    fn broadcast_indices(
        &mut self,
        block: BlockId,
        out_ivs: &[ValueId],
        out_shape: &[u64],
        in_shape: &[u64],
    ) -> Vec<ValueId> {
        let offset = out_shape.len() - in_shape.len();
        let mut indices = Vec::with_capacity(in_shape.len());
        for (j, &dim) in in_shape.iter().enumerate() {
            let out_dim = out_shape[offset + j];
            if dim == 1 && out_dim != 1 {
                indices.push(const_index(&mut self.dst, block, 0));
            } else {
                indices.push(out_ivs[offset + j]);
            }
        }
        indices
    }

    fn lower_op(&mut self, op: OpId) -> IrResult<()> {
        let o = self.src.op(op).expect("live").clone();
        match o.name.as_str() {
            "teil.constant" => {
                let result = self.alloc_result(o.results[0])?;
                let alloc_op = match self.dst.value(result).def {
                    crate::module::ValueDef::OpResult { op, .. } => op,
                    _ => unreachable!("alloc result is an op result"),
                };
                let attr_name = match o.attr("value") {
                    Some(Attribute::DenseF64(_)) => "init",
                    Some(Attribute::DenseI64(_)) => "init_i64",
                    _ => {
                        return Err(IrError::Type(
                            "teil.constant needs a dense value attribute".into(),
                        ))
                    }
                };
                let value = o.attr("value").cloned().expect("checked above");
                self.dst
                    .op_mut(alloc_op)
                    .expect("live")
                    .attributes
                    .insert(attr_name, value);
                Ok(())
            }
            "teil.add" | "teil.sub" | "teil.mul" | "teil.div" | "teil.max" | "teil.min" => {
                let arith = match o.name.as_str() {
                    "teil.add" => "arith.addf",
                    "teil.sub" => "arith.subf",
                    "teil.mul" => "arith.mulf",
                    "teil.div" => "arith.divf",
                    "teil.max" => "arith.maxf",
                    _ => "arith.minf",
                };
                self.lower_elementwise_binary(&o, arith)
            }
            "teil.cmp" => {
                let a_shape = static_shape(self.src.value_type(o.operands[0]))?;
                let b_shape = static_shape(self.src.value_type(o.operands[1]))?;
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let _ = broadcast_shapes(
                    &a_shape.iter().map(|&d| Some(d)).collect::<Vec<_>>(),
                    &b_shape.iter().map(|&d| Some(d)).collect::<Vec<_>>(),
                )?;
                let a = self.mapped(o.operands[0])?;
                let b = self.mapped(o.operands[1])?;
                let out = self.alloc_result(o.results[0])?;
                let pred = o
                    .str_attr("predicate")
                    .ok_or_else(|| IrError::Type("cmp missing predicate".into()))?
                    .to_string();
                let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
                let inner = *bodies.last().unwrap_or(&self.entry);
                let ai = self.broadcast_indices(inner, &ivs, &out_shape, &a_shape);
                let bi = self.broadcast_indices(inner, &ivs, &out_shape, &b_shape);
                let av = self.load(inner, a, &ai);
                let bv = self.load(inner, b, &bi);
                let cmp = self
                    .dst
                    .build_op("arith.cmpf", [av, bv], [Type::bool()])
                    .attr("predicate", pred.as_str())
                    .append_to(inner);
                let cv = single_result(&self.dst, cmp);
                self.store(inner, cv, out, &ivs);
                self.close_loop_nest(&bodies);
                Ok(())
            }
            "teil.select" => {
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let c = self.mapped(o.operands[0])?;
                let a = self.mapped(o.operands[1])?;
                let b = self.mapped(o.operands[2])?;
                let c_shape = static_shape(self.src.value_type(o.operands[0]))?;
                let a_shape = static_shape(self.src.value_type(o.operands[1]))?;
                let b_shape = static_shape(self.src.value_type(o.operands[2]))?;
                let out = self.alloc_result(o.results[0])?;
                let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
                let inner = *bodies.last().unwrap_or(&self.entry);
                let ci = self.broadcast_indices(inner, &ivs, &out_shape, &c_shape);
                let ai = self.broadcast_indices(inner, &ivs, &out_shape, &a_shape);
                let bi = self.broadcast_indices(inner, &ivs, &out_shape, &b_shape);
                let cv = self.load(inner, c, &ci);
                let av = self.load(inner, a, &ai);
                let bv = self.load(inner, b, &bi);
                let elem = self.dst.value_type(av).clone();
                let sel = self
                    .dst
                    .build_op("arith.select", [cv, av, bv], [elem])
                    .append_to(inner);
                let sv = single_result(&self.dst, sel);
                self.store(inner, sv, out, &ivs);
                self.close_loop_nest(&bodies);
                Ok(())
            }
            "teil.transpose" => {
                let perm: Vec<usize> = o
                    .attr("perm")
                    .and_then(Attribute::as_array)
                    .ok_or_else(|| IrError::Type("transpose missing perm".into()))?
                    .iter()
                    .map(|a| a.as_int().unwrap_or(0) as usize)
                    .collect();
                let in_v = self.mapped(o.operands[0])?;
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let out = self.alloc_result(o.results[0])?;
                let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
                let inner = *bodies.last().unwrap_or(&self.entry);
                // out[i0..] = in[perm-applied]: in index at dim perm[k] = iv[k]
                let rank = perm.len();
                let mut in_indices = vec![ivs[0]; rank];
                for (k, &p) in perm.iter().enumerate() {
                    in_indices[p] = ivs[k];
                }
                let v = self.load(inner, in_v, &in_indices);
                self.store(inner, v, out, &ivs);
                self.close_loop_nest(&bodies);
                Ok(())
            }
            "teil.reshape" => {
                let in_shape = static_shape(self.src.value_type(o.operands[0]))?;
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let in_v = self.mapped(o.operands[0])?;
                let out = self.alloc_result(o.results[0])?;
                let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
                let inner = *bodies.last().unwrap_or(&self.entry);
                // linear = sum(iv_i * out_stride_i)
                let mut linear = const_index(&mut self.dst, inner, 0);
                for (k, &_dim) in out_shape.iter().enumerate() {
                    let stride: u64 = out_shape[k + 1..].iter().product();
                    let s = const_index(&mut self.dst, inner, stride as i64);
                    let mul = crate::dialects::core::binary(
                        &mut self.dst,
                        inner,
                        "arith.muli",
                        ivs[k],
                        s,
                    );
                    linear = crate::dialects::core::binary(
                        &mut self.dst,
                        inner,
                        "arith.addi",
                        linear,
                        mul,
                    );
                }
                // delinearize into input indices
                let mut in_indices = Vec::new();
                let mut rem = linear;
                for k in 0..in_shape.len() {
                    let stride: u64 = in_shape[k + 1..].iter().product();
                    let s = const_index(&mut self.dst, inner, stride as i64);
                    let q =
                        crate::dialects::core::binary(&mut self.dst, inner, "arith.divsi", rem, s);
                    in_indices.push(q);
                    rem =
                        crate::dialects::core::binary(&mut self.dst, inner, "arith.remsi", rem, s);
                }
                let v = self.load(inner, in_v, &in_indices);
                self.store(inner, v, out, &ivs);
                self.close_loop_nest(&bodies);
                Ok(())
            }
            "teil.gather" => {
                // out[iv_idx.., iv_rest..] = table[indices[iv_idx..], iv_rest..]
                let table_shape = static_shape(self.src.value_type(o.operands[0]))?;
                let idx_shape = static_shape(self.src.value_type(o.operands[1]))?;
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let table = self.mapped(o.operands[0])?;
                let indices = self.mapped(o.operands[1])?;
                let out = self.alloc_result(o.results[0])?;
                let expect_rank = idx_shape.len() + table_shape.len() - 1;
                if out_shape.len() != expect_rank {
                    return Err(IrError::Type(format!(
                        "gather result rank {} does not match expected {expect_rank}",
                        out_shape.len()
                    )));
                }
                let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
                let inner = *bodies.last().unwrap_or(&self.entry);
                let idx_ivs = &ivs[..idx_shape.len()];
                let rest_ivs = &ivs[idx_shape.len()..];
                let gathered = self.load(inner, indices, idx_ivs);
                let mut table_indices = vec![gathered];
                table_indices.extend_from_slice(rest_ivs);
                let v = self.load(inner, table, &table_indices);
                self.store(inner, v, out, &ivs);
                self.close_loop_nest(&bodies);
                Ok(())
            }
            "teil.reduce" => {
                let dims: Vec<usize> = o
                    .attr("dims")
                    .and_then(Attribute::as_array)
                    .ok_or_else(|| IrError::Type("reduce missing dims".into()))?
                    .iter()
                    .map(|a| a.as_int().unwrap_or(0) as usize)
                    .collect();
                let kind = o
                    .str_attr("kind")
                    .ok_or_else(|| IrError::Type("reduce missing kind".into()))?
                    .to_string();
                let in_shape = static_shape(self.src.value_type(o.operands[0]))?;
                let out_shape = static_shape(self.src.value_type(o.results[0]))?;
                let input = self.mapped(o.operands[0])?;
                let out = self.alloc_result(o.results[0])?;
                let kept: Vec<usize> = (0..in_shape.len()).filter(|d| !dims.contains(d)).collect();
                let red_bounds: Vec<u64> = dims.iter().map(|&d| in_shape[d]).collect();
                let count: u64 = red_bounds.iter().product();

                let (out_ivs, out_bodies) = self.open_loop_nest(self.entry, &out_shape);
                let out_inner = *out_bodies.last().unwrap_or(&self.entry);
                // rank-0 accumulator cell
                let acc_ty = Type::memref(&[], Type::F64, MemorySpace::Plm);
                let acc = crate::dialects::core::alloc(&mut self.dst, out_inner, acc_ty);
                let init = match kind.as_str() {
                    "sum" | "mean" => 0.0,
                    "max" => f64::NEG_INFINITY,
                    "min" => f64::INFINITY,
                    other => return Err(IrError::Type(format!("bad reduce kind '{other}'"))),
                };
                let init_v = crate::dialects::core::const_f64(&mut self.dst, out_inner, init);
                self.store(out_inner, init_v, acc, &[]);
                let (red_ivs, red_bodies) = self.open_loop_nest(out_inner, &red_bounds);
                let red_inner = *red_bodies.last().unwrap_or(&out_inner);
                // combined input indices
                let mut in_indices = vec![ivs_placeholder(); in_shape.len()];
                for (k, &d) in kept.iter().enumerate() {
                    in_indices[d] = out_ivs[k];
                }
                for (k, &d) in dims.iter().enumerate() {
                    in_indices[d] = red_ivs[k];
                }
                let v = self.load(red_inner, input, &in_indices);
                let cur = self.load(red_inner, acc, &[]);
                let combined = match kind.as_str() {
                    "sum" | "mean" => crate::dialects::core::binary(
                        &mut self.dst,
                        red_inner,
                        "arith.addf",
                        cur,
                        v,
                    ),
                    "max" => crate::dialects::core::binary(
                        &mut self.dst,
                        red_inner,
                        "arith.maxf",
                        cur,
                        v,
                    ),
                    _ => crate::dialects::core::binary(
                        &mut self.dst,
                        red_inner,
                        "arith.minf",
                        cur,
                        v,
                    ),
                };
                self.store(red_inner, combined, acc, &[]);
                self.close_loop_nest(&red_bodies);
                let mut final_v = self.load(out_inner, acc, &[]);
                if kind == "mean" {
                    let n =
                        crate::dialects::core::const_f64(&mut self.dst, out_inner, count as f64);
                    final_v = crate::dialects::core::binary(
                        &mut self.dst,
                        out_inner,
                        "arith.divf",
                        final_v,
                        n,
                    );
                }
                self.store(out_inner, final_v, out, &out_ivs);
                self.close_loop_nest(&out_bodies);
                Ok(())
            }
            "teil.contract" => {
                let lhs = o
                    .str_attr("lhs_indices")
                    .ok_or_else(|| IrError::Type("contract missing lhs_indices".into()))?;
                let rhs = o
                    .str_attr("rhs_indices")
                    .ok_or_else(|| IrError::Type("contract missing rhs_indices".into()))?;
                let out = o
                    .str_attr("out_indices")
                    .ok_or_else(|| IrError::Type("contract missing out_indices".into()))?;
                let notation = format!("{lhs},{rhs}->{out}");
                self.lower_einsum(&o.operands.clone(), o.results[0], &notation)
            }
            "esn.einsum" => {
                let notation = o
                    .str_attr("notation")
                    .ok_or_else(|| IrError::Type("einsum missing notation".into()))?
                    .to_string();
                self.lower_einsum(&o.operands.clone(), o.results[0], &notation)
            }
            other => Err(IrError::Type(format!(
                "teil-to-loops lowering does not support '{other}'"
            ))),
        }
    }

    fn lower_elementwise_binary(
        &mut self,
        o: &crate::module::Operation,
        arith: &str,
    ) -> IrResult<()> {
        let a_shape = static_shape(self.src.value_type(o.operands[0]))?;
        let b_shape = static_shape(self.src.value_type(o.operands[1]))?;
        let out_shape = static_shape(self.src.value_type(o.results[0]))?;
        let a = self.mapped(o.operands[0])?;
        let b = self.mapped(o.operands[1])?;
        let out = self.alloc_result(o.results[0])?;
        let (ivs, bodies) = self.open_loop_nest(self.entry, &out_shape);
        let inner = *bodies.last().unwrap_or(&self.entry);
        let ai = self.broadcast_indices(inner, &ivs, &out_shape, &a_shape);
        let bi = self.broadcast_indices(inner, &ivs, &out_shape, &b_shape);
        let av = self.load(inner, a, &ai);
        let bv = self.load(inner, b, &bi);
        let rv = crate::dialects::core::binary(&mut self.dst, inner, arith, av, bv);
        self.store(inner, rv, out, &ivs);
        self.close_loop_nest(&bodies);
        Ok(())
    }

    fn lower_einsum(
        &mut self,
        operands: &[ValueId],
        result: ValueId,
        notation: &str,
    ) -> IrResult<()> {
        let (input_ixs, out_ix) = parse_einsum_notation(notation)?;
        if input_ixs.len() != operands.len() {
            return Err(IrError::Type("einsum operand count mismatch".into()));
        }
        // Determine extents per index letter.
        let mut extent: HashMap<char, u64> = HashMap::new();
        for (ix, &operand) in input_ixs.iter().zip(operands) {
            let shape = static_shape(self.src.value_type(operand))?;
            for (c, &d) in ix.iter().zip(&shape) {
                match extent.get(c) {
                    Some(&prev) if prev != d => {
                        return Err(IrError::Type(format!(
                            "einsum index '{c}' bound to both {prev} and {d}"
                        )))
                    }
                    _ => {
                        extent.insert(*c, d);
                    }
                }
            }
        }
        let mut sum_ix: Vec<char> = Vec::new();
        for ix in &input_ixs {
            for c in ix {
                if !out_ix.contains(c) && !sum_ix.contains(c) {
                    sum_ix.push(*c);
                }
            }
        }
        let out_bounds: Vec<u64> = out_ix.iter().map(|c| extent[c]).collect();
        let sum_bounds: Vec<u64> = sum_ix.iter().map(|c| extent[c]).collect();

        let inputs: Vec<ValueId> = operands
            .iter()
            .map(|&v| self.mapped(v))
            .collect::<IrResult<_>>()?;
        let out = self.alloc_result(result)?;

        let (out_ivs, out_bodies) = self.open_loop_nest(self.entry, &out_bounds);
        let out_inner = *out_bodies.last().unwrap_or(&self.entry);
        let acc_ty = Type::memref(&[], Type::F64, MemorySpace::Plm);
        let acc = crate::dialects::core::alloc(&mut self.dst, out_inner, acc_ty);
        let zero = crate::dialects::core::const_f64(&mut self.dst, out_inner, 0.0);
        self.store(out_inner, zero, acc, &[]);

        let (sum_ivs, sum_bodies) = self.open_loop_nest(out_inner, &sum_bounds);
        let sum_inner = *sum_bodies.last().unwrap_or(&out_inner);

        let iv_of = |c: &char| -> ValueId {
            if let Some(pos) = out_ix.iter().position(|x| x == c) {
                out_ivs[pos]
            } else {
                let pos = sum_ix
                    .iter()
                    .position(|x| x == c)
                    .expect("index classified");
                sum_ivs[pos]
            }
        };

        let mut product: Option<ValueId> = None;
        for (ix, &input) in input_ixs.iter().zip(&inputs) {
            let indices: Vec<ValueId> = ix.iter().map(iv_of).collect();
            let v = self.load(sum_inner, input, &indices);
            product = Some(match product {
                None => v,
                Some(p) => {
                    crate::dialects::core::binary(&mut self.dst, sum_inner, "arith.mulf", p, v)
                }
            });
        }
        let product = product.ok_or_else(|| IrError::Type("einsum with no inputs".into()))?;
        let cur = self.load(sum_inner, acc, &[]);
        let next =
            crate::dialects::core::binary(&mut self.dst, sum_inner, "arith.addf", cur, product);
        self.store(sum_inner, next, acc, &[]);
        self.close_loop_nest(&sum_bodies);

        let final_v = self.load(out_inner, acc, &[]);
        self.store(out_inner, final_v, out, &out_ivs);
        self.close_loop_nest(&out_bodies);
        Ok(())
    }
}

fn ivs_placeholder() -> ValueId {
    ValueId::from_raw(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Buffer, Interpreter, Value};
    use crate::registry::Context;
    use crate::verify::verify_module;

    /// Builds an ekl.kernel, returns (module, kernel body block).
    fn kernel(name: &str) -> (Module, BlockId) {
        let mut m = Module::new();
        let top = m.top_block();
        let k = m
            .build_op("ekl.kernel", [], [])
            .attr("sym_name", name)
            .regions(1)
            .append_to(top);
        let region = m.op(k).unwrap().regions[0];
        let body = m.add_block(region, &[]);
        (m, body)
    }

    fn input(m: &mut Module, body: BlockId, name: &str, shape: &[u64]) -> ValueId {
        let op = m
            .build_op("ekl.input", [], [Type::tensor(shape, Type::F64)])
            .attr("name", name)
            .append_to(body);
        single_result(m, op)
    }

    fn output(m: &mut Module, body: BlockId, name: &str, value: ValueId) {
        m.build_op("ekl.output", [value], [])
            .attr("name", name)
            .append_to(body);
    }

    fn run_lowered(
        lowered: &Module,
        name: &str,
        inputs: &[Buffer],
        out_shapes: &[&[u64]],
    ) -> Vec<Vec<f64>> {
        let mut interp = Interpreter::new();
        let mut args = Vec::new();
        for b in inputs {
            args.push(interp.alloc_buffer(b.clone()));
        }
        let mut out_handles = Vec::new();
        for s in out_shapes {
            let h = interp.alloc_buffer(Buffer::zeros(s));
            out_handles.push(h.clone());
            args.push(h);
        }
        interp.run_function(lowered, name, &args).unwrap();
        out_handles
            .iter()
            .map(|h| {
                let Value::Buffer(i) = h else { unreachable!() };
                interp.buffer(*i).data.clone()
            })
            .collect()
    }

    #[test]
    fn lower_elementwise_add_with_broadcast() {
        let (mut m, body) = kernel("addk");
        let a = input(&mut m, body, "a", &[2, 3]);
        let b = input(&mut m, body, "b", &[1, 3]);
        let sum = m
            .build_op("teil.add", [a, b], [Type::tensor(&[2, 3], Type::F64)])
            .append_to(body);
        let sv = single_result(&m, sum);
        output(&mut m, body, "out", sv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "addk").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();

        let a_buf = Buffer::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b_buf = Buffer::from_data(&[1, 3], vec![10.0, 20.0, 30.0]);
        let outs = run_lowered(&lowered, "addk", &[a_buf, b_buf], &[&[2, 3]]);
        assert_eq!(outs[0], vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn lower_matmul_einsum() {
        let (mut m, body) = kernel("mm");
        let a = input(&mut m, body, "a", &[2, 3]);
        let b = input(&mut m, body, "b", &[3, 2]);
        let mm = m
            .build_op("esn.einsum", [a, b], [Type::tensor(&[2, 2], Type::F64)])
            .attr("notation", "ij,jk->ik")
            .append_to(body);
        let mv = single_result(&m, mm);
        output(&mut m, body, "c", mv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "mm").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();

        let a_buf = Buffer::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b_buf = Buffer::from_data(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let outs = run_lowered(&lowered, "mm", &[a_buf, b_buf], &[&[2, 2]]);
        // [[58, 64], [139, 154]]
        assert_eq!(outs[0], vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn lower_reduce_sum_and_mean() {
        let (mut m, body) = kernel("red");
        let a = input(&mut m, body, "a", &[2, 4]);
        let s = m
            .build_op("teil.reduce", [a], [Type::tensor(&[2], Type::F64)])
            .attr("dims", Attribute::int_array([1]))
            .attr("kind", "sum")
            .append_to(body);
        let sv = single_result(&m, s);
        let mean = m
            .build_op("teil.reduce", [a], [Type::tensor(&[2], Type::F64)])
            .attr("dims", Attribute::int_array([1]))
            .attr("kind", "mean")
            .append_to(body);
        let mv = single_result(&m, mean);
        output(&mut m, body, "sum", sv);
        output(&mut m, body, "mean", mv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "red").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();
        let a_buf = Buffer::from_data(&[2, 4], vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let outs = run_lowered(&lowered, "red", &[a_buf], &[&[2], &[2]]);
        assert_eq!(outs[0], vec![10.0, 100.0]);
        assert_eq!(outs[1], vec![2.5, 25.0]);
    }

    #[test]
    fn lower_gather_subscripted_subscripts() {
        // out[i] = table[idx[i]] — the paper's "subscripted subscripts".
        let (mut m, body) = kernel("gat");
        let table = input(&mut m, body, "table", &[5]);
        let blk = body;
        let idx_op = m
            .build_op("teil.constant", [], [Type::tensor(&[3], Type::Int(32))])
            .attr("value", Attribute::DenseI64(vec![4, 0, 2]))
            .append_to(blk);
        let idx = single_result(&m, idx_op);
        let g = m
            .build_op("teil.gather", [table, idx], [Type::tensor(&[3], Type::F64)])
            .attr("axis", Attribute::Int(0))
            .append_to(body);
        let gv = single_result(&m, g);
        output(&mut m, body, "out", gv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "gat").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();
        let table_buf = Buffer::from_data(&[5], vec![10.0, 11.0, 12.0, 13.0, 14.0]);
        let outs = run_lowered(&lowered, "gat", &[table_buf], &[&[3]]);
        assert_eq!(outs[0], vec![14.0, 10.0, 12.0]);
    }

    #[test]
    fn lower_select_and_cmp() {
        // out = select(a > b, a, b)  == elementwise max
        let (mut m, body) = kernel("selk");
        let a = input(&mut m, body, "a", &[4]);
        let b = input(&mut m, body, "b", &[4]);
        let cmp = m
            .build_op("teil.cmp", [a, b], [Type::tensor(&[4], Type::Int(1))])
            .attr("predicate", "gt")
            .append_to(body);
        let cv = single_result(&m, cmp);
        let sel = m
            .build_op("teil.select", [cv, a, b], [Type::tensor(&[4], Type::F64)])
            .append_to(body);
        let sv = single_result(&m, sel);
        output(&mut m, body, "out", sv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "selk").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();
        let a_buf = Buffer::from_data(&[4], vec![1.0, 5.0, 3.0, 0.0]);
        let b_buf = Buffer::from_data(&[4], vec![2.0, 4.0, 3.0, -1.0]);
        let outs = run_lowered(&lowered, "selk", &[a_buf, b_buf], &[&[4]]);
        assert_eq!(outs[0], vec![2.0, 5.0, 3.0, 0.0]);
    }

    #[test]
    fn lower_transpose_and_reshape() {
        let (mut m, body) = kernel("tr");
        let a = input(&mut m, body, "a", &[2, 3]);
        let t = m
            .build_op("teil.transpose", [a], [Type::tensor(&[3, 2], Type::F64)])
            .attr("perm", Attribute::int_array([1, 0]))
            .append_to(body);
        let tv = single_result(&m, t);
        let r = m
            .build_op("teil.reshape", [tv], [Type::tensor(&[6], Type::F64)])
            .append_to(body);
        let rv = single_result(&m, r);
        output(&mut m, body, "out", rv);
        m.build_op("ekl.yield", [], []).append_to(body);

        let lowered = lower_kernel_to_loops(&m, "tr").unwrap();
        verify_module(&Context::with_all_dialects(), &lowered).unwrap();
        let a_buf = Buffer::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let outs = run_lowered(&lowered, "tr", &[a_buf], &[&[6]]);
        // transpose: [[1,4],[2,5],[3,6]] then flatten
        assert_eq!(outs[0], vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn lowering_missing_kernel_errors() {
        let m = Module::new();
        assert!(lower_kernel_to_loops(&m, "ghost").is_err());
    }
}
