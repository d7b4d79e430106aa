//! Reference interpreter for loop-level IR.
//!
//! Executes functions consisting of `scf.for`/`scf.if`, `arith`, `memref`
//! and `base2` ops on concrete buffers. This is the functional-simulation
//! backend the HLS flow uses to check that scheduling transformations
//! preserve semantics, and the oracle EKL's lowering to loops is tested
//! against (its module runs here and must match EKL's own evaluator).

use std::collections::HashMap;

use crate::attr::Attribute;
use crate::base2::{Fixed, Posit};
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, ValueId};
use crate::module::Module;
use crate::types::Type;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Floats, fixed and posit values evaluate in f64 precision unless the
    /// op is a `base2` op (which re-quantizes at every step).
    F64(f64),
    /// Integers and booleans (i1).
    I64(i64),
    /// Index values.
    Index(i64),
    /// A handle to a buffer in the interpreter heap.
    Buffer(usize),
}

impl Value {
    /// Extracts a float, accepting ints.
    pub fn as_f64(&self) -> IrResult<f64> {
        match self {
            Value::F64(v) => Ok(*v),
            Value::I64(v) | Value::Index(v) => Ok(*v as f64),
            Value::Buffer(_) => Err(IrError::Type("expected scalar, got buffer".into())),
        }
    }

    /// Extracts an integer, truncating floats.
    pub fn as_i64(&self) -> IrResult<i64> {
        match self {
            Value::I64(v) | Value::Index(v) => Ok(*v),
            Value::F64(v) => Ok(*v as i64),
            Value::Buffer(_) => Err(IrError::Type("expected scalar, got buffer".into())),
        }
    }
}

/// A flat buffer with a shape (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Static shape.
    pub shape: Vec<u64>,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Buffer {
    /// Creates a zero-filled buffer.
    pub fn zeros(shape: &[u64]) -> Self {
        let n: u64 = shape.iter().product();
        Buffer {
            shape: shape.to_vec(),
            data: vec![0.0; n as usize],
        }
    }

    /// Creates a buffer from data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_data(shape: &[u64], data: Vec<f64>) -> Self {
        let n: u64 = shape.iter().product();
        assert_eq!(n as usize, data.len(), "data length must match shape");
        Buffer {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Row-major linear offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error when an index is out of bounds.
    pub fn offset(&self, indices: &[i64]) -> IrResult<usize> {
        if indices.len() != self.shape.len() {
            return Err(IrError::Type(format!(
                "rank {} buffer indexed with {} indices",
                self.shape.len(),
                indices.len()
            )));
        }
        let mut off = 0usize;
        for (i, (&idx, &dim)) in indices.iter().zip(&self.shape).enumerate() {
            if idx < 0 || idx as u64 >= dim {
                return Err(IrError::Type(format!(
                    "index {idx} out of bounds for dim {i} of extent {dim}"
                )));
            }
            off = off * dim as usize + idx as usize;
        }
        Ok(off)
    }
}

/// Interpreter state: SSA environment plus a buffer heap.
#[derive(Debug, Default)]
pub struct Interpreter {
    env: HashMap<ValueId, Value>,
    heap: Vec<Buffer>,
    /// Count of executed operations (used by tests and cost models).
    pub ops_executed: u64,
}

impl Interpreter {
    /// Creates an empty interpreter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a buffer and returns its handle value.
    pub fn alloc_buffer(&mut self, buffer: Buffer) -> Value {
        self.heap.push(buffer);
        Value::Buffer(self.heap.len() - 1)
    }

    /// Reads a buffer by handle.
    ///
    /// # Panics
    ///
    /// Panics on a dangling handle (cannot occur for handles produced by
    /// this interpreter).
    pub fn buffer(&self, handle: usize) -> &Buffer {
        &self.heap[handle]
    }

    /// Runs the function named `symbol` with the given arguments.
    ///
    /// Buffer-typed arguments must be [`Value::Buffer`] handles obtained
    /// from [`Interpreter::alloc_buffer`].
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported ops, type mismatches or
    /// out-of-bounds accesses.
    pub fn run_function(
        &mut self,
        module: &Module,
        symbol: &str,
        args: &[Value],
    ) -> IrResult<Vec<Value>> {
        let func = module
            .lookup_symbol(symbol)
            .ok_or_else(|| IrError::InvalidId(format!("no function '{symbol}'")))?;
        let operation = module
            .op(func)
            .ok_or_else(|| IrError::InvalidId("function erased".into()))?;
        let region = operation.regions[0];
        let entry = module.region(region).blocks[0];
        let params = module.block(entry).args.clone();
        if params.len() != args.len() {
            return Err(IrError::Type(format!(
                "function '{symbol}' takes {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        for (p, a) in params.iter().zip(args) {
            self.env.insert(*p, a.clone());
        }
        self.run_block(module, entry)
    }

    fn get(&self, v: ValueId) -> IrResult<Value> {
        self.env
            .get(&v)
            .cloned()
            .ok_or_else(|| IrError::InvalidId(format!("undefined value {v}")))
    }

    /// Executes a block; returns terminator operands (`func.return` /
    /// `scf.yield` values).
    fn run_block(&mut self, module: &Module, block: BlockId) -> IrResult<Vec<Value>> {
        let ops = module.block(block).ops.clone();
        for op in ops {
            if let Some(result) = self.run_op(module, op)? {
                return Ok(result);
            }
        }
        Ok(Vec::new())
    }

    /// Executes one op. Returns `Some(values)` if it was a terminator.
    fn run_op(&mut self, module: &Module, op: OpId) -> IrResult<Option<Vec<Value>>> {
        self.ops_executed += 1;
        let operation = module
            .op(op)
            .ok_or_else(|| IrError::InvalidId("erased op in block".into()))?;
        let name = operation.name;
        let operands: Vec<Value> = operation
            .operands
            .iter()
            .map(|&v| self.get(v))
            .collect::<IrResult<_>>()?;
        let results = operation.results.clone();

        macro_rules! set {
            ($value:expr) => {{
                self.env.insert(results[0], $value);
            }};
        }

        match name.as_str() {
            // -- terminators -----------------------------------------------
            "func.return" | "scf.yield" => {
                return Ok(Some(operands));
            }
            // -- constants --------------------------------------------------
            "arith.constant" => {
                let attr = operation
                    .attr("value")
                    .ok_or_else(|| IrError::Type("constant without value".into()))?;
                let ty = module.value_type(results[0]).clone();
                let value = match (attr, &ty) {
                    (Attribute::Int(v), Type::Index) => Value::Index(*v),
                    (Attribute::Int(v), _) => Value::I64(*v),
                    (Attribute::Float(v), _) => Value::F64(*v),
                    _ => return Err(IrError::Type("unsupported constant".into())),
                };
                set!(value);
            }
            // -- float arithmetic -------------------------------------------
            "arith.addf" => set!(Value::F64(operands[0].as_f64()? + operands[1].as_f64()?)),
            "arith.subf" => set!(Value::F64(operands[0].as_f64()? - operands[1].as_f64()?)),
            "arith.mulf" => set!(Value::F64(operands[0].as_f64()? * operands[1].as_f64()?)),
            "arith.divf" => set!(Value::F64(operands[0].as_f64()? / operands[1].as_f64()?)),
            "arith.maxf" => set!(Value::F64(operands[0].as_f64()?.max(operands[1].as_f64()?))),
            "arith.minf" => set!(Value::F64(operands[0].as_f64()?.min(operands[1].as_f64()?))),
            "arith.negf" => set!(Value::F64(-operands[0].as_f64()?)),
            "arith.absf" => set!(Value::F64(operands[0].as_f64()?.abs())),
            "arith.sqrt" => set!(Value::F64(operands[0].as_f64()?.sqrt())),
            "arith.exp" => set!(Value::F64(operands[0].as_f64()?.exp())),
            "arith.log" => set!(Value::F64(operands[0].as_f64()?.ln())),
            // -- integer arithmetic -----------------------------------------
            "arith.addi" => {
                let v = operands[0].as_i64()? + operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            "arith.subi" => {
                let v = operands[0].as_i64()? - operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            "arith.muli" => {
                let v = operands[0].as_i64()? * operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            "arith.divsi" => {
                let b = operands[1].as_i64()?;
                if b == 0 {
                    return Err(IrError::Type("integer division by zero".into()));
                }
                let v = operands[0].as_i64()? / b;
                set!(self.int_like(module, results[0], v));
            }
            "arith.remsi" => {
                let b = operands[1].as_i64()?;
                if b == 0 {
                    return Err(IrError::Type("integer remainder by zero".into()));
                }
                let v = operands[0].as_i64()? % b;
                set!(self.int_like(module, results[0], v));
            }
            "arith.andi" => {
                let v = operands[0].as_i64()? & operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            "arith.ori" => {
                let v = operands[0].as_i64()? | operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            "arith.xori" => {
                let v = operands[0].as_i64()? ^ operands[1].as_i64()?;
                set!(self.int_like(module, results[0], v));
            }
            // -- comparisons & select ---------------------------------------
            "arith.cmpf" => {
                let pred = operation.str_attr("predicate").unwrap_or("eq");
                let (a, b) = (operands[0].as_f64()?, operands[1].as_f64()?);
                let r = match pred {
                    "eq" => a == b,
                    "ne" => a != b,
                    "lt" => a < b,
                    "le" => a <= b,
                    "gt" => a > b,
                    "ge" => a >= b,
                    other => return Err(IrError::Type(format!("bad predicate '{other}'"))),
                };
                set!(Value::I64(r as i64));
            }
            "arith.cmpi" => {
                let pred = operation.str_attr("predicate").unwrap_or("eq");
                let (a, b) = (operands[0].as_i64()?, operands[1].as_i64()?);
                let r = match pred {
                    "eq" => a == b,
                    "ne" => a != b,
                    "lt" => a < b,
                    "le" => a <= b,
                    "gt" => a > b,
                    "ge" => a >= b,
                    other => return Err(IrError::Type(format!("bad predicate '{other}'"))),
                };
                set!(Value::I64(r as i64));
            }
            "arith.select" => {
                let c = operands[0].as_i64()? != 0;
                set!(if c {
                    operands[1].clone()
                } else {
                    operands[2].clone()
                });
            }
            // -- casts -------------------------------------------------------
            "arith.index_cast" => set!(Value::Index(operands[0].as_i64()?)),
            "arith.sitofp" => set!(Value::F64(operands[0].as_i64()? as f64)),
            "arith.fptosi" => set!(Value::I64(operands[0].as_f64()? as i64)),
            "arith.extf" | "arith.truncf" => {
                let v = operands[0].as_f64()?;
                let v = if matches!(module.value_type(results[0]), Type::F32) {
                    v as f32 as f64
                } else {
                    v
                };
                set!(Value::F64(v));
            }
            // -- base2 -------------------------------------------------------
            "base2.quantize" | "base2.dequantize" | "base2.convert" => {
                let v = operands[0].as_f64()?;
                set!(Value::F64(self.requantize(module, results[0], v)));
            }
            "base2.add" | "base2.sub" | "base2.mul" | "base2.div" => {
                let ty = module.value_type(results[0]).clone();
                let (a, b) = (operands[0].as_f64()?, operands[1].as_f64()?);
                let v = match (&ty, name.as_str()) {
                    (Type::Fixed(fmt), op) => {
                        let fa = Fixed::from_f64(a, *fmt);
                        let fb = Fixed::from_f64(b, *fmt);
                        match op {
                            "base2.add" => fa.add(fb).to_f64(),
                            "base2.sub" => fa.sub(fb).to_f64(),
                            "base2.mul" => fa.mul(fb).to_f64(),
                            _ => fa.div(fb).to_f64(),
                        }
                    }
                    (Type::Posit(fmt), op) => {
                        let pa = Posit::from_f64(a, *fmt);
                        let pb = Posit::from_f64(b, *fmt);
                        match op {
                            "base2.add" => pa.add(pb).to_f64(),
                            "base2.sub" => pa.sub(pb).to_f64(),
                            "base2.mul" => pa.mul(pb).to_f64(),
                            _ => pa.div(pb).to_f64(),
                        }
                    }
                    _ => return Err(IrError::Type("base2 op on non-base2 type".into())),
                };
                set!(Value::F64(v));
            }
            // -- memref ------------------------------------------------------
            "memref.alloc" => {
                let ty = module.value_type(results[0]).clone();
                let shape: Vec<u64> = ty
                    .shape()
                    .ok_or_else(|| IrError::Type("alloc of non-memref".into()))?
                    .iter()
                    .map(|d| d.ok_or_else(|| IrError::Type("dynamic alloc unsupported".into())))
                    .collect::<IrResult<_>>()?;
                let mut buffer = Buffer::zeros(&shape);
                if let Some(init) = operation.attr("init").and_then(Attribute::as_dense_f64) {
                    if init.len() == buffer.data.len() {
                        buffer.data.copy_from_slice(init);
                    }
                }
                if let Some(init) = operation.attr("init_i64").and_then(Attribute::as_dense_i64) {
                    if init.len() == buffer.data.len() {
                        for (dst, &src) in buffer.data.iter_mut().zip(init) {
                            *dst = src as f64;
                        }
                    }
                }
                let handle = self.alloc_buffer(buffer);
                set!(handle);
            }
            "memref.dealloc" => {}
            "memref.load" => {
                let Value::Buffer(h) = operands[0] else {
                    return Err(IrError::Type("load from non-buffer".into()));
                };
                let indices: Vec<i64> = operands[1..]
                    .iter()
                    .map(Value::as_i64)
                    .collect::<IrResult<_>>()?;
                let off = self.heap[h].offset(&indices)?;
                let raw = self.heap[h].data[off];
                let value = match module.value_type(results[0]) {
                    Type::Int(_) | Type::Index => Value::I64(raw as i64),
                    _ => Value::F64(raw),
                };
                set!(value);
            }
            "memref.store" => {
                let Value::Buffer(h) = operands[1] else {
                    return Err(IrError::Type("store to non-buffer".into()));
                };
                let indices: Vec<i64> = operands[2..]
                    .iter()
                    .map(Value::as_i64)
                    .collect::<IrResult<_>>()?;
                let off = self.heap[h].offset(&indices)?;
                self.heap[h].data[off] = operands[0].as_f64()?;
            }
            "memref.copy" => {
                let (Value::Buffer(src), Value::Buffer(dst)) = (&operands[0], &operands[1]) else {
                    return Err(IrError::Type("copy needs two buffers".into()));
                };
                let data = self.heap[*src].data.clone();
                if data.len() != self.heap[*dst].data.len() {
                    return Err(IrError::Type("copy size mismatch".into()));
                }
                self.heap[*dst].data = data;
            }
            // -- control flow -----------------------------------------------
            "scf.for" => {
                let lb = operands[0].as_i64()?;
                let ub = operands[1].as_i64()?;
                let step = operands[2].as_i64()?;
                if step <= 0 {
                    return Err(IrError::Type("scf.for step must be positive".into()));
                }
                let mut carried: Vec<Value> = operands[3..].to_vec();
                let region = operation.regions[0];
                let body = module.region(region).blocks[0];
                let body_args = module.block(body).args.clone();
                let mut iv = lb;
                while iv < ub {
                    self.env.insert(body_args[0], Value::Index(iv));
                    for (arg, value) in body_args[1..].iter().zip(&carried) {
                        self.env.insert(*arg, value.clone());
                    }
                    let yielded = self.run_block(module, body)?;
                    carried = yielded;
                    iv += step;
                }
                for (r, value) in results.iter().zip(carried) {
                    self.env.insert(*r, value);
                }
            }
            "scf.if" => {
                let cond = operands[0].as_i64()? != 0;
                let region = operation.regions[if cond { 0 } else { 1 }];
                let blocks = module.region(region).blocks.clone();
                let yielded = if let Some(&b) = blocks.first() {
                    self.run_block(module, b)?
                } else {
                    Vec::new()
                };
                for (r, value) in results.iter().zip(yielded) {
                    self.env.insert(*r, value);
                }
            }
            other => {
                return Err(IrError::Type(format!(
                    "interpreter does not support op '{other}'"
                )));
            }
        }
        Ok(None)
    }

    fn int_like(&self, module: &Module, result: ValueId, v: i64) -> Value {
        match module.value_type(result) {
            Type::Index => Value::Index(v),
            _ => Value::I64(v),
        }
    }

    fn requantize(&self, module: &Module, result: ValueId, v: f64) -> f64 {
        match module.value_type(result) {
            Type::Fixed(fmt) => Fixed::from_f64(v, *fmt).to_f64(),
            Type::Posit(fmt) => Posit::from_f64(v, *fmt).to_f64(),
            Type::F32 => v as f32 as f64,
            _ => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::core::{binary, build_for, build_func, const_f64, const_index};
    use crate::module::single_result;

    #[test]
    fn run_scalar_function() {
        // f(x) = x * x + 1
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = build_func(&mut m, top, "sq1", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let xx = binary(&mut m, entry, "arith.mulf", x, x);
        let one = const_f64(&mut m, entry, 1.0);
        let r = binary(&mut m, entry, "arith.addf", xx, one);
        m.build_op("func.return", [r], []).append_to(entry);

        let mut interp = Interpreter::new();
        let out = interp.run_function(&m, "sq1", &[Value::F64(3.0)]).unwrap();
        assert_eq!(out, vec![Value::F64(10.0)]);
    }

    #[test]
    fn run_loop_accumulating_into_buffer() {
        // out[i] = 2 * i  for i in 0..8
        let mut m = Module::new();
        let top = m.top_block();
        let out_ty = Type::memref(&[8], Type::F64, crate::types::MemorySpace::Plm);
        let (_f, entry) = build_func(&mut m, top, "fill", &[out_ty], &[]);
        let out = m.block(entry).args[0];
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 8);
        let step = const_index(&mut m, entry, 1);
        let (_loop, body) = build_for(&mut m, entry, lb, ub, step);
        let iv = m.block(body).args[0];
        let ivf = m
            .build_op("arith.sitofp", [iv], [Type::F64])
            .append_to(body);
        let ivf = single_result(&m, ivf);
        let two = const_f64(&mut m, body, 2.0);
        let v = binary(&mut m, body, "arith.mulf", two, ivf);
        m.build_op("memref.store", [v, out, iv], []).append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [], []).append_to(entry);

        let mut interp = Interpreter::new();
        let buf = interp.alloc_buffer(Buffer::zeros(&[8]));
        interp
            .run_function(&m, "fill", std::slice::from_ref(&buf))
            .unwrap();
        let Value::Buffer(h) = buf else {
            unreachable!()
        };
        assert_eq!(
            interp.buffer(h).data,
            vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        );
    }

    #[test]
    fn loop_carried_values_via_iter_args() {
        // sum = for i in 0..5 iter(acc=0) { yield acc + i }
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = build_func(&mut m, top, "sum5", &[], &[Type::F64]);
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 5);
        let step = const_index(&mut m, entry, 1);
        let init = const_f64(&mut m, entry, 0.0);
        let loop_op = m
            .build_op("scf.for", [lb, ub, step, init], [Type::F64])
            .regions(1)
            .append_to(entry);
        let region = m.op(loop_op).unwrap().regions[0];
        let body = m.add_block(region, &[Type::Index, Type::F64]);
        let iv = m.block(body).args[0];
        let acc = m.block(body).args[1];
        let ivf = m
            .build_op("arith.sitofp", [iv], [Type::F64])
            .append_to(body);
        let ivf = single_result(&m, ivf);
        let next = binary(&mut m, body, "arith.addf", acc, ivf);
        m.build_op("scf.yield", [next], []).append_to(body);
        let result = single_result(&m, loop_op);
        m.build_op("func.return", [result], []).append_to(entry);

        let mut interp = Interpreter::new();
        let out = interp.run_function(&m, "sum5", &[]).unwrap();
        assert_eq!(out, vec![Value::F64(10.0)]);
    }

    #[test]
    fn scf_if_takes_correct_branch() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = build_func(&mut m, top, "abs", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let zero = const_f64(&mut m, entry, 0.0);
        let cmp = m
            .build_op("arith.cmpf", [x, zero], [Type::bool()])
            .attr("predicate", "lt")
            .append_to(entry);
        let cond = single_result(&m, cmp);
        let if_op = m
            .build_op("scf.if", [cond], [Type::F64])
            .regions(2)
            .append_to(entry);
        let then_region = m.op(if_op).unwrap().regions[0];
        let else_region = m.op(if_op).unwrap().regions[1];
        let then_bb = m.add_block(then_region, &[]);
        let neg = m
            .build_op("arith.negf", [x], [Type::F64])
            .append_to(then_bb);
        let nv = single_result(&m, neg);
        m.build_op("scf.yield", [nv], []).append_to(then_bb);
        let else_bb = m.add_block(else_region, &[]);
        m.build_op("scf.yield", [x], []).append_to(else_bb);
        let rv = single_result(&m, if_op);
        m.build_op("func.return", [rv], []).append_to(entry);

        let mut interp = Interpreter::new();
        assert_eq!(
            interp.run_function(&m, "abs", &[Value::F64(-4.0)]).unwrap(),
            vec![Value::F64(4.0)]
        );
        assert_eq!(
            interp.run_function(&m, "abs", &[Value::F64(5.0)]).unwrap(),
            vec![Value::F64(5.0)]
        );
    }

    #[test]
    fn base2_ops_requantize() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = build_func(&mut m, top, "q", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let fixed = Type::Fixed(crate::types::FixedFormat::signed(3, 4));
        let q = m
            .build_op("base2.quantize", [x], [fixed.clone()])
            .append_to(entry);
        let qv = single_result(&m, q);
        let d = m
            .build_op("base2.dequantize", [qv], [Type::F64])
            .append_to(entry);
        let dv = single_result(&m, d);
        m.build_op("func.return", [dv], []).append_to(entry);

        let mut interp = Interpreter::new();
        let out = interp.run_function(&m, "q", &[Value::F64(1.03)]).unwrap();
        // 1.03 quantized to 4 fractional bits = 16/16 = 1.0 (nearest is 16.48 -> 16)
        assert_eq!(out, vec![Value::F64(1.0)]);
    }

    #[test]
    fn out_of_bounds_load_errors() {
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[2], Type::F64, crate::types::MemorySpace::Host);
        let (_f, entry) = build_func(&mut m, top, "oob", &[ty], &[Type::F64]);
        let buf = m.block(entry).args[0];
        let i = const_index(&mut m, entry, 5);
        let load = m
            .build_op("memref.load", [buf, i], [Type::F64])
            .append_to(entry);
        let lv = single_result(&m, load);
        m.build_op("func.return", [lv], []).append_to(entry);

        let mut interp = Interpreter::new();
        let b = interp.alloc_buffer(Buffer::zeros(&[2]));
        let err = interp.run_function(&m, "oob", &[b]).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }
}
