//! The module printer `print_module` replaced, kept as the reference the
//! direct-write printer is held to byte for byte.
//!
//! Every value number, op name, attribute and type goes through
//! `core::fmt`: types and attributes through the `Display` spellings
//! they had, copied here as [`ty`] and [`attr`] so that the reference
//! does not lean on the code it checks; strings escape through two
//! `replace` calls.

use std::fmt::{self, Write as _};

use everest_ir::ids::{BlockId, OpId, RegionId, ValueId};
use everest_ir::module::Module;
use everest_ir::types::{MemorySpace, Type};
use everest_ir::Attribute;

/// Bytes of text one op prints as.
const BYTES_PER_OP: usize = 96;

/// A value the printer has not met yet.
const UNNAMED: u32 = u32::MAX;

/// Prints a whole module to text.
pub(crate) fn print_module(module: &Module) -> String {
    let mut printer = Printer {
        module,
        names: vec![UNNAMED; module.num_values()],
        next: 0,
        out: String::with_capacity(BYTES_PER_OP * module.num_ops()),
    };
    printer.out.push_str("module {\n");
    printer.print_block_body(module.top_block(), 1);
    printer.out.push_str("}\n");
    printer.out
}

/// `Type`'s `Display` as it was.
pub(crate) struct Ty<'a>(pub &'a Type);

/// `Attribute`'s `Display` as it was.
pub(crate) struct Attr<'a>(pub &'a Attribute);

/// `ty` spelt as the replaced `Display` spelt it.
pub(crate) fn ty(t: &Type) -> String {
    Ty(t).to_string()
}

/// `a` spelt as the replaced `Display` spelt it.
pub(crate) fn attr(a: &Attribute) -> String {
    Attr(a).to_string()
}

fn write_shape(f: &mut fmt::Formatter<'_>, shape: &[Option<u64>]) -> fmt::Result {
    for dim in shape {
        match dim {
            Some(d) => write!(f, "{d}x")?,
            None => write!(f, "?x")?,
        }
    }
    Ok(())
}

fn space(space: MemorySpace) -> &'static str {
    match space {
        MemorySpace::Host => "host",
        MemorySpace::Device => "device",
        MemorySpace::Plm => "plm",
    }
}

impl fmt::Display for Ty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Type::Int(w) => write!(f, "i{w}"),
            Type::F32 => write!(f, "f32"),
            Type::F64 => write!(f, "f64"),
            Type::Index => write!(f, "index"),
            Type::None => write!(f, "none"),
            Type::Fixed(fmt) => {
                let s = if fmt.signed { "s" } else { "u" };
                write!(f, "!base2.fixed<{s}{},{}>", fmt.int_bits, fmt.frac_bits)
            }
            Type::Posit(fmt) => write!(f, "!base2.posit<{},{}>", fmt.width, fmt.es),
            Type::Tensor { shape, elem } => {
                write!(f, "tensor<")?;
                write_shape(f, shape)?;
                write!(f, "{}>", Ty(elem))
            }
            Type::MemRef {
                shape,
                elem,
                space: s,
            } => {
                write!(f, "memref<")?;
                write_shape(f, shape)?;
                write!(f, "{}, {}>", Ty(elem), space(*s))
            }
            Type::Stream(elem) => write!(f, "!dfg.stream<{}>", Ty(elem)),
            Type::Token => write!(f, "!dfg.token"),
            Type::Function { inputs, outputs } => {
                write!(f, "(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Ty(t))?;
                }
                write!(f, ") -> (")?;
                for (i, t) in outputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Ty(t))?;
                }
                write!(f, ")")
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl fmt::Display for Attr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Float(v) => {
                if v.fract() != 0.0 || !v.is_finite() {
                    write!(f, "{v}")
                } else if v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:e}")
                }
            }
            Attribute::Str(s) => write!(f, "\"{}\"", escape(s)),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Ty(t) => write!(f, "{}", Ty(t)),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Attr(item))?;
                }
                write!(f, "]")
            }
            Attribute::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {}", Attr(v))?;
                }
                write!(f, "}}")
            }
            Attribute::SymbolRef(s) => write!(f, "@{s}"),
            Attribute::DenseF64(d) => {
                write!(f, "dense_f64<")?;
                for (i, v) in d.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
            Attribute::DenseI64(d) => {
                write!(f, "dense_i64<")?;
                for (i, v) in d.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

struct Printer<'m> {
    module: &'m Module,
    names: Vec<u32>,
    next: u32,
    out: String,
}

impl Printer<'_> {
    fn name(&mut self, v: ValueId) -> u32 {
        let slot = &mut self.names[v.index()];
        if *slot == UNNAMED {
            *slot = self.next;
            self.next += 1;
        }
        *slot
    }

    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    fn print_values(&mut self, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(v);
            let _ = write!(self.out, "%{n}");
        }
    }

    fn print_types(&mut self, values: &[ValueId]) {
        let module = self.module;
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{}", Ty(module.value_type(v)));
        }
    }

    fn print_block(&mut self, block: BlockId, level: usize) {
        let module = self.module;
        self.indent(level);
        self.out.push_str("^bb(");
        for (i, &arg) in module.block(block).args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(arg);
            let ty = Ty(module.value_type(arg));
            let _ = write!(self.out, "%{n}: {ty}");
        }
        self.out.push_str("):\n");
        self.print_block_body(block, level + 1);
    }

    fn print_block_body(&mut self, block: BlockId, level: usize) {
        let module = self.module;
        for &op in &module.block(block).ops {
            self.print_op(op, level);
        }
    }

    fn print_region(&mut self, region: RegionId, level: usize) {
        let module = self.module;
        self.out.push_str("({\n");
        for &block in &module.region(region).blocks {
            self.print_block(block, level + 1);
        }
        self.indent(level);
        self.out.push_str("})");
    }

    fn print_op(&mut self, op: OpId, level: usize) {
        let module = self.module;
        let Some(operation) = module.op(op) else {
            return;
        };
        self.indent(level);
        if !operation.results.is_empty() {
            self.print_values(&operation.results);
            self.out.push_str(" = ");
        }
        let _ = write!(self.out, "\"{}\"(", operation.name);
        self.print_values(&operation.operands);
        self.out.push(')');
        for &region in &operation.regions {
            self.out.push(' ');
            self.print_region(region, level);
        }
        if !operation.attributes.is_empty() {
            self.out.push_str(" {");
            for (i, (k, v)) in operation.attributes.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let _ = write!(self.out, "{k} = {}", Attr(v));
            }
            self.out.push('}');
        }
        self.out.push_str(" : (");
        self.print_types(&operation.operands);
        self.out.push_str(") -> (");
        self.print_types(&operation.results);
        self.out.push_str(")\n");
    }
}
