//! Textual printing of modules in MLIR generic form.
//!
//! Every op prints as
//! `%r0, %r1 = "dialect.op"(%a, %b) ({ ...regions... }) {attrs} : (tys) -> (tys)`
//! which the parser in [`crate::parse`] can read back. Printing is
//! deterministic (attributes are sorted), so printed text is usable as a
//! stable golden-file format in tests.
//!
//! The printer writes straight into its output `String`: value numbers,
//! op names, attribute keys, types and every attribute but a float are
//! spelt without `core::fmt`, through the same writers
//! (`Type::write_to`,
//! `Attribute::write_to`) that
//! their `Display` calls.

use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::module::Module;
use crate::types::write_u64;

/// Bytes of text one op prints as, near enough that the output buffer
/// grows at most once or twice (the corpus kernels average ~75).
const BYTES_PER_OP: usize = 96;

/// A value the printer has not met yet (a `ValueId` is a `u32`, so no
/// module has this many values to number).
const UNNAMED: u32 = u32::MAX;

/// Prints a whole module to text.
pub fn print_module(module: &Module) -> String {
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

/// Borrows everything it prints from the module; the only state of its
/// own is the output and the print number of each value, dense by
/// [`ValueId`].
struct Printer<'m> {
    module: &'m Module,
    names: Vec<u32>,
    next: u32,
    out: String,
}

impl<'m> Printer<'m> {
    /// The print number of `v`, assigned in order of first appearance.
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

    /// Writes `%a, %b, ...` for `values`.
    fn print_values(&mut self, values: &[ValueId]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.print_value(v);
        }
    }

    /// Writes `%n` for `v`.
    fn print_value(&mut self, v: ValueId) {
        let n = self.name(v);
        self.out.push('%');
        let _ = write_u64(&mut self.out, u64::from(n));
    }

    /// Writes `ty, ty, ...` for the types of `values`.
    fn print_types(&mut self, values: &[ValueId]) {
        let module = self.module;
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = module.value_type(v).write_to(&mut self.out);
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
            self.print_value(arg);
            self.out.push_str(": ");
            let _ = module.value_type(arg).write_to(&mut self.out);
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
        // `module` outlives `self`'s borrow, so the op is read in place.
        let module = self.module;
        let Some(operation) = module.op(op) else {
            return;
        };
        self.indent(level);
        if !operation.results.is_empty() {
            self.print_values(&operation.results);
            self.out.push_str(" = ");
        }
        self.out.push('"');
        self.out.push_str(operation.name.as_str());
        self.out.push_str("\"(");
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
                self.out.push_str(k);
                self.out.push_str(" = ");
                let _ = v.write_to(&mut self.out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::dialects::core;
    use crate::module::single_result;
    use crate::types::Type;

    #[test]
    fn print_flat_ops() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        let add = m.build_op("arith.addf", [a, b], [Type::F64]).append_to(top);
        let _ = add;
        let text = print_module(&m);
        assert!(text.contains("\"arith.constant\"() {value = 1.0} : () -> (f64)"));
        assert!(text.contains("%2 = \"arith.addf\"(%0, %1)"));
    }

    #[test]
    fn print_nested_regions() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = core::build_func(&mut m, top, "main", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let neg = m.build_op("arith.negf", [x], [Type::F64]).append_to(entry);
        let nv = single_result(&m, neg);
        m.build_op("func.return", [nv], []).append_to(entry);
        let text = print_module(&m);
        assert!(text.contains("\"func.func\"() ({"));
        assert!(text.contains("^bb(%0: f64):"));
        assert!(text.contains("sym_name = \"main\""));
        assert!(text.contains("function_type = (f64) -> (f64)"));
    }

    #[test]
    fn printing_is_deterministic() {
        let mut m = Module::new();
        let top = m.top_block();
        let op = m
            .build_op("olympus.kernel", [], [])
            .attr("target", "alveo_u55c")
            .attr("kernel", Attribute::SymbolRef("k".into()))
            .append_to(top);
        let _ = op;
        let a = print_module(&m);
        let b = print_module(&m);
        assert_eq!(a, b);
        // attrs print sorted by key: kernel before target
        let ki = a.find("kernel = @k").unwrap();
        let ti = a.find("target = ").unwrap();
        assert!(ki < ti);
    }

    #[test]
    fn erased_ops_do_not_print() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let _ = a;
        let c = m.block(top).ops[0];
        m.erase_op(c).unwrap();
        let text = print_module(&m);
        assert!(!text.contains("arith.constant"));
    }
}
