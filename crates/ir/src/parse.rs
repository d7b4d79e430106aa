//! Parsing of the generic textual form produced by [`crate::print`].
//!
//! The grammar is the MLIR generic form restricted to what the printer
//! emits:
//!
//! ```text
//! module    ::= "module" "{" op* "}"
//! op        ::= (results "=")? string "(" operands ")" region* attrs? ":" fnty
//! region    ::= "({" block+ "})"
//! block     ::= "^bb(" blockargs "):" op*
//! ```
//!
//! The parser reads the text once, byte by byte, by recursive descent:
//! every token is a slice of the input, an op is created as soon as its
//! name and operands are read, and each of its regions is filled as it is
//! parsed, so a block ends at the `^bb(` or `})` the parser reaches.
//! Whitespace is whatever `char::is_whitespace` accepts, and `//` starts
//! a comment that runs to the end of its line.
//!
//! A value is bound when it is defined, an op's results once its regions
//! are read: a use of an op's own result inside its regions is a use of
//! an undefined value, and a value number defined twice is an error.
//!
//! Round-tripping `parse(print(m))` preserves structure, which the test
//! suite exploits heavily (including property tests over random modules).

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::attr::{AttrMap, Attribute};
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, RegionId, ValueId};
use crate::module::Module;
use crate::types::{FixedFormat, MemorySpace, PositFormat, Type};
use crate::value_list::ValueList;

/// Parses the textual form of a module.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on any syntax error.
pub fn parse_module(text: &str) -> IrResult<Module> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        // About one value an op: the `%N` table is sized as the arenas are.
        values: Vec::with_capacity(text.len() / BYTES_PER_OP),
        results: Vec::new(),
        chars: None,
        keep_types: true,
        depth: 0,
    };
    // Pre-size the arenas so large round-trips don't regrow mid-parse.
    let mut module = Module::with_capacity(text.len() / BYTES_PER_OP);
    let keyword = p.ident()?;
    if keyword != "module" {
        return Err(p.error(format!("expected 'module', found '{keyword}'")));
    }
    p.expect("{")?;
    let top = module.top_block();
    p.ops(&mut module, top, false)?;
    p.expect("}")?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing input after module"));
    }
    Ok(module)
}

/// Deepest nesting of regions, types and attributes the parser follows.
const MAX_NESTING: usize = 64;

/// Fewest bytes of text an op prints as (the corpus kernels average ~75).
const BYTES_PER_OP: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// `%N` → ValueId mapping (dense, indexed by N).
    values: Vec<Option<ValueId>>,
    /// The `%N` of the results of every op being parsed, innermost last:
    /// an op's results are bound once its regions are read.
    results: Vec<usize>,
    /// The length of the text in chars, counted when first needed.
    chars: Option<usize>,
    /// `false` while an op's operand types are read: they are checked,
    /// then dropped, so a compound one is not built.
    keep_types: bool,
    /// Recursive productions currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: impl Into<String>) -> IrError {
        let before = &self.bytes[..self.pos.min(self.bytes.len())];
        IrError::Parse {
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let mut pos = self.pos;
        loop {
            match self.bytes.get(pos) {
                Some(b' ' | b'\t'..=b'\r') => pos += 1,
                Some(b'/') if self.bytes.get(pos + 1) == Some(&b'/') => {
                    let line = &self.bytes[pos..];
                    pos += line.iter().position(|&b| b == b'\n').unwrap_or(line.len());
                }
                Some(0x80..) => match self.text.get(pos..).and_then(|s| s.chars().next()) {
                    Some(c) if c.is_whitespace() => pos += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
    }

    fn expect(&mut self, token: &str) -> IrResult<()> {
        if self.eat(token) {
            return Ok(());
        }
        Err(self.error(
            match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
                Some(found) => format!("expected '{token}', found '{found}'"),
                None => format!("expected '{token}', found end of input"),
            },
        ))
    }

    /// Consumes `token` if it comes next, after any whitespace.
    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// Parses `item (',' item)* close`, or a bare `close`, and returns
    /// how many items it read; the opening delimiter is the caller's.
    fn list(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> IrResult<()>,
    ) -> IrResult<usize> {
        if self.eat(close) {
            return Ok(0);
        }
        let mut n = 0;
        loop {
            item(self)?;
            n += 1;
            if !self.eat(",") {
                self.expect(close)?;
                return Ok(n);
            }
        }
    }

    /// The run of bytes from the current one on that `part` accepts.
    fn take_while(&mut self, part: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&part) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn ident(&mut self) -> IrResult<&'a str> {
        self.skip_ws();
        let ident = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.');
        if ident.is_empty() {
            return Err(self.error("expected identifier"));
        }
        Ok(ident)
    }

    /// A quoted string: borrowed from the text unless it holds a `\"` or
    /// `\\` escape. A backslash before anything else is kept as it is.
    fn string(&mut self) -> IrResult<Cow<'a, str>> {
        self.expect("\"")?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => match self.bytes.get(self.pos + 1) {
                    Some(b'"' | b'\\') => {
                        let s = owned.get_or_insert_with(String::new);
                        s.push_str(&self.text[run..self.pos]);
                        // The escaped byte starts the next run.
                        run = self.pos + 1;
                        self.pos += 2;
                    }
                    Some(_) => self.pos += 1,
                    None => {
                        self.pos += 1;
                        return Err(self.error("unterminated escape"));
                    }
                },
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn value_ref(&mut self) -> IrResult<ValueId> {
        self.expect("%")?;
        let n = self.number()?;
        self.values
            .get(n)
            .copied()
            .flatten()
            .ok_or_else(|| self.error(format!("use of undefined value %{n}")))
    }

    fn bind(&mut self, n: usize, v: ValueId) -> IrResult<()> {
        if self.values.len() <= n {
            self.values.resize(n + 1, None);
        }
        if self.values[n].replace(v).is_some() {
            return Err(self.error(format!("redefinition of value %{n}")));
        }
        Ok(())
    }

    /// Parses the `N` of a `%N` definition. The printer numbers values
    /// densely, so a number past the length of the text (in chars) is
    /// malformed — and would size the `%N` table, so it is refused here.
    /// No text is shorter in chars than a quarter of its bytes.
    fn value_number(&mut self) -> IrResult<usize> {
        self.expect("%")?;
        let n = self.number()?;
        let text = self.text;
        let chars = || text.chars().count();
        if n >= self.bytes.len() / 4 && n >= *self.chars.get_or_insert_with(chars) {
            return Err(self.error(format!("value number %{n} out of range")));
        }
        Ok(n)
    }

    fn u32(&mut self) -> IrResult<u32> {
        let n = self.number()?;
        u32::try_from(n).map_err(|_| self.error("number out of range"))
    }

    /// Runs one level of a recursive production, refusing input nested
    /// deeper than any printed module so the parser cannot exhaust the
    /// stack.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> IrResult<T>) -> IrResult<T> {
        if self.depth == MAX_NESTING {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn number(&mut self) -> IrResult<usize> {
        self.skip_ws();
        let digits = self.take_while(|b| b.is_ascii_digit());
        if digits.is_empty() {
            return Err(self.error("expected a number"));
        }
        digits
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    /// A numeric literal: an optional `-`, then digits, `.` and exponent
    /// markers (an `e` or `E` may carry a sign).
    fn literal(&mut self) -> IrResult<&'a str> {
        self.skip_ws();
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => saw_digit = true,
                b'.' | b'e' | b'E' if matches!(self.bytes.get(self.pos + 1), Some(b'-' | b'+')) => {
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' => {}
                _ => break,
            }
            self.pos += 1;
        }
        if !saw_digit {
            return Err(self.error("expected a numeric literal"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// A float literal must denote a finite value: the printer has no
    /// spelling for the infinity an out-of-range literal rounds to.
    fn finite_f64(&self, tok: &str) -> IrResult<f64> {
        tok.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.error(format!("bad float literal '{tok}'")))
    }

    // -- types ---------------------------------------------------------------

    fn ty(&mut self) -> IrResult<Type> {
        self.nested(Self::ty_inner)
    }

    /// A type; while `keep_types` is off, a compound one is checked and
    /// answered as `Type::None`, with nothing allocated.
    fn ty_inner(&mut self) -> IrResult<Type> {
        self.skip_ws();
        if self.peek() == Some(b'(') {
            let inputs = self.types()?;
            if !self.eat("->") {
                return Err(self.error("expected '->' in function type"));
            }
            let outputs = self.types()?;
            return Ok(Type::Function { inputs, outputs });
        }
        if self.eat("!base2.fixed<") {
            let signed = self.peek() == Some(b's');
            if !signed && self.peek() != Some(b'u') {
                self.pos += usize::from(self.pos < self.bytes.len());
                return Err(self.error("expected 's' or 'u' in fixed format"));
            }
            self.pos += 1;
            let int_bits = self.u32()?;
            self.expect(",")?;
            let frac_bits = self.u32()?;
            self.expect(">")?;
            return Ok(Type::Fixed(FixedFormat {
                signed,
                int_bits,
                frac_bits,
            }));
        }
        if self.eat("!base2.posit<") {
            let width = self.u32()?;
            self.expect(",")?;
            let es = self.u32()?;
            self.expect(">")?;
            if width < 2 {
                return Err(self.error("posit width must be at least 2"));
            }
            return Ok(Type::Posit(PositFormat::new(width, es)));
        }
        if self.eat("!dfg.stream<") {
            let elem = self.ty()?;
            self.expect(">")?;
            return Ok(self.compound(|| Type::Stream(Box::new(elem))));
        }
        if self.eat("!dfg.token") {
            return Ok(Type::Token);
        }
        let ident = self.ident()?;
        match ident {
            "f32" => Ok(Type::F32),
            "f64" => Ok(Type::F64),
            "index" => Ok(Type::Index),
            "none" => Ok(Type::None),
            "tensor" => {
                self.expect("<")?;
                let (shape, elem) = self.shape_and_elem()?;
                self.expect(">")?;
                Ok(self.compound(|| Type::Tensor {
                    shape,
                    elem: Box::new(elem),
                }))
            }
            "memref" => {
                self.expect("<")?;
                let (shape, elem) = self.shape_and_elem()?;
                self.expect(",")?;
                let space = match self.ident()? {
                    "host" => MemorySpace::Host,
                    "device" => MemorySpace::Device,
                    "plm" => MemorySpace::Plm,
                    other => return Err(self.error(format!("unknown memory space '{other}'"))),
                };
                self.expect(">")?;
                Ok(self.compound(|| Type::MemRef {
                    shape,
                    elem: Box::new(elem),
                    space,
                }))
            }
            _ if ident.starts_with('i') => ident[1..]
                .parse()
                .map(Type::Int)
                .map_err(|_| self.error(format!("bad integer type '{ident}'"))),
            _ => Err(self.error(format!("unknown type '{ident}'"))),
        }
    }

    /// Builds a boxed type unless `keep_types` is off.
    fn compound(&self, build: impl FnOnce() -> Type) -> Type {
        if self.keep_types {
            build()
        } else {
            Type::None
        }
    }

    /// Parses `4x8xf64` / `?x4xi32` shape-plus-element inside `tensor<>`.
    fn shape_and_elem(&mut self) -> IrResult<(Vec<Option<u64>>, Type)> {
        let mut shape = Vec::new();
        loop {
            self.skip_ws();
            let dim = match self.peek() {
                Some(b'?') => {
                    self.pos += 1;
                    self.expect("x")?;
                    None
                }
                // A dimension is digits followed by 'x'; otherwise it is
                // the element type, which never starts with a digit.
                Some(b'0'..=b'9') => {
                    let save = self.pos;
                    let n = self.number()?;
                    if self.peek() != Some(b'x') {
                        self.pos = save;
                        return Ok((shape, self.ty()?));
                    }
                    self.pos += 1;
                    Some(n as u64)
                }
                _ => return Ok((shape, self.ty()?)),
            };
            if self.keep_types {
                shape.push(dim);
            }
        }
    }

    /// `(ty, ...)`.
    fn types(&mut self) -> IrResult<Vec<Type>> {
        let mut tys = Vec::new();
        self.expect("(")?;
        self.list(")", |p| {
            let ty = p.ty()?;
            if p.keep_types {
                tys.push(ty);
            }
            Ok(())
        })?;
        Ok(tys)
    }

    // -- attributes -----------------------------------------------------------

    fn attr(&mut self) -> IrResult<Attribute> {
        self.nested(Self::attr_inner)
    }

    fn attr_inner(&mut self) -> IrResult<Attribute> {
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'"') => Attribute::Str(self.string()?.into_owned()),
            Some(b'@') => {
                self.pos += 1;
                Attribute::SymbolRef(self.ident()?.to_owned())
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.list("]", |p| {
                    items.push(p.attr()?);
                    Ok(())
                })?;
                Attribute::Array(items)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.list("}", |p| {
                    let key = p.ident()?;
                    p.expect("=")?;
                    map.insert(key.to_owned(), p.attr()?);
                    Ok(())
                })?;
                Attribute::Dict(map)
            }
            Some(b'(' | b'!') => Attribute::from(self.ty()?),
            Some(b'-' | b'0'..=b'9') => {
                let tok = self.literal()?;
                if tok.contains(['.', 'e', 'E']) {
                    Attribute::Float(self.finite_f64(tok)?)
                } else {
                    let int = tok.parse();
                    Attribute::Int(
                        int.map_err(|_| self.error(format!("bad integer literal '{tok}'")))?,
                    )
                }
            }
            _ => {
                let save = self.pos;
                match self.ident()? {
                    "true" => Attribute::Bool(true),
                    "false" => Attribute::Bool(false),
                    "dense_f64" => {
                        let mut data = Vec::new();
                        self.expect("<")?;
                        self.list(">", |p| {
                            let tok = p.literal()?;
                            data.push(p.finite_f64(tok)?);
                            Ok(())
                        })?;
                        Attribute::DenseF64(data)
                    }
                    "dense_i64" => {
                        let mut data = Vec::new();
                        self.expect("<")?;
                        self.list(">", |p| {
                            let tok = p.literal()?;
                            let int = tok.parse();
                            data.push(
                                int.map_err(|_| p.error(format!("bad int '{tok}' in dense_i64")))?,
                            );
                            Ok(())
                        })?;
                        Attribute::DenseI64(data)
                    }
                    // Fall back to a type attribute (f64, i32, tensor<...>).
                    _ => {
                        self.pos = save;
                        Attribute::from(self.ty()?)
                    }
                }
            }
        })
    }

    // -- operations -----------------------------------------------------------

    /// Parses ops and appends them to `block` up to the token that ends
    /// it: `}` for the module's block, `^` (the next `^bb(`) or `})` for
    /// a block of a region.
    fn ops(&mut self, module: &mut Module, block: BlockId, in_region: bool) -> IrResult<()> {
        loop {
            self.skip_ws();
            match self.peek() {
                None if in_region => return Err(self.error("unterminated region")),
                None => return Err(self.error("expected '}'")),
                Some(b'}') if !in_region || self.bytes.get(self.pos + 1) == Some(&b')') => {
                    return Ok(())
                }
                Some(b'^') if in_region => return Ok(()),
                _ => self.nested(|p| p.op(module, block))?,
            }
        }
    }

    fn op(&mut self, module: &mut Module, block: BlockId) -> IrResult<()> {
        // Optional result list: %0, %1 = ...
        let mark = self.results.len();
        if self.peek() == Some(b'%') {
            loop {
                let n = self.value_number()?;
                self.results.push(n);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("=")?;
        }
        let name = self.string()?;
        let mut operands = ValueList::new();
        self.expect("(")?;
        self.list(")", |p| {
            operands.push(p.value_ref()?);
            Ok(())
        })?;
        let num_operands = operands.len();
        let op = module.create_op(&*name, operands, [], AttrMap::new(), 0);
        module.append_op(block, op);
        // Regions: zero or more "({ ... })".
        while self.eat("({") {
            let region = module.push_region(op);
            self.region(module, region)?;
        }
        // Attributes.
        let mut attrs = AttrMap::new();
        if self.eat("{") {
            self.list("}", |p| {
                let key = p.ident()?;
                p.expect("=")?;
                attrs.insert(key, p.attr()?);
                Ok(())
            })?;
        }
        if !attrs.is_empty() {
            module.op_mut(op).expect("just created").attributes = attrs;
        }
        // Trailing function type; the operand types are only checked.
        self.expect(":")?;
        self.expect("(")?;
        self.keep_types = false;
        let operand_types = self.list(")", |p| p.ty().map(drop));
        self.keep_types = true;
        let operand_types = operand_types?;
        if !self.eat("->") {
            return Err(self.error("expected '->' in op type"));
        }
        self.expect("(")?;
        let result_types = self.list(")", |p| {
            let ty = p.ty()?;
            module.push_result(op, ty);
            Ok(())
        })?;
        let result_names = self.results.len() - mark;
        if operand_types != num_operands {
            return Err(self.error(format!(
                "op '{name}' lists {operand_types} operand types for {num_operands} operands"
            )));
        }
        if result_types != result_names {
            return Err(self.error(format!(
                "op '{name}' lists {result_types} result types for {result_names} results"
            )));
        }
        let operation = module.op(op).expect("just created");
        for (i, &v) in operation.results.iter().enumerate() {
            self.bind(self.results[mark + i], v)?;
        }
        self.results.truncate(mark);
        Ok(())
    }

    /// Parses the blocks of a region up to its `})`; the `({` was
    /// already consumed.
    fn region(&mut self, module: &mut Module, region: RegionId) -> IrResult<()> {
        loop {
            if self.eat("})") {
                return Ok(());
            }
            if !self.eat("^bb(") {
                return Err(self.error("expected '^bb(' block header or '})'"));
            }
            let block = module.add_block(region, &[]);
            self.list(")", |p| {
                let n = p.value_number()?;
                p.expect(":")?;
                let arg = module.push_block_arg(block, p.ty()?);
                p.bind(n, arg)
            })?;
            self.expect(":")?;
            self.ops(module, block, true)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::core;
    use crate::module::single_result;
    use crate::print::print_module;
    use crate::registry::Context;
    use crate::verify::verify_module;

    fn roundtrip(m: &Module) -> Module {
        let text = print_module(m);
        match parse_module(&text) {
            Ok(parsed) => {
                assert_eq!(
                    print_module(&parsed),
                    text,
                    "round-trip must be a fixed point"
                );
                parsed
            }
            Err(e) => panic!("failed to parse printed module: {e}\n{text}"),
        }
    }

    #[test]
    fn parse_empty_module() {
        let m = parse_module("module {\n}\n").unwrap();
        assert_eq!(m.num_ops(), 0);
    }

    #[test]
    fn roundtrip_flat_arithmetic() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.5);
        let b = core::const_f64(&mut m, top, -2.25);
        let s = core::binary(&mut m, top, "arith.addf", a, b);
        let _ = core::binary(&mut m, top, "arith.mulf", s, a);
        let parsed = roundtrip(&m);
        assert_eq!(parsed.num_ops(), 4);
        verify_module(&Context::with_all_dialects(), &parsed).unwrap();
    }

    #[test]
    fn roundtrip_function_with_body() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = core::build_func(&mut m, top, "main", &[Type::F64], &[Type::F64]);
        let x = m.block(entry).args[0];
        let neg = m.build_op("arith.negf", [x], [Type::F64]).append_to(entry);
        let nv = single_result(&m, neg);
        m.build_op("func.return", [nv], []).append_to(entry);
        let parsed = roundtrip(&m);
        verify_module(&Context::with_all_dialects(), &parsed).unwrap();
        assert!(parsed.lookup_symbol("main").is_some());
    }

    #[test]
    fn roundtrip_nested_loops() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = core::build_func(&mut m, top, "loops", &[], &[]);
        let lb = core::const_index(&mut m, entry, 0);
        let ub = core::const_index(&mut m, entry, 8);
        let step = core::const_index(&mut m, entry, 1);
        let (_l1, body1) = core::build_for(&mut m, entry, lb, ub, step);
        let lb2 = core::const_index(&mut m, body1, 0);
        let ub2 = core::const_index(&mut m, body1, 4);
        let step2 = core::const_index(&mut m, body1, 1);
        let (_l2, body2) = core::build_for(&mut m, body1, lb2, ub2, step2);
        m.build_op("scf.yield", [], []).append_to(body2);
        m.build_op("scf.yield", [], []).append_to(body1);
        m.build_op("func.return", [], []).append_to(entry);
        let parsed = roundtrip(&m);
        verify_module(&Context::with_all_dialects(), &parsed).unwrap();
    }

    #[test]
    fn roundtrip_all_attribute_kinds() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut dict = BTreeMap::new();
        dict.insert("x".to_string(), Attribute::Int(1));
        m.build_op("olympus.kernel", [], [])
            .attr("kernel", Attribute::SymbolRef("rrtmg".into()))
            .attr("target", "alveo_u55c")
            .attr("replicas", Attribute::Int(4))
            .attr("scale", Attribute::Float(0.5))
            .attr("enabled", Attribute::Bool(true))
            .attr(
                "dims",
                Attribute::Array((1..=3).map(Attribute::Int).collect()),
            )
            .attr("meta", Attribute::Dict(dict))
            .attr("weights", Attribute::DenseF64(vec![1.0, 2.5]))
            .attr("lut", Attribute::DenseI64(vec![-1, 7]))
            .attr("ty", Attribute::from(Type::tensor(&[2, 2], Type::F32)))
            .append_to(top);
        let parsed = roundtrip(&m);
        let op = parsed.walk_ops()[0];
        let operation = parsed.op(op).unwrap();
        assert_eq!(operation.int_attr("replicas"), Some(4));
        assert_eq!(operation.str_attr("target"), Some("alveo_u55c"));
        assert_eq!(
            operation.attr("weights").unwrap().as_dense_f64(),
            Some(&[1.0, 2.5][..])
        );
    }

    #[test]
    fn roundtrip_exotic_types() {
        let mut m = Module::new();
        let top = m.top_block();
        let x = core::const_f64(&mut m, top, 1.0);
        let q = m
            .build_op(
                "base2.quantize",
                [x],
                [Type::Fixed(FixedFormat::signed(7, 8))],
            )
            .append_to(top);
        let qv = single_result(&m, q);
        m.build_op("base2.dequantize", [qv], [Type::F64])
            .append_to(top);
        m.build_op(
            "dfg.channel",
            [],
            [Type::Stream(Box::new(Type::tensor(&[4], Type::F32)))],
        )
        .attr("capacity", Attribute::Int(2))
        .append_to(top);
        m.build_op(
            "memref.alloc",
            [],
            [Type::memref(&[16, 16], Type::F32, MemorySpace::Device)],
        )
        .append_to(top);
        let parsed = roundtrip(&m);
        verify_module(&Context::with_all_dialects(), &parsed).unwrap();
    }

    #[test]
    fn parse_error_reports_line() {
        let err = parse_module("module {\n  garbage\n}\n").unwrap_err();
        match err {
            IrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn undefined_value_reference_rejected() {
        let text = "module {\n  \"arith.negf\"(%0) : (f64) -> (f64)\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.to_string().contains("undefined value"));
    }

    /// `(line, message)` of the parse error `text` must raise.
    fn parse_error(text: &str) -> (usize, String) {
        match parse_module(text) {
            Err(IrError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_value_number_defined_twice_is_rejected() {
        let text = "module {\n  %0 = \"t.a\"() : () -> (f64)\n  %0 = \"t.b\"() : () -> (f64)\n  \"t.c\"(%0) : (f64) -> ()\n}\n";
        assert_eq!(parse_error(text), (3, "redefinition of value %0".into()));
        // As a block argument, and twice in one result list.
        let text = "module {\n  %0 = \"t.a\"() : () -> (f64)\n  \"t.r\"() ({\n  ^bb(%0: f64):\n  }) : () -> ()\n}\n";
        assert_eq!(parse_error(text), (4, "redefinition of value %0".into()));
        let text = "module {\n  %0, %0 = \"t.a\"() : () -> (f64, f64)\n}\n";
        assert_eq!(parse_error(text), (2, "redefinition of value %0".into()));
    }

    #[test]
    fn an_op_cannot_use_its_own_result_inside_its_regions() {
        let text = "module {\n  %0 = \"arith.constant\"() {value = true} : () -> (i1)\n  %1 = \"scf.if\"(%0) ({\n  ^bb():\n    \"scf.yield\"(%1) : (f64) -> ()\n  }) : (i1) -> (f64)\n}\n";
        assert_eq!(parse_error(text), (5, "use of undefined value %1".into()));
    }

    #[test]
    fn a_block_ends_at_the_token_the_parser_reaches() {
        // A `^` or `})` inside a string or a comment ends nothing.
        let text = "module {\n  \"t.r\"() ({\n  ^bb():\n    // ^bb(): })\n    \"t.a\"() {s = \"^bb(): })\"} : () -> ()\n  ^bb(%0: f64):\n  }) : () -> ()\n}\n";
        let m = parse_module(text).expect("parses");
        let r = m.op(m.block(m.top_block()).ops[0]).unwrap().regions[0];
        let blocks = &m.region(r).blocks;
        assert_eq!(blocks.len(), 2);
        assert_eq!(m.block(blocks[0]).ops.len(), 1);
        assert_eq!(m.block(blocks[1]).args.len(), 1);
        assert_eq!(
            parse_error("module {\n  \"t.r\"() ({\n  ^bb():\n"),
            (4, "unterminated region".into())
        );
    }

    /// Inputs that used to abort or panic instead of returning an error.
    #[test]
    fn malformed_input_is_a_parse_error_not_a_panic() {
        let op = |body: &str| format!("module {{\n  {body}\n}}\n");
        let deep_attr = format!(
            "\"t.op\"() {{a = {}1{}}} : () -> ()",
            "[".repeat(5000),
            "]".repeat(5000)
        );
        let deep_type = format!(
            "%0 = \"t.op\"() : () -> ({}f64{})",
            "tensor<".repeat(5000),
            ">".repeat(5000)
        );
        let deep_region = format!(
            "{}{}",
            "\"t.op\"() ({ ^bb(): ".repeat(2000),
            "}) : () -> ()".repeat(2000)
        );
        for (text, expected) in [
            (
                op("%99999999999999 = \"t.op\"() : () -> (f64)"),
                "out of range",
            ),
            (
                op("\"t.op\"() ({ ^bb(%99999999999999: f64): }) : () -> ()"),
                "out of range",
            ),
            (
                op("%0 = \"t.op\"() : () -> (!base2.posit<1,0>)"),
                "posit width",
            ),
            (
                op("%0 = \"t.op\"() : () -> (!base2.fixed<s4294967296,0>)"),
                "out of range",
            ),
            (op("\"t.op\"() {v = 1e999} : () -> ()"), "bad float"),
            (
                op("\"t.op\"() {v = dense_f64<1e999>} : () -> ()"),
                "bad float",
            ),
            (op(&deep_attr), "nesting too deep"),
            (op(&deep_type), "nesting too deep"),
            (op(&deep_region), "nesting too deep"),
        ] {
            match parse_module(&text) {
                Err(IrError::Parse { message, .. }) => {
                    assert!(message.contains(expected), "{message}");
                }
                other => panic!("expected a parse error ({expected}), got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_within_the_bound_still_parses() {
        let depth = 20;
        let text = format!(
            "module {{\n  \"t.op\"() {{a = {}1{}}} : () -> ()\n}}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let parsed = parse_module(&text).expect("parses");
        assert_eq!(print_module(&parsed), text);
        // The deepest accepted op nest fits the stack of a test thread.
        let depth = MAX_NESTING - 1;
        let text = format!(
            "module {{ {}\"t.leaf\"() : () -> (){} }}",
            "\"t.op\"() ({ ^bb(): ".repeat(depth),
            "}) : () -> ()".repeat(depth)
        );
        assert_eq!(parse_module(&text).expect("parses").num_ops(), depth + 1);
    }

    #[test]
    fn large_integral_floats_stay_floats() {
        for v in [
            1e15,
            2e15,
            -2e19,
            123456789012345680.0,
            1e300,
            f64::MAX,
            -0.0,
        ] {
            let mut m = Module::new();
            let top = m.top_block();
            m.build_op("t.op", [], [])
                .attr("v", Attribute::Float(v))
                .append_to(top);
            let parsed = roundtrip(&m);
            let op = parsed.block(parsed.top_block()).ops[0];
            match parsed.op(op).expect("op").attr("v") {
                Some(Attribute::Float(got)) => assert_eq!(got.to_bits(), v.to_bits()),
                other => panic!("{v} came back as {other:?}"),
            }
        }
    }

    #[test]
    fn operand_type_count_mismatch_rejected() {
        let text = "module {\n  %0 = \"arith.constant\"() {value = 1.0} : (f64) -> (f64)\n}\n";
        assert!(parse_module(text).is_err());
    }
}
