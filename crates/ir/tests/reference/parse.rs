//! The IR parser `parse_module` replaced, kept as the reference the
//! one-pass byte parser is held to (`tests/properties.rs`).
//!
//! It collects the text into a `Vec<char>`, returns a `String` for every
//! identifier and number token, and reads each block body twice: once in
//! `scan_block_body_end`, which looks ahead for the `^` or `})` ending it,
//! and again when the body is re-parsed from the saved span, after the
//! op's results are bound. Only the imports and the visibility of
//! `parse_module` differ from the code it was.
//!
//! Two inputs it accepts the new parser rejects: an op that uses its own
//! result inside its regions, and a value number defined twice. And it
//! reads the text of a `//` comment inside a block body as structure when
//! it scans ahead for the body's end.

use std::collections::BTreeMap;

use everest_ir::attr::{AttrMap, Attribute};
use everest_ir::error::{IrError, IrResult};
use everest_ir::ids::{BlockId, ValueId};
use everest_ir::module::Module;
use everest_ir::types::{FixedFormat, MemorySpace, PositFormat, Type};

/// Parses the textual form of a module.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on any syntax error.
pub(crate) fn parse_module(text: &str) -> IrResult<Module> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
        values: Vec::new(),
        depth: 0,
    };
    // Roughly one op per non-empty line; pre-size the arenas so large
    // round-trips don't regrow mid-parse.
    let mut module = Module::with_capacity(text.lines().count());
    p.skip_ws();
    p.expect_word("module")?;
    p.expect_char('{')?;
    let top = module.top_block();
    p.parse_ops_until(&mut module, top, '}')?;
    p.expect_char('}')?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input after module"));
    }
    Ok(module)
}

/// Deepest nesting of regions, types and attributes the parser follows.
const MAX_NESTING: usize = 64;

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// `%N` → ValueId mapping (dense, indexed by N).
    values: Vec<Option<ValueId>>,
    /// Recursive productions currently open.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn line(&self) -> usize {
        self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
            + 1
    }

    fn error(&self, msg: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += 1;
            } else if c == '/' && self.chars.get(self.pos + 1) == Some(&'/') {
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn expect_char(&mut self, c: char) -> IrResult<()> {
        self.skip_ws();
        match self.bump() {
            Some(x) if x == c => Ok(()),
            Some(x) => Err(self.error(format!("expected '{c}', found '{x}'"))),
            None => Err(self.error(format!("expected '{c}', found end of input"))),
        }
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let end = self.pos + s.len();
        if end <= self.chars.len() && self.chars[self.pos..end].iter().collect::<String>() == s {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, w: &str) -> IrResult<()> {
        self.skip_ws();
        let ident = self.parse_ident()?;
        if ident == w {
            Ok(())
        } else {
            Err(self.error(format!("expected '{w}', found '{ident}'")))
        }
    }

    fn parse_ident(&mut self) -> IrResult<String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected identifier"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn parse_string(&mut self) -> IrResult<String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_value_ref(&mut self) -> IrResult<ValueId> {
        self.expect_char('%')?;
        let n = self.parse_usize()?;
        self.values
            .get(n)
            .copied()
            .flatten()
            .ok_or_else(|| self.error(format!("use of undefined value %{n}")))
    }

    fn bind_value(&mut self, n: usize, v: ValueId) {
        if self.values.len() <= n {
            self.values.resize(n + 1, None);
        }
        self.values[n] = Some(v);
    }

    /// Parses the `N` of a `%N` definition. The printer numbers values
    /// densely, so a number past the length of the text is malformed —
    /// and would size the `%N` table, so it is refused here.
    fn parse_value_number(&mut self) -> IrResult<usize> {
        let n = self.parse_usize()?;
        if n >= self.chars.len() {
            return Err(self.error(format!("value number %{n} out of range")));
        }
        Ok(n)
    }

    fn parse_u32(&mut self) -> IrResult<u32> {
        let n = self.parse_usize()?;
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

    fn parse_usize(&mut self) -> IrResult<usize> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse().map_err(|_| self.error("number out of range"))
    }

    fn parse_number_token(&mut self) -> IrResult<String> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                saw_digit = true;
                self.pos += 1;
            } else if c == '.' || c == 'e' || c == 'E' {
                self.pos += 1;
                if self.peek() == Some('-') || self.peek() == Some('+') {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        if !saw_digit {
            return Err(self.error("expected a numeric literal"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
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

    fn parse_type(&mut self) -> IrResult<Type> {
        self.nested(Self::parse_type_inner)
    }

    fn parse_type_inner(&mut self) -> IrResult<Type> {
        self.skip_ws();
        if self.peek() == Some('(') {
            return self.parse_function_type();
        }
        if self.eat_str("!base2.fixed<") {
            let signed = match self.bump() {
                Some('s') => true,
                Some('u') => false,
                _ => return Err(self.error("expected 's' or 'u' in fixed format")),
            };
            let int_bits = self.parse_u32()?;
            self.expect_char(',')?;
            let frac_bits = self.parse_u32()?;
            self.expect_char('>')?;
            return Ok(Type::Fixed(FixedFormat {
                signed,
                int_bits,
                frac_bits,
            }));
        }
        if self.eat_str("!base2.posit<") {
            let width = self.parse_u32()?;
            self.expect_char(',')?;
            let es = self.parse_u32()?;
            self.expect_char('>')?;
            if width < 2 {
                return Err(self.error("posit width must be at least 2"));
            }
            return Ok(Type::Posit(PositFormat::new(width, es)));
        }
        if self.eat_str("!dfg.stream<") {
            let elem = self.parse_type()?;
            self.expect_char('>')?;
            return Ok(Type::Stream(Box::new(elem)));
        }
        if self.eat_str("!dfg.token") {
            return Ok(Type::Token);
        }
        let ident = self.parse_ident()?;
        match ident.as_str() {
            "f32" => Ok(Type::F32),
            "f64" => Ok(Type::F64),
            "index" => Ok(Type::Index),
            "none" => Ok(Type::None),
            "tensor" => {
                self.expect_char('<')?;
                let (shape, elem) = self.parse_shape_and_elem()?;
                self.expect_char('>')?;
                Ok(Type::Tensor {
                    shape,
                    elem: Box::new(elem),
                })
            }
            "memref" => {
                self.expect_char('<')?;
                let (shape, elem) = self.parse_shape_and_elem()?;
                self.expect_char(',')?;
                let space = self.parse_ident()?;
                let space = match space.as_str() {
                    "host" => MemorySpace::Host,
                    "device" => MemorySpace::Device,
                    "plm" => MemorySpace::Plm,
                    other => return Err(self.error(format!("unknown memory space '{other}'"))),
                };
                self.expect_char('>')?;
                Ok(Type::MemRef {
                    shape,
                    elem: Box::new(elem),
                    space,
                })
            }
            other if other.starts_with('i') => {
                let width: u32 = other[1..]
                    .parse()
                    .map_err(|_| self.error(format!("bad integer type '{other}'")))?;
                Ok(Type::Int(width))
            }
            other => Err(self.error(format!("unknown type '{other}'"))),
        }
    }

    /// Parses `4x8xf64` / `?x4xi32` shape-plus-element inside `tensor<>`.
    fn parse_shape_and_elem(&mut self) -> IrResult<(Vec<Option<u64>>, Type)> {
        let mut shape = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('?') {
                self.pos += 1;
                self.expect_char('x')?;
                shape.push(None);
                continue;
            }
            // A dimension is digits followed by 'x'; otherwise it is the
            // element type (which may itself start with a digit? no —
            // element types never start with a digit).
            let save = self.pos;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                let n = self.parse_usize()?;
                if self.peek() == Some('x') {
                    self.pos += 1;
                    shape.push(Some(n as u64));
                    continue;
                }
                self.pos = save;
            }
            let elem = self.parse_type()?;
            return Ok((shape, elem));
        }
    }

    fn parse_function_type(&mut self) -> IrResult<Type> {
        let inputs = self.parse_type_list()?;
        self.skip_ws();
        if !self.eat_str("->") {
            return Err(self.error("expected '->' in function type"));
        }
        let outputs = self.parse_type_list()?;
        Ok(Type::Function { inputs, outputs })
    }

    fn parse_type_list(&mut self) -> IrResult<Vec<Type>> {
        self.expect_char('(')?;
        let mut tys = Vec::new();
        if !self.eat_char(')') {
            loop {
                tys.push(self.parse_type()?);
                if self.eat_char(',') {
                    continue;
                }
                self.expect_char(')')?;
                break;
            }
        }
        Ok(tys)
    }

    // -- attributes -----------------------------------------------------------

    fn parse_attr(&mut self) -> IrResult<Attribute> {
        self.nested(Self::parse_attr_inner)
    }

    fn parse_attr_inner(&mut self) -> IrResult<Attribute> {
        self.skip_ws();
        match self.peek() {
            Some('"') => Ok(Attribute::Str(self.parse_string()?)),
            Some('@') => {
                self.pos += 1;
                Ok(Attribute::SymbolRef(self.parse_ident()?))
            }
            Some('[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat_char(']') {
                    loop {
                        items.push(self.parse_attr()?);
                        if self.eat_char(',') {
                            continue;
                        }
                        self.expect_char(']')?;
                        break;
                    }
                }
                Ok(Attribute::Array(items))
            }
            Some('{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if !self.eat_char('}') {
                    loop {
                        let key = self.parse_ident()?;
                        self.expect_char('=')?;
                        let value = self.parse_attr()?;
                        map.insert(key, value);
                        if self.eat_char(',') {
                            continue;
                        }
                        self.expect_char('}')?;
                        break;
                    }
                }
                Ok(Attribute::Dict(map))
            }
            Some('(') | Some('!') => Ok(Attribute::from(self.parse_type()?)),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let tok = self.parse_number_token()?;
                if tok.contains('.') || tok.contains('e') || tok.contains('E') {
                    self.finite_f64(&tok).map(Attribute::Float)
                } else {
                    tok.parse::<i64>()
                        .map(Attribute::Int)
                        .map_err(|_| self.error(format!("bad integer literal '{tok}'")))
                }
            }
            _ => {
                let save = self.pos;
                let ident = self.parse_ident()?;
                match ident.as_str() {
                    "true" => Ok(Attribute::Bool(true)),
                    "false" => Ok(Attribute::Bool(false)),
                    "dense_f64" => {
                        self.expect_char('<')?;
                        let mut data = Vec::new();
                        if !self.eat_char('>') {
                            loop {
                                let tok = self.parse_number_token()?;
                                data.push(self.finite_f64(&tok)?);
                                if self.eat_char(',') {
                                    continue;
                                }
                                self.expect_char('>')?;
                                break;
                            }
                        }
                        Ok(Attribute::DenseF64(data))
                    }
                    "dense_i64" => {
                        self.expect_char('<')?;
                        let mut data = Vec::new();
                        if !self.eat_char('>') {
                            loop {
                                let tok = self.parse_number_token()?;
                                data.push(tok.parse::<i64>().map_err(|_| {
                                    self.error(format!("bad int '{tok}' in dense_i64"))
                                })?);
                                if self.eat_char(',') {
                                    continue;
                                }
                                self.expect_char('>')?;
                                break;
                            }
                        }
                        Ok(Attribute::DenseI64(data))
                    }
                    // Fall back to a type attribute (f64, i32, tensor<...>).
                    _ => {
                        self.pos = save;
                        Ok(Attribute::from(self.parse_type()?))
                    }
                }
            }
        }
    }

    // -- operations -----------------------------------------------------------

    /// Parses ops and appends them to `block` until `stop` is next.
    fn parse_ops_until(&mut self, module: &mut Module, block: BlockId, stop: char) -> IrResult<()> {
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.error(format!("expected '{stop}'"))),
                Some(c) if c == stop => return Ok(()),
                _ => self.parse_op(module, block)?,
            }
        }
    }

    /// Parses ops and appends them to `block` until position `end`.
    fn parse_ops_limit(&mut self, module: &mut Module, block: BlockId, end: usize) -> IrResult<()> {
        loop {
            self.skip_ws();
            if self.pos >= end {
                return Ok(());
            }
            self.parse_op(module, block)?;
        }
    }

    fn parse_op(&mut self, module: &mut Module, block: BlockId) -> IrResult<()> {
        self.nested(|p| p.parse_op_inner(module, block))
    }

    fn parse_op_inner(&mut self, module: &mut Module, block: BlockId) -> IrResult<()> {
        // Optional result list: %0, %1 = ...
        let mut result_names = Vec::new();
        self.skip_ws();
        if self.peek() == Some('%') {
            loop {
                self.expect_char('%')?;
                result_names.push(self.parse_value_number()?);
                if self.eat_char(',') {
                    continue;
                }
                break;
            }
            self.expect_char('=')?;
        }
        let name = self.parse_string()?;
        self.expect_char('(')?;
        let mut operands = Vec::new();
        if !self.eat_char(')') {
            loop {
                operands.push(self.parse_value_ref()?);
                if self.eat_char(',') {
                    continue;
                }
                self.expect_char(')')?;
                break;
            }
        }
        // Regions: zero or more "({ ... })".
        let mut region_sources: Vec<Vec<RawBlock>> = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_str("({") {
                region_sources.push(self.parse_region_blocks()?);
            } else {
                break;
            }
        }
        // Attributes.
        let mut attrs = AttrMap::new();
        self.skip_ws();
        if self.eat_char('{') && !self.eat_char('}') {
            loop {
                let key = self.parse_ident()?;
                self.expect_char('=')?;
                let value = self.parse_attr()?;
                attrs.insert(&key, value);
                if self.eat_char(',') {
                    continue;
                }
                self.expect_char('}')?;
                break;
            }
        }
        // Trailing function type.
        self.expect_char(':')?;
        let operand_tys = self.parse_type_list()?;
        if !self.eat_str("->") {
            return Err(self.error("expected '->' in op type"));
        }
        let result_tys = self.parse_type_list()?;
        if operand_tys.len() != operands.len() {
            return Err(self.error(format!(
                "op '{name}' lists {} operand types for {} operands",
                operand_tys.len(),
                operands.len()
            )));
        }
        if result_tys.len() != result_names.len() {
            return Err(self.error(format!(
                "op '{name}' lists {} result types for {} results",
                result_tys.len(),
                result_names.len()
            )));
        }

        let op = module.create_op(name, operands, result_tys, attrs, region_sources.len());
        module.append_op(block, op);
        let results = module.op(op).expect("just created").results.clone();
        for (n, v) in result_names.into_iter().zip(results) {
            self.bind_value(n, v);
        }
        // Materialize regions.
        let regions = module.op(op).expect("just created").regions.clone();
        for (region, raw_blocks) in regions.into_iter().zip(region_sources) {
            for raw in raw_blocks {
                let bb = module.add_block(region, &raw.arg_types);
                let args = module.block(bb).args.clone();
                for (n, v) in raw.arg_names.iter().zip(args) {
                    self.bind_value(*n, v);
                }
                // Re-parse the ops of this block from the saved span.
                let saved = self.pos;
                self.pos = raw.body_start;
                self.parse_ops_limit(module, bb, raw.body_end)?;
                self.pos = saved;
            }
        }
        Ok(())
    }

    /// Parses region blocks eagerly (single pass): reads block headers and
    /// bodies directly. The `({` was already consumed.
    fn parse_region_blocks(&mut self) -> IrResult<Vec<RawBlock>> {
        let mut blocks = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_str("})") {
                return Ok(blocks);
            }
            if !self.eat_str("^bb(") {
                return Err(self.error("expected '^bb(' block header or '})'"));
            }
            let mut arg_names = Vec::new();
            let mut arg_types = Vec::new();
            if !self.eat_char(')') {
                loop {
                    self.expect_char('%')?;
                    arg_names.push(self.parse_value_number()?);
                    self.expect_char(':')?;
                    arg_types.push(self.parse_type()?);
                    if self.eat_char(',') {
                        continue;
                    }
                    self.expect_char(')')?;
                    break;
                }
            }
            self.expect_char(':')?;
            // Record the body span: ops until the next '^bb(' at this nesting
            // level or the region close '})'. We scan forward tracking
            // nesting of "({" / "})" pairs and strings.
            let body_start = self.pos;
            let body_end = self.scan_block_body_end()?;
            blocks.push(RawBlock {
                arg_names,
                arg_types,
                body_start,
                body_end,
            });
            self.pos = body_end;
        }
    }

    /// Scans forward from the current position to find where the current
    /// block's op list ends (the position of the next `^bb(` header or the
    /// closing `})` of this region), without consuming it.
    fn scan_block_body_end(&mut self) -> IrResult<usize> {
        let mut depth = 0usize;
        let mut i = self.pos;
        while i < self.chars.len() {
            let c = self.chars[i];
            match c {
                '"' => {
                    // skip string literal
                    i += 1;
                    while i < self.chars.len() {
                        if self.chars[i] == '\\' {
                            i += 2;
                        } else if self.chars[i] == '"' {
                            break;
                        } else {
                            i += 1;
                        }
                    }
                }
                '(' if self.chars.get(i + 1) == Some(&'{') => {
                    depth += 1;
                    i += 1;
                }
                '}' if self.chars.get(i + 1) == Some(&')') => {
                    if depth == 0 {
                        return Ok(i);
                    }
                    depth -= 1;
                    i += 1;
                }
                '^' if depth == 0 => {
                    return Ok(i);
                }
                _ => {}
            }
            i += 1;
        }
        Err(self.error("unterminated region"))
    }
}

struct RawBlock {
    arg_names: Vec<usize>,
    arg_types: Vec<Type>,
    body_start: usize,
    body_end: usize,
}
