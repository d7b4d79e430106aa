//! The IR type system.
//!
//! Mirrors the abstraction levels used by the EVEREST MLIR stack: builtin
//! scalar/tensor/memref types, plus the custom numeric formats contributed
//! by the `base2` dialect (binary fixed-point and posit types, see Friebel
//! et al., *BASE2: An IR for Binary Numeral Types*, HEART 2023) and the
//! stream/token types of the `dfg` coordination dialect.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Memory space a `memref` lives in on the target platform.
///
/// The EVEREST system generator (Olympus) distinguishes host memory,
/// device-external memory (DDR/HBM) and on-fabric private local memory
/// (PLM, i.e. BRAM/URAM) when it creates data-movement architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum MemorySpace {
    /// Host (CPU) DRAM.
    #[default]
    Host,
    /// Device external memory: DDR or an HBM pseudo-channel.
    Device,
    /// On-fabric private local memory (BRAM/URAM).
    Plm,
}

impl MemorySpace {
    /// The space's keyword in printed IR.
    fn keyword(self) -> &'static str {
        match self {
            MemorySpace::Host => "host",
            MemorySpace::Device => "device",
            MemorySpace::Plm => "plm",
        }
    }
}

impl fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A binary fixed-point format: `signed`, `int_bits` integer bits and
/// `frac_bits` fractional bits (two's complement when signed).
///
/// Total width is `int_bits + frac_bits + (signed as u32)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FixedFormat {
    /// Whether the format carries a sign bit.
    pub signed: bool,
    /// Number of integer bits (excluding the sign bit).
    pub int_bits: u32,
    /// Number of fractional bits.
    pub frac_bits: u32,
}

impl FixedFormat {
    /// Creates a signed fixed-point format.
    pub fn signed(int_bits: u32, frac_bits: u32) -> Self {
        Self {
            signed: true,
            int_bits,
            frac_bits,
        }
    }

    /// Creates an unsigned fixed-point format.
    pub fn unsigned(int_bits: u32, frac_bits: u32) -> Self {
        Self {
            signed: false,
            int_bits,
            frac_bits,
        }
    }

    /// Total storage width in bits.
    pub fn width(&self) -> u32 {
        self.int_bits + self.frac_bits + u32::from(self.signed)
    }

    /// Smallest representable increment (`2^-frac_bits`).
    pub fn resolution(&self) -> f64 {
        (2.0f64).powi(-(self.frac_bits as i32))
    }
}

impl FixedFormat {
    /// Writes `!base2.fixed<s7,8>`: the spelling `Display` and the
    /// printer share.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str(if self.signed {
            "!base2.fixed<s"
        } else {
            "!base2.fixed<u"
        })?;
        write_u64(out, u64::from(self.int_bits))?;
        out.write_char(',')?;
        write_u64(out, u64::from(self.frac_bits))?;
        out.write_char('>')
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A posit format `posit<width, es>` following the Posit standard (2022).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositFormat {
    /// Total width in bits (>= 2).
    pub width: u32,
    /// Number of exponent bits.
    pub es: u32,
}

impl PositFormat {
    /// Creates a posit format.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2` — a posit needs at least a sign and a regime
    /// bit.
    pub fn new(width: u32, es: u32) -> Self {
        assert!(width >= 2, "posit width must be at least 2");
        Self { width, es }
    }
}

impl PositFormat {
    /// Writes `!base2.posit<16,1>`: the spelling `Display` and the
    /// printer share.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("!base2.posit<")?;
        write_u64(out, u64::from(self.width))?;
        out.write_char(',')?;
        write_u64(out, u64::from(self.es))?;
        out.write_char('>')
    }
}

impl fmt::Display for PositFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// The IR type of an SSA value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// Signless integer of the given bit width (`i1`, `i32`, ...).
    Int(u32),
    /// IEEE-754 binary32.
    F32,
    /// IEEE-754 binary64.
    F64,
    /// Platform-sized index type used for loop induction variables.
    Index,
    /// The absence of a value.
    None,
    /// A binary fixed-point scalar (`base2` dialect).
    Fixed(FixedFormat),
    /// A posit scalar (`base2` dialect).
    Posit(PositFormat),
    /// An immutable ranked tensor value.
    Tensor {
        /// Dimension sizes; `None` encodes a dynamic dimension (`?`).
        shape: Vec<Option<u64>>,
        /// Element type (must be a scalar type).
        elem: Box<Type>,
    },
    /// A mutable ranked buffer in a memory space.
    MemRef {
        /// Dimension sizes; `None` encodes a dynamic dimension (`?`).
        shape: Vec<Option<u64>>,
        /// Element type (must be a scalar type).
        elem: Box<Type>,
        /// Where the buffer lives.
        space: MemorySpace,
    },
    /// A typed FIFO channel between dataflow nodes (`dfg` dialect).
    Stream(Box<Type>),
    /// A synchronization token (`dfg` dialect).
    Token,
    /// A function type (used on `func.func` and call-like ops).
    Function {
        /// Parameter types.
        inputs: Vec<Type>,
        /// Result types.
        outputs: Vec<Type>,
    },
}

impl Type {
    /// The boolean type `i1`.
    pub fn bool() -> Type {
        Type::Int(1)
    }

    /// Builds a static-shaped tensor type.
    pub fn tensor(shape: &[u64], elem: Type) -> Type {
        Type::Tensor {
            shape: shape.iter().map(|&d| Some(d)).collect(),
            elem: Box::new(elem),
        }
    }

    /// Builds a static-shaped memref type.
    pub fn memref(shape: &[u64], elem: Type, space: MemorySpace) -> Type {
        Type::MemRef {
            shape: shape.iter().map(|&d| Some(d)).collect(),
            elem: Box::new(elem),
            space,
        }
    }

    /// Returns `true` for floating-point-like types on which `arith`
    /// float ops operate (including custom base2 formats, which HLS maps
    /// to dedicated functional units).
    pub fn is_float_like(&self) -> bool {
        matches!(
            self,
            Type::F32 | Type::F64 | Type::Fixed(_) | Type::Posit(_)
        )
    }

    /// Returns the shape of a tensor/memref type, if this is one.
    pub fn shape(&self) -> Option<&[Option<u64>]> {
        match self {
            Type::Tensor { shape, .. } | Type::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Returns the element type of a tensor/memref/stream type.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Tensor { elem, .. } | Type::MemRef { elem, .. } | Type::Stream(elem) => {
                Some(elem)
            }
            _ => None,
        }
    }

    /// Number of elements if the shaped type is fully static.
    pub fn num_elements(&self) -> Option<u64> {
        self.shape()
            .map(|s| s.iter().try_fold(1u64, |acc, d| d.map(|d| acc * d)))?
    }

    /// Storage width in bits of a scalar type, if known.
    pub fn bit_width(&self) -> Option<u32> {
        match self {
            Type::Int(w) => Some(*w),
            Type::F32 => Some(32),
            Type::F64 => Some(64),
            Type::Index => Some(64),
            Type::Fixed(fmt) => Some(fmt.width()),
            Type::Posit(fmt) => Some(fmt.width),
            _ => None,
        }
    }
}

/// A type uniqued in one module's type table: equal types built into
/// one module get one id, so comparing two values' types is comparing
/// two `u32`s, and a value holds four bytes, not a [`Type`] with a shape
/// `Vec` and a boxed element type.
///
/// The scalars a lowering builds most sit at fixed ids, the same in
/// every module ([`TypeId::INDEX`], [`TypeId::F64`], [`TypeId::I1`],
/// ...), so building an op of one hashes nothing. Any other id means
/// something only in the module that issued it:
/// [`Module::intern_type`](crate::module::Module::intern_type) issues
/// them, [`Module::ty`](crate::module::Module::ty) reads one back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(u32);

impl TypeId {
    /// `index`.
    pub const INDEX: TypeId = TypeId(0);
    /// `f64`.
    pub const F64: TypeId = TypeId(1);
    /// `i1`, the type of a comparison.
    pub const I1: TypeId = TypeId(2);
}

/// The types at fixed ids, in id order.
static FIXED: [Type; 8] = [
    Type::Index,
    Type::F64,
    Type::Int(1),
    Type::F32,
    Type::Int(32),
    Type::Int(64),
    Type::None,
    Type::Token,
];

/// The fixed id of `ty`, if it has one: a match, no hash.
fn fixed_id(ty: &Type) -> Option<TypeId> {
    let id = match ty {
        Type::Index => 0,
        Type::F64 => 1,
        Type::Int(1) => 2,
        Type::F32 => 3,
        Type::Int(32) => 4,
        Type::Int(64) => 5,
        Type::None => 6,
        Type::Token => 7,
        _ => return None,
    };
    Some(TypeId(id))
}

/// One module's uniqued types past the fixed ones, and the map that
/// finds a type's id; nothing is allocated until the first such type,
/// and the map not until the table outgrows a scan
/// ([`SCANNED_TYPES`]).
///
/// Clones of a module share one table until either adds a type, which
/// copies it then (`Arc::make_mut`): cloning a module copies no type,
/// and an id one of them issues before the copy is valid in both.
#[derive(Debug, Clone, Default)]
pub(crate) struct TypeTable {
    uniqued: Option<Arc<Uniqued>>,
}

#[derive(Debug, Clone, Default)]
struct Uniqued {
    /// The type of id `FIXED.len() + i` at `i`.
    types: Vec<Type>,
    /// Every type of `types` once it holds more than [`SCANNED_TYPES`];
    /// empty until then. The default hasher: the parser interns
    /// whatever types its input spells.
    ids: HashMap<Type, TypeId>,
}

/// Uniqued types a table finds by comparing them in turn before it
/// builds its map: a flow-built module has a few (a query graph one
/// stream type, a lowered kernel a memref type or three), and
/// comparing that many costs less than hashing one.
const SCANNED_TYPES: usize = 8;

impl Uniqued {
    /// The id of the first type `matches` accepts, by a scan while the
    /// table is small.
    fn scan(&self, matches: impl FnMut(&Type) -> bool) -> Option<TypeId> {
        let at = self.types.iter().position(matches)?;
        Some(TypeId((FIXED.len() + at) as u32))
    }

    /// Appends `ty`, which the table does not hold, and returns its id.
    fn push(&mut self, ty: Type) -> TypeId {
        let id = TypeId((FIXED.len() + self.types.len()) as u32);
        if self.types.len() == SCANNED_TYPES {
            self.ids = (self.types.iter().cloned())
                .zip((FIXED.len() as u32..).map(TypeId))
                .collect();
        }
        if self.types.len() >= SCANNED_TYPES {
            self.ids.insert(ty.clone(), id);
        }
        self.types.push(ty);
        id
    }
}

impl TypeTable {
    /// The type of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table (or a clone of it).
    pub(crate) fn get(&self, id: TypeId) -> &Type {
        let at = id.0 as usize;
        match (at.checked_sub(FIXED.len()), &self.uniqued) {
            (None, _) => &FIXED[at],
            (Some(at), Some(uniqued)) => &uniqued.types[at],
            (Some(_), None) => panic!("type id {} was issued by another module", id.0),
        }
    }

    /// The id `ty` already has, if any.
    fn find(&self, ty: &Type) -> Option<TypeId> {
        if let Some(id) = fixed_id(ty) {
            return Some(id);
        }
        let uniqued = self.uniqued.as_ref()?;
        if uniqued.ids.is_empty() {
            uniqued.scan(|known| known == ty)
        } else {
            uniqued.ids.get(ty).copied()
        }
    }

    /// The id of `ty`, issuing the next one the first time; `ty` is
    /// moved into the table then, and dropped when it is already there.
    pub(crate) fn intern(&mut self, ty: Type) -> TypeId {
        match self.find(&ty) {
            Some(id) => id,
            None => self.push(ty),
        }
    }

    /// The id of `stream<elem>`. While the table is scanned the stream
    /// is found by its element, so no boxed stream type is built unless
    /// this is its first use.
    pub(crate) fn intern_stream(&mut self, elem: Type) -> TypeId {
        let scanned = (self.uniqued.as_ref())
            .filter(|uniqued| uniqued.ids.is_empty())
            .and_then(|uniqued| uniqued.scan(|ty| matches!(ty, Type::Stream(e) if **e == elem)));
        scanned.unwrap_or_else(|| self.intern(Type::Stream(Box::new(elem))))
    }

    /// Appends a type the table does not hold.
    fn push(&mut self, ty: Type) -> TypeId {
        Arc::make_mut(self.uniqued.get_or_insert_with(Arc::default)).push(ty)
    }

    /// The id of `ty`, cloning it only the first time it is seen.
    pub(crate) fn intern_ref(&mut self, ty: &Type) -> TypeId {
        match self.find(ty) {
            Some(id) => id,
            None => self.push(ty.clone()),
        }
    }
}

/// Writes `v` in decimal without going through `core::fmt`: the
/// printer spells every value number, width and dimension this way.
pub(crate) fn write_u64<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    digits[start..]
        .iter()
        .try_for_each(|&d| out.write_char(char::from(d)))
}

/// Writes `v` in decimal, as `{v}` would, without `core::fmt`.
pub(crate) fn write_i64<W: fmt::Write>(out: &mut W, v: i64) -> fmt::Result {
    if v < 0 {
        out.write_char('-')?;
    }
    write_u64(out, v.unsigned_abs())
}

/// Writes `4x?x` for a shape: each dimension, `?` when dynamic, and an
/// `x` after it.
fn write_shape<W: fmt::Write>(out: &mut W, shape: &[Option<u64>]) -> fmt::Result {
    for dim in shape {
        match dim {
            Some(d) => write_u64(out, *d)?,
            None => out.write_char('?')?,
        }
        out.write_char('x')?;
    }
    Ok(())
}

/// Writes `a, b, c`, each item by `write`.
pub(crate) fn write_list<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    mut write: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write(out, item)?;
    }
    Ok(())
}

impl Type {
    /// Writes the type as printed IR spells it. This is the one
    /// spelling: `Display` calls it, and the module printer calls it
    /// straight into its output.
    pub(crate) fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Type::Int(w) => {
                out.write_char('i')?;
                write_u64(out, u64::from(*w))
            }
            Type::F32 => out.write_str("f32"),
            Type::F64 => out.write_str("f64"),
            Type::Index => out.write_str("index"),
            Type::None => out.write_str("none"),
            Type::Fixed(fmt) => fmt.write_to(out),
            Type::Posit(fmt) => fmt.write_to(out),
            Type::Tensor { shape, elem } => {
                out.write_str("tensor<")?;
                write_shape(out, shape)?;
                elem.write_to(out)?;
                out.write_char('>')
            }
            Type::MemRef { shape, elem, space } => {
                out.write_str("memref<")?;
                write_shape(out, shape)?;
                elem.write_to(out)?;
                out.write_str(", ")?;
                out.write_str(space.keyword())?;
                out.write_char('>')
            }
            Type::Stream(elem) => {
                out.write_str("!dfg.stream<")?;
                elem.write_to(out)?;
                out.write_char('>')
            }
            Type::Token => out.write_str("!dfg.token"),
            Type::Function { inputs, outputs } => {
                out.write_char('(')?;
                write_list(out, inputs, |out, t| t.write_to(out))?;
                out.write_str(") -> (")?;
                write_list(out, outputs, |out, t| t.write_to(out))?;
                out.write_char(')')
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_format_width_and_range() {
        let q = FixedFormat::signed(7, 8); // s7.8 => 16 bits
        assert_eq!(q.width(), 16);
        assert!((q.resolution() - 1.0 / 256.0).abs() < 1e-12);

        let u = FixedFormat::unsigned(8, 8);
        assert_eq!(u.width(), 16);
    }

    #[test]
    #[should_panic(expected = "width must be at least 2")]
    fn posit_too_narrow_panics() {
        let _ = PositFormat::new(1, 0);
    }

    #[test]
    fn tensor_display_and_elements() {
        let t = Type::tensor(&[4, 8], Type::F64);
        assert_eq!(t.to_string(), "tensor<4x8xf64>");
        assert_eq!(t.num_elements(), Some(32));
        assert_eq!(t.elem(), Some(&Type::F64));
    }

    #[test]
    fn dynamic_tensor_has_unknown_element_count() {
        let t = Type::Tensor {
            shape: vec![Some(4), None],
            elem: Box::new(Type::F32),
        };
        assert_eq!(t.to_string(), "tensor<4x?xf32>");
        assert_eq!(t.num_elements(), None);
    }

    #[test]
    fn memref_display_includes_space() {
        let m = Type::memref(&[1024], Type::F32, MemorySpace::Plm);
        assert_eq!(m.to_string(), "memref<1024xf32, plm>");
    }

    #[test]
    fn scalar_classification() {
        assert!(Type::Posit(PositFormat::new(16, 1)).is_float_like());
        assert!(!Type::Int(32).is_float_like());
    }

    #[test]
    fn bit_widths() {
        assert_eq!(Type::Int(17).bit_width(), Some(17));
        assert_eq!(Type::F32.bit_width(), Some(32));
        assert_eq!(Type::Fixed(FixedFormat::signed(7, 8)).bit_width(), Some(16));
        assert_eq!(Type::tensor(&[2], Type::F64).bit_width(), None);
    }

    #[test]
    fn function_type_display() {
        let ty = Type::Function {
            inputs: vec![Type::F64, Type::Index],
            outputs: vec![Type::F64],
        };
        assert_eq!(ty.to_string(), "(f64, index) -> (f64)");
    }

    #[test]
    fn stream_and_token_display() {
        assert_eq!(
            Type::Stream(Box::new(Type::F32)).to_string(),
            "!dfg.stream<f32>"
        );
        assert_eq!(Type::Token.to_string(), "!dfg.token");
    }
}
