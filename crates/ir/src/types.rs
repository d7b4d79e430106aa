//! The IR type system.
//!
//! Mirrors the abstraction levels used by the EVEREST MLIR stack: builtin
//! scalar/tensor/memref types, plus the custom numeric formats contributed
//! by the `base2` dialect (binary fixed-point and posit types, see Friebel
//! et al., *BASE2: An IR for Binary Numeral Types*, HEART 2023) and the
//! stream/token types of the `dfg` coordination dialect.

use std::fmt;

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

impl fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemorySpace::Host => write!(f, "host"),
            MemorySpace::Device => write!(f, "device"),
            MemorySpace::Plm => write!(f, "plm"),
        }
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

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        let steps = (1u128 << (self.int_bits + self.frac_bits)) - 1;
        steps as f64 * self.resolution()
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = if self.signed { "s" } else { "u" };
        write!(f, "!base2.fixed<{s}{},{}>", self.int_bits, self.frac_bits)
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

    /// `useed = 2^(2^es)`, the regime scaling base.
    pub fn useed(&self) -> f64 {
        (2.0f64).powi(1 << self.es)
    }
}

impl fmt::Display for PositFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!base2.posit<{},{}>", self.width, self.es)
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

fn write_shape(f: &mut fmt::Formatter<'_>, shape: &[Option<u64>]) -> fmt::Result {
    for dim in shape {
        match dim {
            Some(d) => write!(f, "{d}x")?,
            None => write!(f, "?x")?,
        }
    }
    Ok(())
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int(w) => write!(f, "i{w}"),
            Type::F32 => write!(f, "f32"),
            Type::F64 => write!(f, "f64"),
            Type::Index => write!(f, "index"),
            Type::None => write!(f, "none"),
            Type::Fixed(fmt) => write!(f, "{fmt}"),
            Type::Posit(fmt) => write!(f, "{fmt}"),
            Type::Tensor { shape, elem } => {
                write!(f, "tensor<")?;
                write_shape(f, shape)?;
                write!(f, "{elem}>")
            }
            Type::MemRef { shape, elem, space } => {
                write!(f, "memref<")?;
                write_shape(f, shape)?;
                write!(f, "{elem}, {space}>")
            }
            Type::Stream(elem) => write!(f, "!dfg.stream<{elem}>"),
            Type::Token => write!(f, "!dfg.token"),
            Type::Function { inputs, outputs } => {
                write!(f, "(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ") -> (")?;
                for (i, t) in outputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
        }
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
        assert!(q.max_value() > 127.9 && q.max_value() < 128.0);

        let u = FixedFormat::unsigned(8, 8);
        assert_eq!(u.width(), 16);
    }

    #[test]
    fn posit_useed() {
        assert_eq!(PositFormat::new(16, 1).useed(), 4.0);
        assert_eq!(PositFormat::new(32, 2).useed(), 16.0);
        assert_eq!(PositFormat::new(8, 0).useed(), 2.0);
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
