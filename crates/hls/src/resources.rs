//! Functional-unit cost library.
//!
//! Latency and area figures follow the shape of Vitis HLS / Bambu
//! characterizations on UltraScale+ parts: double-precision floating
//! point is deeply pipelined and DSP-hungry; narrow fixed-point collapses
//! to single-cycle LUT logic; posits sit in between (decode/encode adds
//! LUT cost but keeps DSP usage at the multiplier core). Absolute numbers
//! are calibrated to be *relatively* faithful — the experiments compare
//! configurations, not vendor reports.

use everest_ir::types::{FixedFormat, PositFormat, Type};

/// The numeric format a kernel's floating-point arithmetic is mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericFormat {
    /// IEEE binary32.
    F32,
    /// IEEE binary64.
    F64,
    /// Fixed point.
    Fixed(FixedFormat),
    /// Posit.
    Posit(PositFormat),
}

impl NumericFormat {
    /// Storage width in bits.
    pub fn width(&self) -> u32 {
        match self {
            NumericFormat::F32 => 32,
            NumericFormat::F64 => 64,
            NumericFormat::Fixed(f) => f.width(),
            NumericFormat::Posit(p) => p.width,
        }
    }
}

/// FPGA resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// 18 Kb BRAM halves.
    pub brams: u64,
}

// Component-wise resource sums are not ring arithmetic; `add` stays an
// inherent method.
#[allow(clippy::should_implement_trait)]
impl Resources {
    /// Component-wise sum.
    pub fn add(self, other: Resources) -> Resources {
        Resources {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            dsps: self.dsps + other.dsps,
            brams: self.brams + other.brams,
        }
    }

    /// Component-wise scaling.
    pub fn scale(self, k: u64) -> Resources {
        Resources {
            luts: self.luts * k,
            ffs: self.ffs * k,
            dsps: self.dsps * k,
            brams: self.brams * k,
        }
    }
}

/// Cost of one operation instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Cycles from operand issue to result.
    pub latency: u32,
    /// Cycles between successive issues to the same unit (1 = fully
    /// pipelined).
    pub initiation_interval: u32,
    /// Area of one functional unit.
    pub area: Resources,
}

impl OpCost {
    fn new(latency: u32, ii: u32, luts: u64, ffs: u64, dsps: u64) -> Self {
        OpCost {
            latency,
            initiation_interval: ii,
            area: Resources {
                luts,
                ffs,
                dsps,
                brams: 0,
            },
        }
    }
}

/// The cost library: maps ops (under a numeric format) to costs.
#[derive(Debug, Clone)]
pub struct CostLibrary {
    /// Target clock period in nanoseconds.
    pub clock_ns: f64,
    /// Read/write ports per PLM bank.
    pub plm_ports_per_bank: u32,
}

impl Default for CostLibrary {
    fn default() -> Self {
        CostLibrary {
            clock_ns: 3.33, // 300 MHz, typical for Alveo HLS kernels
            plm_ports_per_bank: 2,
        }
    }
}

impl CostLibrary {
    /// Cost of a floating/fixed arithmetic op in the given format.
    pub(crate) fn arith_cost(&self, op: &str, format: NumericFormat) -> OpCost {
        match format {
            NumericFormat::F64 => match op {
                "addf" | "subf" | "maxf" | "minf" => OpCost::new(7, 1, 800, 1200, 3),
                "mulf" => OpCost::new(8, 1, 300, 800, 11),
                "divf" => OpCost::new(30, 16, 3000, 3500, 0),
                "sqrt" => OpCost::new(28, 14, 2800, 3200, 0),
                "exp" | "log" => OpCost::new(24, 4, 4000, 4500, 26),
                "negf" | "absf" => OpCost::new(1, 1, 70, 70, 0),
                "cmpf" => OpCost::new(2, 1, 120, 100, 0),
                _ => OpCost::new(1, 1, 64, 64, 0),
            },
            NumericFormat::F32 => match op {
                "addf" | "subf" | "maxf" | "minf" => OpCost::new(5, 1, 400, 600, 2),
                "mulf" => OpCost::new(4, 1, 150, 300, 3),
                "divf" => OpCost::new(16, 8, 800, 900, 0),
                "sqrt" => OpCost::new(14, 7, 600, 700, 0),
                "exp" | "log" => OpCost::new(16, 2, 1800, 2000, 7),
                "negf" | "absf" => OpCost::new(1, 1, 40, 40, 0),
                "cmpf" => OpCost::new(1, 1, 66, 60, 0),
                _ => OpCost::new(1, 1, 32, 32, 0),
            },
            NumericFormat::Fixed(f) => {
                let w = f.width() as u64;
                match op {
                    "addf" | "subf" | "maxf" | "minf" | "negf" | "absf" | "cmpf" => {
                        OpCost::new(1, 1, w, w, 0)
                    }
                    "mulf" => {
                        // one DSP per 18x27 tile
                        let dsps = w.div_ceil(18).max(1);
                        OpCost::new(2, 1, w / 2, w, dsps)
                    }
                    "divf" => OpCost::new((f.width() / 2).max(4), 2, 8 * w, 6 * w, 0),
                    "sqrt" => OpCost::new((f.width() / 2).max(4), 2, 6 * w, 5 * w, 0),
                    "exp" | "log" => OpCost::new(6, 1, 20 * w, 10 * w, 1), // LUT-table based
                    _ => OpCost::new(1, 1, w, w, 0),
                }
            }
            NumericFormat::Posit(p) => {
                let w = p.width as u64;
                // decode + core + encode: more LUTs than fixed, fewer DSPs
                // than ieee double.
                match op {
                    "addf" | "subf" | "maxf" | "minf" => OpCost::new(4, 1, 12 * w, 8 * w, 0),
                    "mulf" => {
                        let dsps = w.div_ceil(18).max(1);
                        OpCost::new(5, 1, 10 * w, 8 * w, dsps)
                    }
                    "divf" => OpCost::new(p.width.max(8), 4, 24 * w, 16 * w, 0),
                    "sqrt" => OpCost::new(p.width.max(8), 4, 20 * w, 14 * w, 0),
                    "exp" | "log" => OpCost::new(10, 2, 30 * w, 16 * w, 1),
                    "negf" | "absf" | "cmpf" => OpCost::new(1, 1, 2 * w, w, 0),
                    _ => OpCost::new(1, 1, 2 * w, w, 0),
                }
            }
        }
    }

    /// Cost of an op given its fully qualified name and result type.
    ///
    /// `format` overrides the float format for `arith` float ops (the
    /// custom-data-format experiments re-map f64 kernels to base2 types).
    pub fn op_cost(&self, name: &str, result_ty: Option<&Type>, format: NumericFormat) -> OpCost {
        let (dialect, op) = name.split_once('.').unwrap_or(("", name));
        match (dialect, op) {
            ("arith", "constant") => OpCost::new(0, 1, 0, 0, 0),
            (
                "arith",
                "addf" | "subf" | "mulf" | "divf" | "maxf" | "minf" | "negf" | "absf" | "sqrt"
                | "exp" | "log" | "cmpf",
            ) => self.arith_cost(op, format),
            ("arith", "addi" | "subi" | "andi" | "ori" | "xori" | "cmpi" | "index_cast") => {
                OpCost::new(1, 1, 64, 64, 0)
            }
            ("arith", "muli") => OpCost::new(2, 1, 100, 100, 2),
            ("arith", "divsi" | "remsi") => OpCost::new(18, 4, 1200, 1000, 0),
            ("arith", "select") => OpCost::new(1, 1, 64, 64, 0),
            ("arith", "sitofp" | "fptosi" | "extf" | "truncf") => OpCost::new(3, 1, 200, 250, 0),
            ("base2", "quantize" | "dequantize" | "convert") => OpCost::new(2, 1, 150, 150, 0),
            ("base2", "add" | "sub") => self.arith_cost("addf", format),
            ("base2", "mul") => self.arith_cost("mulf", format),
            ("base2", "div") => self.arith_cost("divf", format),
            ("memref", "load") => OpCost::new(2, 1, 30, 40, 0),
            ("memref", "store") => OpCost::new(1, 1, 20, 20, 0),
            ("memref", "alloc") => {
                // PLM storage: BRAM count from capacity.
                let brams = result_ty.map_or(0, Self::bram_cost);
                OpCost {
                    latency: 0,
                    initiation_interval: 1,
                    area: Resources {
                        luts: 0,
                        ffs: 0,
                        dsps: 0,
                        brams,
                    },
                }
            }
            ("memref", "copy") => OpCost::new(1, 1, 50, 50, 0),
            ("scf", _) | ("func", _) => OpCost::new(0, 1, 0, 0, 0),
            _ => OpCost::new(1, 1, 64, 64, 0),
        }
    }

    /// 18 Kb BRAM halves needed to store a shaped type.
    pub fn bram_cost(ty: &Type) -> u64 {
        let Some(elements) = ty.num_elements() else {
            return 0;
        };
        let width = ty.elem().and_then(Type::bit_width).unwrap_or(64) as u64;
        let bits = elements * width;
        bits.div_ceil(18 * 1024).max(1)
    }

    /// Achievable clock frequency in MHz.
    pub fn fmax_mhz(&self) -> f64 {
        1000.0 / self.clock_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_ops_are_expensive_fixed_ops_cheap() {
        let lib = CostLibrary::default();
        let f64_mul = lib.arith_cost("mulf", NumericFormat::F64);
        let fx16_mul = lib.arith_cost("mulf", NumericFormat::Fixed(FixedFormat::signed(7, 8)));
        assert!(f64_mul.latency > fx16_mul.latency);
        assert!(f64_mul.area.dsps > fx16_mul.area.dsps);
        let fx_add = lib.arith_cost("addf", NumericFormat::Fixed(FixedFormat::signed(7, 8)));
        assert_eq!(fx_add.latency, 1);
        assert_eq!(fx_add.area.dsps, 0);
    }

    #[test]
    fn posit_sits_between_fixed_and_double_in_luts() {
        let lib = CostLibrary::default();
        let fixed = lib
            .arith_cost("addf", NumericFormat::Fixed(FixedFormat::signed(15, 16)))
            .area
            .luts;
        let posit = lib
            .arith_cost("addf", NumericFormat::Posit(PositFormat::new(32, 2)))
            .area
            .luts;
        let double = lib.arith_cost("addf", NumericFormat::F64).area.luts;
        assert!(fixed < posit, "fixed {fixed} < posit {posit}");
        assert!(posit < double, "posit {posit} < double {double}");
    }

    #[test]
    fn bram_cost_scales_with_capacity() {
        let small = Type::memref(&[128], Type::F32, everest_ir::MemorySpace::Plm);
        let large = Type::memref(&[16384], Type::F64, everest_ir::MemorySpace::Plm);
        assert_eq!(CostLibrary::bram_cost(&small), 1);
        assert!(CostLibrary::bram_cost(&large) > 32);
    }

    #[test]
    fn resources_arithmetic() {
        let a = Resources {
            luts: 10,
            ffs: 20,
            dsps: 1,
            brams: 2,
        };
        let b = a.add(a).scale(2);
        assert_eq!(b.luts, 40);
        assert_eq!(b.dsps, 4);
    }

    #[test]
    fn division_is_not_fully_pipelined_in_double() {
        let lib = CostLibrary::default();
        let div = lib.arith_cost("divf", NumericFormat::F64);
        assert!(div.initiation_interval > 1);
    }

    #[test]
    fn op_cost_dispatches_by_dialect() {
        let lib = CostLibrary::default();
        assert_eq!(
            lib.op_cost("arith.constant", None, NumericFormat::F64)
                .latency,
            0
        );
        assert!(lib.op_cost("arith.divsi", None, NumericFormat::F64).latency > 10);
        assert_eq!(
            lib.op_cost("memref.load", None, NumericFormat::F64).latency,
            2
        );
        let alloc_ty = Type::memref(&[1024], Type::F64, everest_ir::MemorySpace::Plm);
        let alloc = lib.op_cost("memref.alloc", Some(&alloc_ty), NumericFormat::F64);
        assert!(alloc.area.brams >= 4);
    }
}
