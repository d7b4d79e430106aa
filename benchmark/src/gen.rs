//! Seeded input generators. Every input the SDK sees is made here from
//! the run's seed; the SDK's own generators are only reached through
//! the seed a public option struct carries.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's own stream, independent of the SDK's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that generators
    /// do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n` > 0).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// FNV-1a over the generated inputs: two runs that print the same
/// digest measured the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a string into the digest.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    /// Folds an integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float into the digest, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Extent of the `i` index of every generated kernel.
const KERNEL_ROWS: u64 = 16;
/// Extent of the reduction index `j`.
const KERNEL_COLS: u64 = 4;

/// The source of a straight-line EKL kernel of `statements` lets over `[i]` tensors,
/// mixing elementwise, `select` and `sum` statements. Every statement
/// reads its predecessor, so none is dead, and every coefficient keeps
/// values inside a bounded range, so the reference interpreter and the
/// lowered IR can be compared exactly on random inputs.
pub fn ekl_kernel(rng: &mut Rng, name: &str, statements: usize) -> String {
    let mut src = String::with_capacity(64 * statements + 256);
    let _ = writeln!(src, "kernel {name} {{");
    let _ = writeln!(src, "  index i : 0..{KERNEL_ROWS}");
    let _ = writeln!(src, "  index j : 0..{KERNEL_COLS}");
    src.push_str("  input a : [i]\n  input b : [i]\n  input m : [i, j]\n");
    let operand = |rng: &mut Rng, k: usize| -> String {
        // Inputs and every earlier statement are candidates.
        match rng.index(k + 2) {
            0 => "a[i]".to_string(),
            1 => "b[i]".to_string(),
            n => format!("s{}[i]", n - 2),
        }
    };
    for k in 0..statements {
        let prev = if k == 0 {
            "a[i]".to_string()
        } else {
            format!("s{}[i]", k - 1)
        };
        let other = operand(rng, k);
        let c1 = rng.range(0.1, 0.6);
        let c2 = rng.range(0.1, 0.4);
        match rng.index(4) {
            0 | 1 => {
                let _ = writeln!(src, "  let s{k}[i] = {c1:.3} * {prev} + {c2:.3} * {other}");
            }
            2 => {
                let _ = writeln!(
                    src,
                    "  let s{k}[i] = select({prev} <= {c1:.3}, {other}, {c2:.3} * {prev})"
                );
            }
            _ => {
                let _ = writeln!(
                    src,
                    "  let s{k}[i] = sum(j)({c2:.3} * m[i, j] * {prev}) + {c1:.3} * {other}"
                );
            }
        }
    }
    let _ = writeln!(src, "  output s{}", statements - 1);
    src.push_str("}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(42, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn unit_and_index_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn digest_separates_fields_and_orders() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }

    #[test]
    fn generated_kernel_is_deterministic_and_sized() {
        let k1 = ekl_kernel(&mut Rng::new(42, 3), "g", 32);
        let k2 = ekl_kernel(&mut Rng::new(42, 3), "g", 32);
        let k3 = ekl_kernel(&mut Rng::new(43, 3), "g", 32);
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1.matches("  let ").count(), 32);
    }
}
