//! Register-tiled loop nests shared by the dense products
//! ([`Matrix::matmul`], [`Matrix::matmul_tn`], [`Matrix::matmul_nt`])
//! and Eq. 5's Student-t kernel.
//!
//! ## The order contract
//!
//! Every output element these loops write is
//! `((0.0 + t_0) + t_1) + … + t_{K-1}`: its own accumulator, started at
//! `+0.0`, takes its terms `t_k` one at a time in ascending `k`, each
//! term a separate multiply (or subtract-and-square) and add. That is
//! exactly what the scalar reference loops (`Matrix::matmul_serial` and
//! friends) compute, so the tiled kernels are bitwise equal to them for
//! every input: there is no zero-skip (`0 × NaN` is NaN, as in the
//! references), no fused multiply-add and no reassociation. A tile only
//! changes how many independent accumulators are live at once:
//! `R × C` of them, `R` output rows by `C` output columns, held in
//! registers across the whole `k` loop. Rows and columns left over at the
//! edges run as `1 × C` and `R × 1` tiles of the same loop, and how the
//! rows are split between threads never changes an element's sum.
//!
//! ## Why the AVX2 dispatch is bitwise
//!
//! [`dispatched!`] compiles each kernel twice from one inlined body:
//! once for the baseline target and once under
//! `#[target_feature(enable = "avx2")]`, picked at run time by
//! [`Isa::detect`]. Vector lanes hold *different* output elements (the
//! `C` columns of a tile row), never partial sums of one element, and
//! rustc neither contracts `a * b + c` into an FMA (the `fma` feature is
//! not enabled, and LLVM never fuses without fast-math flags) nor
//! reorders floating-point adds. Each lane therefore rounds the same
//! operations in the same order as the scalar loop: the ISA changes
//! scheduling, not results.

use std::ops::Range;

/// Which compilation of a tiled kernel runs.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Compiled for the crate's target (SSE2 on x86_64).
    Baseline,
    /// Compiled with AVX2 enabled; only valid where the CPU has it.
    Avx2,
}

impl Isa {
    /// The fastest compilation this CPU can run.
    pub fn detect() -> Isa {
        if Isa::Avx2.available() {
            Isa::Avx2
        } else {
            Isa::Baseline
        }
    }

    /// Whether this CPU can run the compilation.
    pub fn available(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            // std caches the cpuid probe behind an atomic, so this is cheap.
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => false,
        }
    }
}

/// Define `pub(crate) fn $name(isa, args..)`, which runs the
/// `#[inline(always)]` function `$body` compiled for `isa`.
///
/// # Panics
/// Panics when asked for [`Isa::Avx2`] on a CPU without AVX2.
macro_rules! dispatched {
    ($(#[$doc:meta])* $name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        pub(crate) fn $name(isa: $crate::tile::Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            match isa {
                #[cfg(target_arch = "x86_64")]
                $crate::tile::Isa::Avx2 => {
                    assert!(isa.available(), "the AVX2 kernels need a CPU with AVX2");
                    // SAFETY: the CPU supports AVX2, checked just above.
                    unsafe { avx2($($arg),*) }
                }
                _ => $body($($arg),*),
            }
        }
    };
}
pub(crate) use dispatched;

/// A matrix operand as a tile reads it: element `(i, k)`, where `i` runs
/// along the tile's rows (or columns) and `k` along the summed depth.
pub(crate) trait Operand {
    /// Elements `(first + n, k)` for `n` in `0..N`.
    fn at<const N: usize>(&self, first: usize, k: usize) -> [f64; N];
}

/// Element `(i, k)` at `data[i * stride + k]`: the left operand of
/// `A · B`, read one strided element per tile row.
pub(crate) struct ByRow<'a> {
    pub data: &'a [f64],
    pub stride: usize,
}

impl Operand for ByRow<'_> {
    #[inline(always)]
    fn at<const N: usize>(&self, first: usize, k: usize) -> [f64; N] {
        std::array::from_fn(|n| self.data[(first + n) * self.stride + k])
    }
}

/// Element `(i, k)` at `data[k * stride + i]`: the right operand of
/// `A · B`, or the left operand of `Aᵀ · B`, read as `N` contiguous
/// elements per `k`.
pub(crate) struct ByDepth<'a> {
    pub data: &'a [f64],
    pub stride: usize,
}

impl Operand for ByDepth<'_> {
    #[inline(always)]
    fn at<const N: usize>(&self, first: usize, k: usize) -> [f64; N] {
        let at = k * self.stride + first;
        self.data[at..at + N].try_into().unwrap()
    }
}

/// The product term `x · y` of a matrix product.
#[inline(always)]
pub(crate) fn product(x: f64, y: f64) -> f64 {
    x * y
}

/// The squared-difference term `(x - y)²` of a squared distance.
#[inline(always)]
pub(crate) fn squared_diff(x: f64, y: f64) -> f64 {
    let diff = x - y;
    diff * diff
}

/// Fill output rows `rows` (stored from `block[0]`, `width` wide) with
/// `out[i][j] = Σ_{k < depth} term(lhs(i, k), rhs(j, k))`, ascending `k`
/// from `0.0`, in `R × C` register tiles.
#[inline(always)]
pub(crate) fn fill<const R: usize, const C: usize>(
    lhs: &impl Operand,
    rhs: &impl Operand,
    depth: usize,
    rows: Range<usize>,
    width: usize,
    block: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    let mut i = rows.start;
    while i + R <= rows.end {
        let out = &mut block[(i - rows.start) * width..(i - rows.start + R) * width];
        row_block::<R, C>(lhs, rhs, depth, i, width, out, term);
        i += R;
    }
    while i < rows.end {
        let out = &mut block[(i - rows.start) * width..(i - rows.start + 1) * width];
        row_block::<1, C>(lhs, rhs, depth, i, width, out, term);
        i += 1;
    }
}

/// Output rows `i..i + R` (in `out`), in `R × C` tiles and `R × 1` tails.
#[inline(always)]
fn row_block<const R: usize, const C: usize>(
    lhs: &impl Operand,
    rhs: &impl Operand,
    depth: usize,
    i: usize,
    width: usize,
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    let mut j = 0;
    while j + C <= width {
        let acc = tile::<R, C>(lhs, rhs, depth, i, j, term);
        for (r, row) in acc.iter().enumerate() {
            out[r * width + j..r * width + j + C].copy_from_slice(row);
        }
        j += C;
    }
    while j < width {
        let acc = tile::<R, 1>(lhs, rhs, depth, i, j, term);
        for (r, row) in acc.iter().enumerate() {
            out[r * width + j] = row[0];
        }
        j += 1;
    }
}

/// One `R × C` tile: every accumulator starts at `0.0` and adds its
/// terms in ascending `k`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    lhs: &impl Operand,
    rhs: &impl Operand,
    depth: usize,
    i: usize,
    j: usize,
    term: impl Fn(f64, f64) -> f64 + Copy,
) -> [[f64; C]; R] {
    let mut acc = [[0.0f64; C]; R];
    for k in 0..depth {
        let a = lhs.at::<R>(i, k);
        let b = rhs.at::<C>(j, k);
        for (row, &x) in acc.iter_mut().zip(&a) {
            for (o, &y) in row.iter_mut().zip(&b) {
                *o += term(x, y);
            }
        }
    }
    acc
}
