//! Dispatch layer between the tensor kernels and `mg-runtime`.
//!
//! With the `parallel` feature enabled, kernels partition their output
//! rows across the ambient thread pool; without it every helper here
//! degrades to a single plain call with zero overhead, so serial builds
//! compile the exact seed code paths. Per-kernel timings go to
//! [`mg_runtime::KernelStats`] through [`mg_runtime::timed`] in every
//! build.
//!
//! ## Determinism contract
//!
//! Every helper hands `body` contiguous, disjoint ranges whose union is
//! `0..rows`, and kernels compute each output row entirely inside one
//! invocation using the serial inner-loop order. The floating-point
//! reduction order per output element is therefore independent of thread
//! count and scheduling, making parallel results bitwise identical to
//! serial ones. [`for_each_permuted_value`] extends the same contract to
//! permutation-scattered outputs: each output element is computed exactly
//! once by one invocation, so no reduction order exists to disturb.
//! Transpose-product kernels (`spmm_t` family) partition over the cached
//! transposed pattern, whose per-row entries replay the serial scatter
//! order — see `Csr::transpose_struct`.

use std::ops::Range;

/// Minimum mul-adds per chunk for the dense matmul family.
///
/// Gating on output rows alone mis-sizes chunks at both extremes: a fat
/// 8 x 512 x 512 product (~2M mul-adds) never split under the old
/// 8-row minimum, while a tall-thin 10k x 4 x 4 one shattered into
/// chunks carrying less work than a single pool hand-off. Chunks are
/// therefore sized by estimated work: `matmul_512x512x512` measures
/// ~0.33 ns per mul-add serial (`BENCH_ops.json`, 44,943,298 ns /
/// 512^3), so a 131,072 mul-add chunk carries ~44 µs — safely two
/// orders above the ~2.7 µs pool hand-off cost measured for
/// `MIN_ELEMS` below — while still letting that fat 8-row product
/// split into one chunk per row.
pub(crate) const MIN_MATMUL_WORK: usize = 131_072;
/// Minimum rows per chunk for sparse kernels (cheap per-row work).
pub(crate) const MIN_SPARSE_ROWS: usize = 64;
/// Minimum elements per chunk for flat elementwise kernels.
///
/// Sized for the cheapest elementwise ops, which are memory-bound:
/// `zip_512k_elems` measures ~0.65 ns/element serial (`BENCH_ops.json`,
/// 335,805 ns / 512k), so the old 4096-element minimum put only ~2.7 µs
/// of work in a chunk — the same order as one pool hand-off (mutex +
/// condvar wake), which made small parallel zips a measured regression.
/// At 32,768 elements a chunk carries ~21 µs of work, keeping scheduling
/// overhead in the low single-digit percents; compute-bound maps (tanh is
/// ~17 ns/element — `map_512k_elems` at 8.9 ms / 512k) clear the bar by a
/// wide margin at any size that passes it.
pub(crate) const MIN_ELEMS: usize = 32_768;

/// True when the ambient pool would actually split `rows` into more than
/// one chunk — kernels with a distinct (faster) serial loop shape branch
/// on this so that one thread always runs the exact serial code.
#[cfg(feature = "parallel")]
#[inline]
pub(crate) fn use_parallel(rows: usize, min_rows: usize) -> bool {
    mg_runtime::current_threads() > 1 && rows / min_rows.max(1) > 1
}

/// Rows per chunk for a matmul-family kernel whose every output row
/// costs `per_row_work` mul-adds, sized so each chunk carries at least
/// [`MIN_MATMUL_WORK`] of them. Any partition yields bitwise-identical
/// results (each row is reduced serially inside one chunk), so this
/// only tunes scheduling granularity, never numerics.
#[inline]
pub(crate) fn matmul_chunk_rows(per_row_work: usize) -> usize {
    MIN_MATMUL_WORK.div_ceil(per_row_work.max(1)).max(1)
}

/// Run `body(range, block)` over disjoint contiguous row ranges covering
/// `0..rows`, where `block` is the mutable sub-slice of `out` holding
/// exactly those rows (`width` elements each).
#[cfg(feature = "parallel")]
pub(crate) fn for_each_row_block(
    out: &mut [f64],
    rows: usize,
    width: usize,
    min_rows: usize,
    body: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * width);
    let ptr = mg_runtime::SendPtr::new(out.as_mut_ptr());
    mg_runtime::parallel_rows(rows, min_rows, &|range: Range<usize>| {
        let len = (range.end - range.start) * width;
        // SAFETY: ranges from parallel_rows are disjoint, so the blocks
        // are non-overlapping sub-slices of `out`.
        let block =
            unsafe { std::slice::from_raw_parts_mut(ptr.get().add(range.start * width), len) };
        body(range, block);
    });
}

#[cfg(not(feature = "parallel"))]
pub(crate) fn for_each_row_block(
    out: &mut [f64],
    rows: usize,
    width: usize,
    _min_rows: usize,
    body: impl Fn(Range<usize>, &mut [f64]),
) {
    debug_assert_eq!(out.len(), rows * width);
    body(0..rows, out);
}

/// Like [`for_each_row_block`] for CSR-shaped outputs: chunking by row,
/// where row `r` owns the variable-length segment
/// `out[indptr[r]..indptr[r + 1]]`. The block passed to `body` covers
/// `out[indptr[range.start]..indptr[range.end]]`.
#[cfg(feature = "parallel")]
pub(crate) fn for_each_row_segments(
    out: &mut [f64],
    indptr: &[usize],
    rows: usize,
    min_rows: usize,
    body: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    debug_assert_eq!(indptr.len(), rows + 1);
    debug_assert_eq!(out.len(), indptr[rows]);
    let ptr = mg_runtime::SendPtr::new(out.as_mut_ptr());
    mg_runtime::parallel_rows(rows, min_rows, &|range: Range<usize>| {
        let (s, e) = (indptr[range.start], indptr[range.end]);
        // SAFETY: row ranges are disjoint and indptr is non-decreasing,
        // so the segments are non-overlapping sub-slices of `out`.
        let block = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        body(range, block);
    });
}

#[cfg(not(feature = "parallel"))]
pub(crate) fn for_each_row_segments(
    out: &mut [f64],
    indptr: &[usize],
    rows: usize,
    _min_rows: usize,
    body: impl Fn(Range<usize>, &mut [f64]),
) {
    debug_assert_eq!(indptr.len(), rows + 1);
    debug_assert_eq!(out.len(), indptr[rows]);
    body(0..rows, out);
}

/// Row-partition a *transposed* CSR pattern (`t_indptr`, `t_rows` rows)
/// and store `f(c, k)` into `out[perm[k]]` for every entry
/// `k in t_indptr[c]..t_indptr[c + 1]` of every transposed row `c`.
///
/// Used by value-gradient kernels whose output is laid out in the
/// *original* entry order while the work is partitioned over the
/// transposed pattern: `perm` must be a bijection onto `0..out.len()`,
/// which makes the scattered writes disjoint, and each element is
/// computed exactly once so any partition is trivially bitwise exact.
#[cfg(feature = "parallel")]
pub(crate) fn for_each_permuted_value(
    out: &mut [f64],
    t_indptr: &[usize],
    t_rows: usize,
    perm: &[usize],
    min_rows: usize,
    f: impl Fn(usize, usize) -> f64 + Sync,
) {
    debug_assert_eq!(t_indptr.len(), t_rows + 1);
    debug_assert_eq!(out.len(), perm.len());
    let ptr = mg_runtime::SendPtr::new(out.as_mut_ptr());
    mg_runtime::parallel_rows(t_rows, min_rows, &|range: Range<usize>| {
        for c in range {
            let (s, e) = (t_indptr[c], t_indptr[c + 1]);
            for (k, &p) in (s..e).zip(&perm[s..e]) {
                // SAFETY: row ranges are disjoint and `perm` is a
                // bijection, so each `out` slot is written exactly once.
                unsafe { *ptr.get().add(p) = f(c, k) };
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fat shape from the dispatch-gate bug report: 8 output rows,
    /// 512 inner, 512 cols is ~2M mul-adds and must split row-by-row.
    #[test]
    fn fat_shape_gets_single_row_chunks() {
        assert_eq!(matmul_chunk_rows(512 * 512), 1);
    }

    /// A tall-thin 10k x 4 x 4 product carries 16 mul-adds per row;
    /// chunks must grow until they hold MIN_MATMUL_WORK of them instead
    /// of shattering into 8-row slivers worth less than a pool hand-off.
    #[test]
    fn tall_thin_shape_gets_work_sized_chunks() {
        let chunk = matmul_chunk_rows(4 * 4);
        assert_eq!(chunk, MIN_MATMUL_WORK.div_ceil(16));
        // 10k rows no longer split at all: total work is ~160k mul-adds,
        // barely one chunk's worth.
        assert_eq!(10_000 / chunk, 1);
    }

    #[test]
    fn degenerate_row_work_still_positive() {
        assert!(matmul_chunk_rows(0) >= 1);
        assert_eq!(matmul_chunk_rows(usize::MAX), 1);
    }

    /// End-to-end gate check: under a multi-thread pool the fat shape is
    /// now seen as parallelizable (the old `MIN_ROWS = 8` constant made
    /// `use_parallel` report one chunk and forced it serial), and the
    /// runtime actually hands out more than one disjoint row range.
    #[cfg(feature = "parallel")]
    #[test]
    fn fat_shape_splits_under_multi_thread_pool() {
        use std::sync::{Arc, Mutex};
        let pool = Arc::new(mg_runtime::Pool::new(4));
        mg_runtime::with_pool(pool, || {
            let min_rows = matmul_chunk_rows(512 * 512);
            assert!(use_parallel(8, min_rows), "fat 8-row matmul must split");
            let seen: Mutex<Vec<std::ops::Range<usize>>> = Mutex::new(Vec::new());
            mg_runtime::parallel_rows(8, min_rows, &|range| {
                seen.lock().unwrap().push(range);
            });
            let mut ranges = seen.into_inner().unwrap();
            ranges.sort_by_key(|r| r.start);
            assert!(ranges.len() > 1, "expected multiple chunks, got {ranges:?}");
            // Disjoint cover of 0..8.
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, 8);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        });
    }
}
