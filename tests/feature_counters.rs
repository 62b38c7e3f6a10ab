//! Deterministic memory counters of node features, pinned by exact
//! equality.
//!
//! Node features are bag-of-words or one-hot rows, a few per cent
//! non-zero, and are stored once, sparse: in the dataset and in each
//! `GraphCtx`, with no dense `n x d` copy beside them and none made while
//! they are generated. The stored entries of the Cora analogue and the
//! bytes each holder keeps are pure functions of the generator, so they
//! are pinned here. A dense copy that comes back (one dense Cora matrix
//! is 2,708 x 512 x 8 B = 11.09 MB, against 0.65 MB sparse) moves these
//! numbers and fails here. A counting allocator measures what the
//! generator and the context really allocate, so a copy kept in a new
//! field is caught too. When a change moves them on purpose, update the
//! constants and say why in the change description.

use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
use mg_nn::GraphCtx;
use mg_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Stored (non-`+0.0`) feature entries of the Cora analogue below.
const CORA_NNZ: usize = 52_370;
/// `SparseMatrix::heap_bytes` of its features: `(n + 1) * 8 + nnz * 12`.
const CORA_FEATURE_BYTES: usize = 650_112;

/// The Cora analogue at paper scale, as perfbench's `train_full_cora`
/// generates it.
fn cora_config() -> NodeGenConfig {
    NodeGenConfig {
        scale: 1.0,
        max_feat_dim: 512,
        seed: 1,
    }
}

/// Counts the bytes the current thread has live on the heap, and their
/// high-water mark. Per thread, so the test harness's own threads do not
/// leak into a measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the bytes it left live and the
/// most it had live at once, both above the live bytes at the start.
fn measured<R>(f: impl FnOnce() -> R) -> (R, isize, isize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let (live, peak) = (LIVE.with(Cell::get), PEAK.with(Cell::get));
    (out, live - start, peak - start)
}

#[test]
fn node_feature_bytes_are_pinned() {
    let (ds, kept, peak) = measured(|| make_node_dataset(NodeDatasetKind::Cora, &cora_config()));
    let (n, d) = (ds.n(), ds.feat_dim());
    assert_eq!((n, d), (2_708, 512));
    let dense_bytes = (n * d * std::mem::size_of::<f64>()) as isize;

    assert_eq!(ds.features.nnz(), CORA_NNZ, "stored feature entries moved");
    assert_eq!(ds.features.heap_bytes(), CORA_FEATURE_BYTES);
    assert!(
        peak < dense_bytes,
        "generating the dataset had {peak} B live at once, a dense copy is {dense_bytes} B"
    );
    assert!(kept < dense_bytes, "the dataset keeps {kept} B");

    // A context keeps the features' pattern and values and nothing else:
    // beside a context built from the same graph with no feature
    // columns, it holds exactly the 4-byte column index and the 8-byte
    // value of each stored entry.
    let (ctx, with_features, _) = measured(|| GraphCtx::new(ds.graph.clone(), ds.features.clone()));
    let (bare, without, _) = measured(|| GraphCtx::new(ds.graph.clone(), Matrix::zeros(n, 0)));
    assert_eq!(bare.feat_dim(), 0);
    assert_eq!(with_features - without, (CORA_NNZ * 12) as isize);

    let (pattern, values) = ctx.x_sparse();
    let ctx_bytes = pattern.heap_bytes() + std::mem::size_of_val(values);
    assert_eq!(ctx_bytes, CORA_FEATURE_BYTES);
}
