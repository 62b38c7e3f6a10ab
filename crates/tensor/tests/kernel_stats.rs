//! The kernel-stats registry records the tensor kernels in every build,
//! serial or parallel, so a trace's `kernel_stats` record is never empty
//! after a run that did work.

use std::rc::Rc;

use mg_tensor::{Matrix, Tape};

/// The kernel-stats registry sees the dispatched ops.
#[test]
fn kernel_stats_record_ops() {
    let a = Matrix::from_fn(16, 16, |i, j| (i + j) as f64);
    let _ = a.matmul(&a);
    let snap = mg_runtime::KernelStats::snapshot();
    assert!(
        snap.iter()
            .any(|(name, s)| *name == "matmul" && s.calls >= 1),
        "matmul missing from {snap:?}"
    );
}

/// The Student-t KL kernel and its backward sweep are timed like the
/// dense and sparse kernels, so a profile can see the Eq. 5 term.
#[test]
fn kernel_stats_record_student_t_kl() {
    let tape = Tape::new();
    let h = tape.leaf(Matrix::from_fn(9, 3, |i, j| (i * 3 + j) as f64 * 0.1), true);
    let loss = tape.student_t_kl(h, Rc::new(vec![0, 4, 8]));
    let _ = tape.backward(loss);
    let snap = mg_runtime::KernelStats::snapshot();
    for name in ["student_t_kernel", "student_t_kl_grad"] {
        assert!(
            snap.iter().any(|(n, s)| *n == name && s.calls >= 1),
            "{name} missing from {snap:?}"
        );
    }
}
