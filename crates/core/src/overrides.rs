//! The tape-checkpointing switch: recompute-on-backward, set per thread.
//!
//! The setting is tri-state: on, off, or not set. [`with_ckpt_tape`] is
//! its one setter, and an explicit setting always wins. When nothing is
//! set, each caller picks its own default through [`ckpt_tape_or`]:
//! `AdamGnn::forward_inner` retains (so a direct forward, graph
//! classification and the sampled trainer keep every value), while the
//! full-batch node trainer checkpoints its training forward, where the
//! dropped per-pair gathers and level features are most of a step's
//! peak memory. Forwards over a frozen binding scope regardless: they
//! never reach a backward pass, so their scopes only free memory.
//! Checkpointing changes *when* forward values are resident, never what
//! they are: gradients are bitwise identical either way (enforced by the
//! replay fingerprint check in mg-tensor and the differential suites).
//! A thread-local, not an env var, so tests and the memory-report bench
//! compare both modes in one process without touching the environment
//! (env mutation is racy under the parallel test runner).

use std::cell::Cell;

thread_local! {
    static CKPT_TAPE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Restores the previous setting on drop (also on panic).
struct Restore(Option<bool>);
impl Drop for Restore {
    fn drop(&mut self) {
        CKPT_TAPE.with(|c| c.set(self.0));
    }
}

/// Run `f` with tape checkpointing on or off for this thread, overriding
/// every caller's default. Restores the previous setting on exit (also
/// on panic).
pub fn with_ckpt_tape<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(CKPT_TAPE.with(|c| c.replace(Some(on))));
    f()
}

/// Whether forward passes on this thread checkpoint their tapes: the
/// setting of the innermost [`with_ckpt_tape`], or `default` when none
/// is in force.
pub fn ckpt_tape_or(default: bool) -> bool {
    CKPT_TAPE.with(|c| c.get()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_settings_unwind() {
        assert!(
            !ckpt_tape_or(false) && ckpt_tape_or(true),
            "unset by default"
        );
        with_ckpt_tape(true, || {
            with_ckpt_tape(false, || assert!(!ckpt_tape_or(true)));
            assert!(ckpt_tape_or(false), "outer setting restored");
        });
        assert!(
            ckpt_tape_or(true) && !ckpt_tape_or(false),
            "unset again on exit"
        );
    }
}
