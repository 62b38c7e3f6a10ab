//! The tape-checkpointing switch: recompute-on-backward, set per thread.
//!
//! [`with_ckpt_tape`] is its one setter; `AdamGnn::forward_inner` reads
//! it on every pass. Forwards over a frozen binding scope regardless:
//! they never reach a backward pass, so their scopes only free memory.
//! Checkpointing changes *when* forward values are resident, never what
//! they are: gradients are bitwise identical either way (enforced by the
//! replay fingerprint check in mg-tensor and the differential suites).
//! A thread-local, not an env var, so tests and the memory-report bench
//! compare both modes in one process without touching the environment
//! (env mutation is racy under the parallel test runner).

use std::cell::Cell;

thread_local! {
    static CKPT_TAPE: Cell<bool> = const { Cell::new(false) };
}

/// Restores the previous switch on drop (also on panic).
struct Restore(bool);
impl Drop for Restore {
    fn drop(&mut self) {
        CKPT_TAPE.with(|c| c.set(self.0));
    }
}

/// Run `f` with tape checkpointing on or off for this thread. Restores
/// the previous setting on exit (also on panic).
pub fn with_ckpt_tape<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(CKPT_TAPE.with(|c| c.replace(on)));
    f()
}

/// Whether forward passes on this thread checkpoint their tapes.
pub(crate) fn ckpt_tape() -> bool {
    CKPT_TAPE.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_settings_unwind() {
        assert!(!ckpt_tape(), "off by default");
        with_ckpt_tape(true, || {
            with_ckpt_tape(false, || assert!(!ckpt_tape()));
            assert!(ckpt_tape(), "outer setting restored");
        });
        assert!(!ckpt_tape(), "default restored on exit");
    }
}
