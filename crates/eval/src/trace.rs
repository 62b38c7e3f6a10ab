//! Per-epoch training traces, which mg-verify's golden and differential
//! tests consume: the training loss and validation metric of every epoch
//! run, read without any RNG draw, in the checkpoint's own [`TraceRow`]s.

pub use mg_ckpt::TraceRow;

/// The full per-epoch history of one training run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainTrace {
    pub records: Vec<TraceRow>,
}

impl TrainTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one epoch: its training loss (mean over steps for
    /// multi-step epochs) and validation metric (NaN without one).
    pub fn push(&mut self, epoch: usize, loss: f64, val: f64) {
        self.records.push(TraceRow { epoch, loss, val });
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_compare() {
        let mut a = TrainTrace::new();
        a.push(0, 1.5, 0.5);
        a.push(1, 1.2, 0.75);
        assert_eq!(a.len(), 2);
        let mut b = TrainTrace::new();
        b.push(0, 1.5, 0.5);
        b.push(1, 1.2, 0.75);
        assert_eq!(a, b);
        b.push(2, 1.0, 0.8);
        assert_ne!(a, b);
    }
}
