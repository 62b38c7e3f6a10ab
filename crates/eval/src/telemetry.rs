//! Collection helpers between the trainers and the mg-obs trace sink.
//!
//! Everything here is *read-only observation*: helpers read tape values
//! that the training step already computed (before backward, which
//! releases them) and gradients that backward produced, and never draw
//! from an RNG — so a traced run is bit-identical to an untraced one
//! (pinned by the mg-verify golden suite). Call sites gate collection on `Trace::enabled()` so disabled
//! runs skip the work entirely.

use crate::trainer::Step;
use mg_obs::{BetaStats, EpochRecord};
use mg_tensor::{Binding, Gradients, ParamStore, Tape, Var};

/// L2 norm per parameter tensor, in registration order. Parameters the
/// backward pass never reached are reported with norm 0 (lazy-gradient
/// semantics: the optimiser leaves them untouched too).
fn grad_norms(store: &ParamStore, bind: &Binding, grads: &Gradients) -> Vec<(String, f64)> {
    store
        .param_ids()
        .into_iter()
        .map(|id| {
            let norm = grads
                .get(bind.var(id))
                .map(|g| g.data().iter().map(|x| x * x).sum::<f64>().sqrt())
                .unwrap_or(0.0);
            (store.name(id).to_string(), norm)
        })
        .collect()
}

/// The composite objective's term variables, where the trainer built
/// them (`None` for models or configurations without that term).
#[derive(Clone, Copy, Default)]
pub(crate) struct LossTerms {
    pub task: Option<Var>,
    pub kl: Option<Var>,
    pub recon: Option<Var>,
}

/// Read one step's forward telemetry into the step fields of an epoch
/// record: loss terms, β and level sizes. Runs before `backward`, which
/// releases the values it reads.
pub(crate) fn observe_forward(tape: &Tape, step: &Step) -> EpochRecord {
    let (terms, internals) = (step.terms, step.internals.as_ref());
    let scalar = |v: Var| tape.value(v).scalar();
    let beta = internals.and_then(|out| out.beta).map(|b| {
        let m = tape.value(b);
        BetaStats::from_flat(m.data(), m.shape().1)
    });
    EpochRecord {
        loss_task: terms.task.map(scalar),
        loss_kl: terms.kl.map(scalar),
        loss_recon: terms.recon.map(scalar),
        beta,
        level_sizes: internals.map_or(vec![], |o| o.levels.iter().map(|l| l.size).collect()),
        ..EpochRecord::default()
    }
}

/// Add what backward produced to `rec`: per-parameter gradient norms and
/// the tape's peak bytes, read before the optimizer step consumes the
/// gradients.
pub(crate) fn observe_backward(
    rec: &mut EpochRecord,
    tape: &Tape,
    store: &ParamStore,
    bind: &Binding,
    grads: &Gradients,
) {
    rec.grad_norms = grad_norms(store, bind, grads);
    rec.peak_tape_bytes = tape.peak_tape_bytes() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_tensor::Matrix;

    #[test]
    fn grad_norms_cover_all_params_in_order() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        store.add("unused", Matrix::zeros(1, 1));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        // loss = sum(3 * w): dL/dw = [3, 3], unused never reached
        let loss = tape.sum_all(tape.scale(bind.var(w), 3.0));
        let grads = tape.backward(loss);
        let norms = grad_norms(&store, &bind, &grads);
        assert_eq!(norms.len(), 2);
        assert_eq!(norms[0].0, "w");
        assert!((norms[0].1 - (18.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(norms[1], ("unused".to_string(), 0.0));
    }

    #[test]
    fn observe_reads_term_values_then_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 1, 2.0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let task = tape.sum_all(bind.var(w));
        let terms = LossTerms {
            task: Some(task),
            ..Default::default()
        };
        let step = Step::new(&tape, task, terms, None);
        let mut obs = observe_forward(&tape, &step);
        let grads = tape.backward(task);
        observe_backward(&mut obs, &tape, &store, &bind, &grads);
        assert_eq!(obs.loss_task, Some(2.0));
        assert_eq!(obs.loss_kl, None);
        assert_eq!(obs.loss_recon, None);
        assert!(obs.beta.is_none());
        assert!(obs.level_sizes.is_empty());
        assert_eq!(obs.grad_norms, vec![("w".to_string(), 1.0)]);
        assert!(obs.peak_tape_bytes > 0, "tape held at least the leaf");
    }
}
