//! Parameter storage and the Adam optimizer.
//!
//! A [`ParamStore`] owns the model parameters across training steps. Each
//! step, [`ParamStore::bind`] copies parameters onto a fresh tape as
//! differentiable leaves; after `backward`, [`ParamStore::step`] reads the
//! gradients back and applies an Adam update.

use crate::error::MgError;
use crate::matrix::Matrix;
use crate::tape::{Gradients, Tape, Var};

/// Handle to a parameter owned by a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(usize);

struct Param {
    name: String,
    value: Matrix,
    /// Adam first-moment estimate.
    m: Matrix,
    /// Adam second-moment estimate.
    v: Matrix,
}

/// Serializable state of one parameter: its value and Adam moments.
///
/// This is the unit mg-ckpt persists; name and shape double as the
/// integrity check when a checkpoint is imported into a freshly built
/// model ([`ParamStore::import_state`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSnapshot {
    pub name: String,
    pub value: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

/// Owns parameters and their Adam state.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Number of Adam steps taken (for bias correction).
    t: u64,
}

/// Hyper-parameters for the Adam update.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    pub weight_decay: f64,
    /// Clip gradients to this max-absolute value (0 disables clipping).
    pub grad_clip: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            grad_clip: 5.0,
        }
    }
}

impl AdamConfig {
    /// Config with the given learning rate and defaults elsewhere.
    pub fn with_lr(lr: f64) -> Self {
        AdamConfig {
            lr,
            ..Default::default()
        }
    }
}

/// The tape bindings of one forward pass: maps parameters to leaf vars.
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// The leaf variable bound to `id` on this pass's tape.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// Whether any bound parameter requires grad: false for a
    /// [`ParamStore::bind_frozen`] binding, whose forwards can never
    /// reach a backward pass over the parameters.
    pub fn requires_grad(&self, tape: &Tape) -> bool {
        self.vars.iter().any(|&v| tape.requires_grad(v))
    }

    /// Build a binding from externally created leaf variables, one per
    /// parameter in store-registration order.
    ///
    /// This lets verification harnesses (gradcheck drivers) create the
    /// leaves themselves — e.g. from perturbed copies of the parameter
    /// values — and still run a model forward that looks up parameters via
    /// [`Binding::var`]. The caller is responsible for ordering: vars must
    /// align with [`ParamStore::param_ids`].
    pub fn from_vars(vars: Vec<Var>) -> Self {
        Binding { vars }
    }
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the name is used for debugging/inspection.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            value,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access (e.g. for custom re-initialisation).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// All parameter ids in registration order (the order `bind` and
    /// [`Binding::from_vars`] use).
    pub fn param_ids(&self) -> Vec<ParamId> {
        (0..self.params.len()).map(ParamId).collect()
    }

    /// Copy every parameter onto `tape` as a differentiable leaf.
    pub fn bind(&self, tape: &Tape) -> Binding {
        Binding {
            vars: self
                .params
                .iter()
                .map(|p| tape.leaf(p.value.clone(), true))
                .collect(),
        }
    }

    /// Copy every parameter onto `tape` as a *non-differentiable* leaf.
    ///
    /// The forward-only inference path uses this: backward skips
    /// non-gradient leaves entirely, so no gradient storage is ever
    /// allocated for the parameters and `backward`/`step` are never
    /// meaningful on such a binding.
    pub fn bind_frozen(&self, tape: &Tape) -> Binding {
        Binding {
            vars: self
                .params
                .iter()
                .map(|p| tape.leaf(p.value.clone(), false))
                .collect(),
        }
    }

    /// Apply one Adam step from the gradients of the given binding.
    ///
    /// Parameters whose gradient is absent (not reached by backward) are
    /// left untouched, matching lazy-gradient semantics.
    pub fn step(&mut self, grads: &mut Gradients, binding: &Binding, cfg: &AdamConfig) {
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        for (param, &var) in self.params.iter_mut().zip(&binding.vars) {
            let Some(mut grad) = grads.take(var) else {
                continue;
            };
            debug_assert_eq!(grad.shape(), param.value.shape(), "gradient shape mismatch");
            if cfg.grad_clip > 0.0 {
                let clip = cfg.grad_clip;
                for g in grad.data_mut() {
                    *g = g.clamp(-clip, clip);
                }
            }
            if cfg.weight_decay > 0.0 {
                grad.add_scaled(&param.value, cfg.weight_decay);
            }
            for i in 0..grad.len() {
                let g = grad.data()[i];
                let m = &mut param.m.data_mut()[i];
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                let v = &mut param.v.data_mut()[i];
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                param.value.data_mut()[i] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            }
        }
    }

    /// Number of Adam steps taken so far (the bias-correction clock).
    pub fn adam_t(&self) -> u64 {
        self.t
    }

    /// Export the full optimizer state — every parameter's value and
    /// Adam moments plus the step counter — for persistence (mg-ckpt).
    pub fn export_state(&self) -> (Vec<ParamSnapshot>, u64) {
        let snaps = self
            .params
            .iter()
            .map(|p| ParamSnapshot {
                name: p.name.clone(),
                value: p.value.clone(),
                m: p.m.clone(),
                v: p.v.clone(),
            })
            .collect();
        (snaps, self.t)
    }

    /// Overwrite this store's state with an exported snapshot.
    ///
    /// The store must already hold the same parameter list (same count,
    /// names and shapes, in registration order) — i.e. the model must be
    /// rebuilt with the same architecture before importing. Any
    /// disagreement is an [`MgError::Mismatch`]; a NaN or ±∞ anywhere in
    /// a value or Adam moment is an [`MgError::InvalidInput`] (such a
    /// snapshot can still pass a checkpoint's CRCs). On error the store
    /// is left untouched.
    pub fn import_state(&mut self, snaps: &[ParamSnapshot], t: u64) -> Result<(), MgError> {
        if snaps.len() != self.params.len() {
            return Err(MgError::Mismatch {
                detail: format!(
                    "checkpoint has {} parameter tensors, model has {}",
                    snaps.len(),
                    self.params.len()
                ),
            });
        }
        for (p, s) in self.params.iter().zip(snaps) {
            if p.name != s.name {
                return Err(MgError::Mismatch {
                    detail: format!(
                        "parameter name mismatch: checkpoint '{}', model '{}'",
                        s.name, p.name
                    ),
                });
            }
            if p.value.shape() != s.value.shape()
                || s.m.shape() != s.value.shape()
                || s.v.shape() != s.value.shape()
            {
                return Err(MgError::Mismatch {
                    detail: format!(
                        "parameter '{}' shape mismatch: checkpoint {:?}/{:?}/{:?}, model {:?}",
                        s.name,
                        s.value.shape(),
                        s.m.shape(),
                        s.v.shape(),
                        p.value.shape()
                    ),
                });
            }
            for (what, m) in [("value", &s.value), ("m", &s.m), ("v", &s.v)] {
                if let Some(k) = m.data().iter().position(|x| !x.is_finite()) {
                    return Err(MgError::InvalidInput {
                        detail: format!(
                            "parameter '{}' {what} holds non-finite {} at flat index {k}",
                            s.name,
                            m.data()[k]
                        ),
                    });
                }
            }
        }
        for (p, s) in self.params.iter_mut().zip(snaps) {
            p.value = s.value.clone();
            p.m = s.m.clone();
            p.v = s.v.clone();
        }
        self.t = t;
        Ok(())
    }

    /// Snapshot all parameter values (for best-model checkpointing).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restore a snapshot taken with [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the current parameter list.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "snapshot length mismatch"
        );
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch");
            p.value = s.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(w) = ||w - target||^2 with Adam should converge.
    #[test]
    fn adam_minimises_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 3));
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let cfg = AdamConfig::with_lr(0.05);
        for _ in 0..400 {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let t = tape.constant(target.clone());
            let diff = tape.sub(binding.var(w), t);
            let sq = tape.mul_elem(diff, diff);
            let loss = tape.sum_all(sq);
            let mut grads = tape.backward(loss);
            store.step(&mut grads, &binding, &cfg);
        }
        let w_val = store.value(w);
        for (a, b) in w_val.data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "w = {w_val:?}");
        }
    }

    #[test]
    fn missing_gradient_leaves_param_untouched() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 1, 3.0));
        let u = store.add("unused", Matrix::full(1, 1, 7.0));
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let loss = tape.sum_all(binding.var(w));
        let mut grads = tape.backward(loss);
        store.step(&mut grads, &binding, &AdamConfig::with_lr(0.1));
        assert_eq!(store.value(u).scalar(), 7.0);
        assert!(store.value(w).scalar() < 3.0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 2, 1.0));
        let snap = store.snapshot();
        store.value_mut(w).data_mut()[0] = 99.0;
        store.restore(&snap);
        assert_eq!(store.value(w).data(), &[1.0, 1.0]);
    }

    /// A run whose optimizer state was exported after k steps and
    /// imported into a freshly built twin must continue identically —
    /// the invariant checkpoint/resume is built on.
    #[test]
    fn export_import_resumes_identically() {
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let cfg = AdamConfig::with_lr(0.05);
        let step = |store: &mut ParamStore, w: ParamId| {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let t = tape.constant(target.clone());
            let diff = tape.sub(binding.var(w), t);
            let sq = tape.mul_elem(diff, diff);
            let loss = tape.sum_all(sq);
            let mut grads = tape.backward(loss);
            store.step(&mut grads, &binding, &cfg);
        };
        let mut a = ParamStore::new();
        let wa = a.add("w", Matrix::zeros(1, 3));
        for _ in 0..7 {
            step(&mut a, wa);
        }
        let (snaps, t) = a.export_state();
        assert_eq!(t, 7);
        let mut b = ParamStore::new();
        let wb = b.add("w", Matrix::zeros(1, 3));
        b.import_state(&snaps, t).unwrap();
        for _ in 0..5 {
            step(&mut a, wa);
            step(&mut b, wb);
        }
        // bitwise: same moments + same t => identical Adam trajectories
        assert_eq!(a.value(wa).data(), b.value(wb).data());
        assert_eq!(a.adam_t(), b.adam_t());
    }

    #[test]
    fn import_rejects_mismatches() {
        let mut src = ParamStore::new();
        src.add("w", Matrix::zeros(2, 2));
        let (snaps, t) = src.export_state();
        // wrong count
        let mut dst = ParamStore::new();
        assert!(matches!(
            dst.import_state(&snaps, t),
            Err(MgError::Mismatch { .. })
        ));
        // wrong name
        let mut dst = ParamStore::new();
        dst.add("b", Matrix::zeros(2, 2));
        assert!(matches!(
            dst.import_state(&snaps, t),
            Err(MgError::Mismatch { .. })
        ));
        // wrong shape
        let mut dst = ParamStore::new();
        dst.add("w", Matrix::zeros(2, 3));
        assert!(matches!(
            dst.import_state(&snaps, t),
            Err(MgError::Mismatch { .. })
        ));
        // exact twin succeeds
        let mut dst = ParamStore::new();
        dst.add("w", Matrix::zeros(2, 2));
        assert!(dst.import_state(&snaps, t).is_ok());
    }

    #[test]
    fn import_rejects_non_finite_state_untouched() {
        let mut src = ParamStore::new();
        src.add("w", Matrix::full(2, 2, 0.5));
        let (clean, t) = src.export_state();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..3 {
                let mut snaps = clean.clone();
                let m = match field {
                    0 => &mut snaps[0].value,
                    1 => &mut snaps[0].m,
                    _ => &mut snaps[0].v,
                };
                m[(1, 0)] = bad;
                let mut dst = ParamStore::new();
                let w = dst.add("w", Matrix::full(2, 2, 7.0));
                assert!(matches!(
                    dst.import_state(&snaps, t),
                    Err(MgError::InvalidInput { .. })
                ));
                assert_eq!(dst.value(w).data(), &[7.0; 4]);
            }
        }
    }

    #[test]
    fn frozen_binding_yields_no_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 2, 2.0));
        let tape = Tape::new();
        let binding = store.bind_frozen(&tape);
        let loss = tape.sum_all(binding.var(w));
        let grads = tape.backward(loss);
        assert!(
            grads.get(binding.var(w)).is_none(),
            "frozen leaves must not accumulate gradients"
        );
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        let tape = Tape::new();
        let binding = store.bind(&tape);
        // loss = 1e6 * w  -> raw gradient 1e6, clipped to 5
        let scaled = tape.scale(binding.var(w), 1e6);
        let loss = tape.sum_all(scaled);
        let mut grads = tape.backward(loss);
        let cfg = AdamConfig {
            lr: 0.1,
            grad_clip: 5.0,
            ..Default::default()
        };
        store.step(&mut grads, &binding, &cfg);
        // single Adam step magnitude is ~lr regardless, but m/v reflect the clip
        assert!(store.value(w).scalar().abs() <= 0.11);
    }
}
