//! First-order optimizers over leaf parameter tensors.
//!
//! Optimizers hold clones of the parameter handles (cheap `Rc`s) plus
//! per-parameter state keyed by position. The training loop is the usual
//! `zero_grad → forward → backward → clip → step`.

use std::collections::HashMap;

use crate::tensor::Tensor;

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update using the gradients currently accumulated on the
    /// parameters. Parameters with no gradient are skipped.
    fn step(&mut self);

    /// Clears all parameter gradients.
    fn zero_grad(&mut self);

    /// The parameters being optimized.
    fn params(&self) -> &[Tensor];
}

/// Clips the global L2 norm of all gradients to `max_norm`; returns the
/// pre-clip norm. Call between `backward` and `step`.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total_sq = 0.0f32;
    for p in params {
        if let Some(g) = p.grad_ref().as_ref() {
            total_sq += crate::kernels::sq_norm(g);
        }
    }
    let norm = total_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.scale_grad(scale);
        }
    }
    norm
}

/// Adam with the default betas (0.9, 0.999) and eps 1e-8.
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    t: u64,
    m: HashMap<u64, Vec<f32>>,
    v: HashMap<u64, Vec<f32>>,
}

impl Adam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Adam over `params` at learning rate `lr`.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Adam {
            params,
            lr,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - Self::BETA1.powi(self.t as i32);
        let bc2 = 1.0 - Self::BETA2.powi(self.t as i32);
        for p in &self.params {
            let g_ref = p.grad_ref();
            let Some(g) = g_ref.as_ref() else { continue };
            let mut data = p.data_mut();
            let m = self
                .m
                .entry(p.id())
                .or_insert_with(|| vec![0.0; data.len()]);
            let v = self
                .v
                .entry(p.id())
                .or_insert_with(|| vec![0.0; data.len()]);
            for i in 0..data.len() {
                let grad = g[i];
                m[i] = Self::BETA1 * m[i] + (1.0 - Self::BETA1) * grad;
                v[i] = Self::BETA2 * v[i] + (1.0 - Self::BETA2) * grad * grad;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                data[i] -= self.lr * m_hat / (v_hat.sqrt() + Self::EPS);
            }
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes `(x - 3)^2` and checks convergence.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let x = opt.params()[0].clone();
        for _ in 0..steps {
            opt.zero_grad();
            let loss = x.add_scalar(-3.0).square().sum_all();
            loss.backward();
            opt.step();
        }
        x.to_vec()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = Tensor::from_slice(&[0.0], [1]).requires_grad();
        let mut opt = Adam::new(vec![x], 0.2);
        let final_x = quadratic_descent(&mut opt, 200);
        assert!((final_x - 3.0).abs() < 1e-2, "x = {final_x}");
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let p = Tensor::zeros([2]).requires_grad();
        p.accumulate_grad(&[3.0, 4.0]); // norm 5
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = p.grad().unwrap();
        let post = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let p = Tensor::zeros([2]).requires_grad();
        p.accumulate_grad(&[0.3, 0.4]);
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad().unwrap(), vec![0.3, 0.4]);
    }

    #[test]
    fn params_without_grad_are_skipped() {
        let x = Tensor::from_slice(&[1.0], [1]).requires_grad();
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step(); // no grad accumulated: unchanged
        assert_eq!(x.to_vec(), vec![1.0]);
    }
}
