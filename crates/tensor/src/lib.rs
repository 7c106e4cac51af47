//! `mbssl-tensor` — a compact, self-contained deep-learning substrate.
//!
//! This crate exists because the Rust DL ecosystem does not (yet) offer a
//! stable, dependency-light engine for the model class the `mbssl`
//! workspace reproduces. It provides:
//!
//! - dense row-major f32 [`Tensor`]s with NumPy-style broadcasting
//!   ([`shape`]),
//! - reverse-mode autodiff with a dynamic tape ([`autograd`]),
//! - threaded CPU kernels ([`kernels`]) backed by a persistent worker
//!   pool ([`pool`]),
//! - fused transformer-block ops ([`fused`]): one-pass SDPA attention,
//!   bias+GELU and residual+layernorm with hand-written backwards,
//! - an NN layer library ([`nn`]): linear, embedding, layer-norm,
//!   multi-head attention, transformer blocks, GRU,
//! - the Adam optimizer and gradient clipping ([`optim`]),
//! - seeded initializers ([`init`]).
//!
//! # Quick example
//! ```
//! use mbssl_tensor::Tensor;
//!
//! let w = Tensor::from_slice(&[1.0, 2.0], [2, 1]).requires_grad();
//! let x = Tensor::from_slice(&[3.0, 4.0], [1, 2]);
//! let loss = x.matmul(&w).sum_all(); // 3·1 + 4·2 = 11
//! loss.backward();
//! assert_eq!(loss.item(), 11.0);
//! assert_eq!(w.grad().unwrap(), vec![3.0, 4.0]);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod autograd;
pub mod fused;
pub mod init;
pub mod kernels;
pub mod nn;
mod ops;
pub mod optim;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod sharded;
pub mod simd;
pub mod tensor;

pub use autograd::no_grad;
pub use ops::dropout_mask;
pub use shape::Shape;
pub use tensor::Tensor;

/// Re-export of the workspace telemetry crate, so tensor-layer callers can
/// open spans and read traces without adding a direct dependency.
pub use mbssl_telemetry as telemetry;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// End-to-end: a tiny MLP learns XOR, proving the full
    /// forward/backward/optimizer loop works.
    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(17);
        let l1 = nn::Linear::new(2, 8, &mut rng);
        let l2 = nn::Linear::new(8, 1, &mut rng);
        let mut params = nn::ParamMap::new();
        use nn::Module;
        l1.collect_params("l1", &mut params);
        l2.collect_params("l2", &mut params);
        let mut opt = optim::Adam::new(params.tensors(), 0.05);

        let x = Tensor::from_slice(&[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], [4, 2]);
        let labels = [0.0f32, 1.0, 1.0, 0.0];

        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            use optim::Optimizer;
            opt.zero_grad();
            let logits = l2.forward(&l1.forward(&x).tanh()).flatten();
            let loss = logits.bce_with_logits(&labels);
            final_loss = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(final_loss < 0.1, "XOR loss did not converge: {final_loss}");

        // Check predictions.
        let logits = no_grad(|| l2.forward(&l1.forward(&x).tanh()).flatten());
        let preds: Vec<f32> = logits.to_vec().iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect();
        assert_eq!(preds, labels);
    }

    /// A longer chain through many op types keeps gradients finite and the
    /// graph intact.
    #[test]
    fn deep_chain_stays_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::normal([4, 8], 0.0, 1.0, &mut rng).requires_grad();
        let mut y = x.clone();
        for _ in 0..10 {
            y = y.tanh().mul_scalar(1.1).add_scalar(0.01);
        }
        let loss = y.square().mean_all();
        loss.backward();
        assert!(loss.item().is_finite());
        assert!(x.grad().unwrap().iter().all(|g| g.is_finite()));
    }

    /// no_grad forward passes record no history (memory-safety of the tape
    /// aside, this is the eval-speed contract).
    #[test]
    fn no_grad_produces_untracked_outputs() {
        let w = Tensor::ones([2, 2]).requires_grad();
        let x = Tensor::ones([1, 2]);
        let y = no_grad(|| x.matmul(&w));
        assert!(!y.is_tracked());
        assert!(y.is_leaf());
    }
}
