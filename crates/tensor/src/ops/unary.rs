//! Elementwise unary operations and activations.

use crate::alloc;
use crate::kernels;
use crate::tensor::Tensor;

/// Generic elementwise unary op.
///
/// `fwd(x)` computes the output; `dfdx(x, y, g)` computes the input gradient
/// given input `x`, output `y`, and output gradient `g` (having both `x` and
/// `y` available lets e.g. `sigmoid` reuse the forward result). Large
/// buffers split across the worker pool in the forward pass.
fn unary_op(
    src: &Tensor,
    fwd: impl Fn(f32) -> f32 + Sync,
    dfdx: impl Fn(f32, f32, f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    let out = {
        let x = src.data();
        if kernels::map_splits(x.len()) {
            // Parallel path: copy then split the in-place map across the pool.
            let mut out = alloc::copy_of(&x);
            drop(x);
            kernels::map_inplace(&mut out, &fwd);
            out
        } else {
            // Serial path: single pass, no intermediate copy.
            let mut out = alloc::buffer(x.len());
            out.extend(x.iter().map(|&v| fwd(v)));
            out
        }
    };
    let src_c = src.clone();
    Tensor::make_op(src.shape().clone(), out, vec![src.clone()], move |out_t| {
        let g_ref = out_t.grad_ref();
        let g = g_ref.as_ref().unwrap();
        let x = src_c.data();
        let y = out_t.data();
        let mut gx = alloc::buffer(x.len());
        gx.extend((0..x.len()).map(|i| dfdx(x[i], y[i], g[i])));
        drop(x);
        drop(y);
        src_c.accumulate_grad_owned(gx);
    })
}

/// Consuming variant of [`unary_op`]: when `src` is untracked and uniquely
/// owned (the typical shape of an intermediate in a `no_grad` inference
/// chain), applies `fwd` directly to its buffer instead of materializing a
/// new tensor. Tracked or shared inputs fall back to the recording path, so
/// call sites can use this unconditionally on owned temporaries.
fn unary_op_consuming(
    src: Tensor,
    fwd: impl Fn(f32) -> f32 + Sync,
    dfdx: impl Fn(f32, f32, f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    match src.try_take_data() {
        Ok((shape, mut data)) => {
            kernels::map_inplace(&mut data, &fwd);
            Tensor::from_vec(data, shape)
        }
        Err(src) => unary_op(&src, fwd, dfdx),
    }
}

impl Tensor {
    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        unary_op(self, |x| -x, |_, _, g| -g)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        unary_op(self, f32::exp, |_, y, g| g * y)
    }

    /// Elementwise natural log. Inputs must be positive.
    pub fn ln(&self) -> Tensor {
        unary_op(self, f32::ln, |x, _, g| g / x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        unary_op(self, f32::sqrt, |_, y, g| g * 0.5 / y)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary_op(self, |x| x * x, |x, _, g| g * 2.0 * x)
    }


    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary_op(
            self,
            |x| x.max(0.0),
            |x, _, g| if x > 0.0 { g } else { 0.0 },
        )
    }

    /// Gaussian error linear unit (tanh approximation, as used by BERT).
    pub fn gelu(&self) -> Tensor {
        unary_op(self, kernels::gelu, kernels::gelu_grad)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        unary_op(
            self,
            |x| 1.0 / (1.0 + (-x).exp()),
            |_, y, g| g * y * (1.0 - y),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary_op(self, f32::tanh, |_, y, g| g * (1.0 - y * y))
    }

    /// Elementwise absolute value (gradient at 0 taken as 0).
    pub fn abs(&self) -> Tensor {
        unary_op(
            self,
            f32::abs,
            |x, _, g| {
                if x > 0.0 {
                    g
                } else if x < 0.0 {
                    -g
                } else {
                    0.0
                }
            },
        )
    }

    /// Reciprocal, `1/x`.
    pub fn recip(&self) -> Tensor {
        unary_op(self, |x| 1.0 / x, |_, y, g| -g * y * y)
    }

    // ---------------------------------------------------------------
    // Consuming variants: reuse the input buffer in place when it is
    // untracked and uniquely owned (inference chains under `no_grad`);
    // identical to the borrowing versions otherwise.
    // ---------------------------------------------------------------

    /// [`Tensor::tanh`], reusing `self`'s buffer when possible.
    pub fn into_tanh(self) -> Tensor {
        unary_op_consuming(self, f32::tanh, |_, y, g| g * (1.0 - y * y))
    }

    /// [`Tensor::sigmoid`], reusing `self`'s buffer when possible.
    pub fn into_sigmoid(self) -> Tensor {
        unary_op_consuming(self, |x| 1.0 / (1.0 + (-x).exp()), |_, y, g| g * y * (1.0 - y))
    }

    /// [`Tensor::mul_scalar`], reusing `self`'s buffer when possible.
    pub fn into_mul_scalar(self, s: f32) -> Tensor {
        unary_op_consuming(self, move |x| x * s, move |_, _, g| g * s)
    }

    /// [`Tensor::add_scalar`], reusing `self`'s buffer when possible.
    pub fn into_add_scalar(self, s: f32) -> Tensor {
        unary_op_consuming(self, move |x| x + s, move |_, _, g| g)
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0], [3]).requires_grad();
        let y = x.relu();
        assert_eq!(y.to_vec(), vec![0.0, 0.0, 2.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let x = Tensor::from_slice(&[0.0], [1]).requires_grad();
        let y = x.sigmoid();
        assert_close(&y.to_vec(), &[0.5], 1e-6);
        y.sum_all().backward();
        assert_close(&x.grad().unwrap(), &[0.25], 1e-6);
    }

    #[test]
    fn tanh_grad() {
        let x = Tensor::from_slice(&[0.5], [1]).requires_grad();
        x.tanh().sum_all().backward();
        let expect = 1.0 - 0.5f32.tanh().powi(2);
        assert_close(&x.grad().unwrap(), &[expect], 1e-6);
    }

    #[test]
    fn exp_ln_inverse() {
        let x = Tensor::from_slice(&[0.3, 1.7], [2]);
        let y = x.exp().ln();
        assert_close(&y.to_vec(), &x.to_vec(), 1e-5);
    }

    #[test]
    fn sqrt_square() {
        let x = Tensor::from_slice(&[4.0, 9.0], [2]);
        assert_close(&x.sqrt().to_vec(), &[2.0, 3.0], 1e-6);
        assert_close(&x.square().to_vec(), &[16.0, 81.0], 1e-6);
    }

    #[test]
    fn gelu_known_values() {
        let x = Tensor::from_slice(&[0.0, 1.0, -1.0], [3]);
        let y = x.gelu().to_vec();
        assert!((y[0]).abs() < 1e-6);
        assert!((y[1] - 0.8412).abs() < 1e-3);
        assert!((y[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn abs_grad_signs() {
        let x = Tensor::from_slice(&[-2.0, 0.0, 2.0], [3]).requires_grad();
        x.abs().sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn recip_values() {
        let x = Tensor::from_slice(&[2.0, 4.0], [2]);
        assert_close(&x.recip().to_vec(), &[0.5, 0.25], 1e-6);
    }

    #[test]
    fn chained_ops_compose_gradients() {
        // y = exp(2x); dy/dx = 2 exp(2x)
        let x = Tensor::from_slice(&[0.5], [1]).requires_grad();
        x.mul_scalar(2.0).exp().sum_all().backward();
        let expect = 2.0 * (1.0f32).exp();
        assert!((x.grad().unwrap()[0] - expect).abs() < 1e-4);
    }
}
