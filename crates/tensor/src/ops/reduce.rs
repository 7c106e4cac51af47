//! Reductions: sums, means, and max along an axis or over everything.

use crate::alloc;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Splits a shape at `axis` into `(outer, axis_len, inner)` so that the
/// element at `(o, a, i)` lives at offset `(o * axis_len + a) * inner + i`.
fn axis_split(shape: &Shape, axis: usize) -> (usize, usize, usize) {
    let dims = shape.dims();
    let outer: usize = dims[..axis].iter().product();
    let axis_len = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    (outer, axis_len, inner)
}

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let total = crate::kernels::sum(&self.data());
        let src = self.clone();
        Tensor::make_op(Shape::scalar(), vec![total], vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap()[0];
            let gx = alloc::filled(src.numel(), g);
            src.accumulate_grad_owned(gx);
        })
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.numel().max(1) as f32;
        self.sum_all().mul_scalar(1.0 / n)
    }

    /// Sum along `axis` (negative axes allowed). When `keepdim` is true the
    /// reduced axis stays with size 1, which makes the result broadcastable
    /// against the input.
    pub fn sum_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let axis = self.shape().resolve_axis(axis);
        let (outer, axis_len, inner) = axis_split(self.shape(), axis);
        let mut out = alloc::zeroed(outer * inner);
        {
            let data = self.data();
            for o in 0..outer {
                for a in 0..axis_len {
                    let base = (o * axis_len + a) * inner;
                    let out_base = o * inner;
                    for i in 0..inner {
                        out[out_base + i] += data[base + i];
                    }
                }
            }
        }
        let out_shape = if keepdim {
            self.shape().keepdim_axis(axis)
        } else {
            self.shape().squeeze_axis(axis)
        };
        let src = self.clone();
        Tensor::make_op(out_shape, out, vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let mut gx = alloc::zeroed(src.numel());
            for o in 0..outer {
                for a in 0..axis_len {
                    let base = (o * axis_len + a) * inner;
                    let g_base = o * inner;
                    gx[base..base + inner].copy_from_slice(&g[g_base..g_base + inner]);
                }
            }
            src.accumulate_grad_owned(gx);
        })
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let resolved = self.shape().resolve_axis(axis);
        let n = self.shape().dim(resolved).max(1) as f32;
        self.sum_axis(axis, keepdim).mul_scalar(1.0 / n)
    }

    /// Max along `axis`; the gradient routes to the (first) argmax.
    pub fn max_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let axis = self.shape().resolve_axis(axis);
        let (outer, axis_len, inner) = axis_split(self.shape(), axis);
        assert!(axis_len > 0, "max over an empty axis");
        let mut out = alloc::filled(outer * inner, f32::NEG_INFINITY);
        let mut argmax = vec![0usize; outer * inner];
        {
            let data = self.data();
            for o in 0..outer {
                for a in 0..axis_len {
                    let base = (o * axis_len + a) * inner;
                    let out_base = o * inner;
                    for i in 0..inner {
                        let v = data[base + i];
                        if v > out[out_base + i] {
                            out[out_base + i] = v;
                            argmax[out_base + i] = a;
                        }
                    }
                }
            }
        }
        let out_shape = if keepdim {
            self.shape().keepdim_axis(axis)
        } else {
            self.shape().squeeze_axis(axis)
        };
        let src = self.clone();
        Tensor::make_op(out_shape, out, vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let mut gx = alloc::zeroed(src.numel());
            for o in 0..outer {
                for i in 0..inner {
                    let oi = o * inner + i;
                    let a = argmax[oi];
                    gx[(o * axis_len + a) * inner + i] = g[oi];
                }
            }
            src.accumulate_grad_owned(gx);
        })
    }

    /// Indices of the maximum along `axis` (no gradient; plain data).
    pub fn argmax_axis(&self, axis: isize) -> Vec<usize> {
        let axis = self.shape().resolve_axis(axis);
        let (outer, axis_len, inner) = axis_split(self.shape(), axis);
        let data = self.data();
        let mut best = vec![f32::NEG_INFINITY; outer * inner];
        let mut arg = vec![0usize; outer * inner];
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                for i in 0..inner {
                    let v = data[base + i];
                    let oi = o * inner + i;
                    if v > best[oi] {
                        best[oi] = v;
                        arg[oi] = a;
                    }
                }
            }
        }
        arg
    }

    /// L2 norm over the last axis, kept as size-1 dim: `[.., D] -> [.., 1]`.
    pub fn l2_norm_lastdim(&self, eps: f32) -> Tensor {
        self.square()
            .sum_axis(-1, true)
            .add_scalar(eps)
            .sqrt()
    }

    /// Rows normalized to unit L2 norm over the last axis.
    pub fn l2_normalize_lastdim(&self, eps: f32) -> Tensor {
        self.div(&self.l2_norm_lastdim(eps))
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    #[test]
    fn sum_all_and_backward() {
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0], [3]).requires_grad();
        let s = x.sum_all();
        assert_eq!(s.item(), 6.0);
        s.backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 3]);
    }

    #[test]
    fn mean_all_scales() {
        let x = Tensor::from_slice(&[2.0, 4.0], [2]).requires_grad();
        let m = x.mean_all();
        assert_eq!(m.item(), 3.0);
        m.backward();
        assert_eq!(x.grad().unwrap(), vec![0.5, 0.5]);
    }

    #[test]
    fn sum_axis_middle() {
        let x = Tensor::from_vec((1..=8).map(|v| v as f32).collect(), [2, 2, 2]);
        let s = x.sum_axis(1, false);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![4.0, 6.0, 12.0, 14.0]);
    }

    #[test]
    fn sum_axis_keepdim_broadcastable() {
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [2, 2]);
        let s = x.sum_axis(-1, true);
        assert_eq!(s.dims(), &[2, 1]);
        let normalized = x.div(&s);
        assert_eq!(normalized.to_vec(), vec![1.0 / 3.0, 2.0 / 3.0, 3.0 / 7.0, 4.0 / 7.0]);
    }

    #[test]
    fn sum_axis_backward_broadcasts_grad() {
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        x.sum_axis(0, false).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn max_axis_values_and_grad_routing() {
        let x = Tensor::from_slice(&[1.0, 5.0, 3.0, 2.0, 0.0, 4.0], [2, 3]).requires_grad();
        let m = x.max_axis(-1, false);
        assert_eq!(m.to_vec(), vec![5.0, 4.0]);
        m.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn argmax_axis_indices() {
        let x = Tensor::from_slice(&[1.0, 5.0, 3.0, 2.0, 0.0, 4.0], [2, 3]);
        assert_eq!(x.argmax_axis(-1), vec![1, 2]);
        assert_eq!(x.argmax_axis(0), vec![1, 0, 1]);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let x = Tensor::from_slice(&[3.0, 4.0, 0.0, 5.0], [2, 2]);
        let n = x.l2_normalize_lastdim(1e-12);
        let v = n.to_vec();
        assert!((v[0] - 0.6).abs() < 1e-5);
        assert!((v[1] - 0.8).abs() < 1e-5);
        assert!((v[2] - 0.0).abs() < 1e-5);
        assert!((v[3] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mean_axis_values() {
        let x = Tensor::from_slice(&[1.0, 3.0, 5.0, 7.0], [2, 2]);
        assert_eq!(x.mean_axis(-1, false).to_vec(), vec![2.0, 6.0]);
    }
}
