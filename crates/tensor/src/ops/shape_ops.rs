//! Shape-manipulating ops: reshape, concat, narrow, stack, index-select.
//!
//! All of these produce contiguous copies; the engine has no view
//! machinery. Copies are cheap relative to the matmuls around them at the
//! model sizes this engine targets.

use crate::alloc;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Splits `shape` at `axis` into `(outer, axis_len, inner)`.
fn axis_split(shape: &Shape, axis: usize) -> (usize, usize, usize) {
    let dims = shape.dims();
    let outer: usize = dims[..axis].iter().product();
    let axis_len = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    (outer, axis_len, inner)
}

impl Tensor {
    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert!(
            self.shape().reshape_compatible(&shape),
            "cannot reshape {} into {shape}",
            self.shape()
        );
        let src = self.clone();
        Tensor::make_op(shape, self.to_vec(), vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            src.accumulate_grad(g);
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        self.reshape([self.numel()])
    }

    /// Adds a size-1 axis at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        let mut dims = self.shape().dims().to_vec();
        assert!(axis <= dims.len(), "unsqueeze axis out of range");
        dims.insert(axis, 1);
        self.reshape(dims)
    }

    /// Slice of length `len` starting at `start` along `axis`.
    pub fn narrow(&self, axis: isize, start: usize, len: usize) -> Tensor {
        let axis = self.shape().resolve_axis(axis);
        let (outer, axis_len, inner) = axis_split(self.shape(), axis);
        assert!(
            start + len <= axis_len,
            "narrow range {start}..{} exceeds axis size {axis_len}",
            start + len
        );
        let mut out = alloc::zeroed(outer * len * inner);
        {
            let data = self.data();
            for o in 0..outer {
                let src_base = (o * axis_len + start) * inner;
                let dst_base = o * len * inner;
                out[dst_base..dst_base + len * inner]
                    .copy_from_slice(&data[src_base..src_base + len * inner]);
            }
        }
        let mut dims = self.shape().dims().to_vec();
        dims[axis] = len;
        let src = self.clone();
        Tensor::make_op(Shape::new(dims), out, vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let mut gx = alloc::zeroed(src.numel());
            for o in 0..outer {
                let dst_base = (o * axis_len + start) * inner;
                let src_base = o * len * inner;
                gx[dst_base..dst_base + len * inner]
                    .copy_from_slice(&g[src_base..src_base + len * inner]);
            }
            src.accumulate_grad_owned(gx);
        })
    }

    /// Selects rows (`axis` 0 blocks) by index, with repetition allowed.
    /// Gradient scatter-adds back into the selected rows.
    pub fn index_select0(&self, indices: &[usize]) -> Tensor {
        assert!(self.shape().rank() >= 1, "index_select0 requires rank >= 1");
        let rows = self.shape().dim(0);
        let inner = self.numel() / rows.max(1);
        let mut out = alloc::zeroed(indices.len() * inner);
        {
            let data = self.data();
            for (k, &idx) in indices.iter().enumerate() {
                assert!(idx < rows, "index {idx} out of bounds for {rows} rows");
                out[k * inner..(k + 1) * inner]
                    .copy_from_slice(&data[idx * inner..(idx + 1) * inner]);
            }
        }
        let mut dims = self.shape().dims().to_vec();
        dims[0] = indices.len();
        let src = self.clone();
        let idx_owned: Vec<usize> = indices.to_vec();
        Tensor::make_op(Shape::new(dims), out, vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let mut gx = alloc::zeroed(src.numel());
            for (k, &idx) in idx_owned.iter().enumerate() {
                let dst = &mut gx[idx * inner..(idx + 1) * inner];
                let srcg = &g[k * inner..(k + 1) * inner];
                for (d, &s) in dst.iter_mut().zip(srcg.iter()) {
                    *d += s;
                }
            }
            src.accumulate_grad_owned(gx);
        })
    }

    /// Concatenates tensors along `axis`. All other dims must match.
    pub fn concat(tensors: &[&Tensor], axis: isize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let axis = tensors[0].shape().resolve_axis(axis);
        let rank = tensors[0].shape().rank();
        for t in tensors {
            assert_eq!(t.shape().rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != axis {
                    assert_eq!(
                        t.shape().dim(d),
                        tensors[0].shape().dim(d),
                        "concat non-axis dim mismatch"
                    );
                }
            }
        }
        let (outer, _, inner) = axis_split(tensors[0].shape(), axis);
        let axis_lens: Vec<usize> = tensors.iter().map(|t| t.shape().dim(axis)).collect();
        let total_axis: usize = axis_lens.iter().sum();
        let mut out = alloc::zeroed(outer * total_axis * inner);
        {
            let mut offset = 0usize;
            for (t, &alen) in tensors.iter().zip(axis_lens.iter()) {
                let data = t.data();
                for o in 0..outer {
                    let src_base = o * alen * inner;
                    let dst_base = (o * total_axis + offset) * inner;
                    out[dst_base..dst_base + alen * inner]
                        .copy_from_slice(&data[src_base..src_base + alen * inner]);
                }
                offset += alen;
            }
        }
        let mut dims = tensors[0].shape().dims().to_vec();
        dims[axis] = total_axis;
        let parents: Vec<Tensor> = tensors.iter().map(|&t| t.clone()).collect();
        let parents_c = parents.clone();
        Tensor::make_op(Shape::new(dims), out, parents, move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let mut offset = 0usize;
            for (t, &alen) in parents_c.iter().zip(axis_lens.iter()) {
                if t.is_tracked() {
                    let mut gx = alloc::zeroed(t.numel());
                    for o in 0..outer {
                        let src_base = (o * total_axis + offset) * inner;
                        let dst_base = o * alen * inner;
                        gx[dst_base..dst_base + alen * inner]
                            .copy_from_slice(&g[src_base..src_base + alen * inner]);
                    }
                    t.accumulate_grad_owned(gx);
                }
                offset += alen;
            }
        })
    }

    /// Stacks equal-shape tensors along a new leading axis.
    pub fn stack(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "stack of zero tensors");
        let unsqueezed: Vec<Tensor> = tensors.iter().map(|t| t.unsqueeze(0)).collect();
        let refs: Vec<&Tensor> = unsqueezed.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// Splits into equal chunks along `axis`; inverse of concat.
    pub fn chunk(&self, chunks: usize, axis: isize) -> Vec<Tensor> {
        let resolved = self.shape().resolve_axis(axis);
        let alen = self.shape().dim(resolved);
        assert!(chunks > 0 && alen.is_multiple_of(chunks), "axis {alen} not divisible into {chunks}");
        let step = alen / chunks;
        (0..chunks)
            .map(|i| self.narrow(axis, i * step, step))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    #[test]
    fn reshape_preserves_data() {
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), [2, 3]);
        let y = x.reshape([3, 2]);
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn reshape_backward_passthrough() {
        let x = Tensor::ones([2, 3]).requires_grad();
        x.reshape([6]).mul_scalar(2.0).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![2.0; 6]);
    }

    #[test]
    fn unsqueeze_inserts_a_unit_axis() {
        let x = Tensor::ones([2, 3]);
        assert_eq!(x.unsqueeze(1).dims(), &[2, 1, 3]);
        assert_eq!(x.unsqueeze(2).dims(), &[2, 3, 1]);
    }

    #[test]
    fn narrow_middle_axis() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), [2, 4, 3]);
        let y = x.narrow(1, 1, 2);
        assert_eq!(y.dims(), &[2, 2, 3]);
        assert_eq!(y.at(&[0, 0, 0]), x.at(&[0, 1, 0]));
        assert_eq!(y.at(&[1, 1, 2]), x.at(&[1, 2, 2]));
    }

    #[test]
    fn narrow_backward_scatter() {
        let x = Tensor::ones([4]).requires_grad();
        x.narrow(0, 1, 2).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_slice(&[1.0, 2.0], [1, 2]);
        let b = Tensor::from_slice(&[3.0, 4.0], [1, 2]);
        assert_eq!(Tensor::concat(&[&a, &b], 0).to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Tensor::concat(&[&a, &b], 1).to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Tensor::concat(&[&a, &b], 1).dims(), &[1, 4]);
    }

    #[test]
    fn concat_backward_splits() {
        let a = Tensor::ones([2]).requires_grad();
        let b = Tensor::ones([3]).requires_grad();
        let y = Tensor::concat(&[&a, &b], 0);
        y.mul_scalar(3.0).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![3.0; 2]);
        assert_eq!(b.grad().unwrap(), vec![3.0; 3]);
    }

    #[test]
    fn index_select0_gathers_rows() {
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), [3, 2]);
        let y = x.index_select0(&[2, 0, 2]);
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.to_vec(), vec![4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn index_select0_backward_accumulates_repeats() {
        let x = Tensor::ones([3, 2]).requires_grad();
        x.index_select0(&[2, 0, 2]).sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn stack_creates_new_axis() {
        let a = Tensor::from_slice(&[1.0, 2.0], [2]);
        let b = Tensor::from_slice(&[3.0, 4.0], [2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn chunk_then_concat_roundtrip() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [2, 6]);
        let parts = x.chunk(3, 1);
        assert_eq!(parts.len(), 3);
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(Tensor::concat(&refs, 1).to_vec(), x.to_vec());
    }
}
