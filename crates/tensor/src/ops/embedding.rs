//! Embedding lookup: gather rows of a weight matrix by integer id, with
//! scatter-add backward into the weight gradient.

use crate::alloc;
use crate::shape::Shape;
use crate::sharded;
use crate::tensor::Tensor;

impl Tensor {
    /// Looks up `ids` in this `[V, D]` weight matrix, producing `[N, D]`
    /// where `N = ids.len()`.
    ///
    /// Identical math to `index_select0` but kept as a named op because it
    /// is the entry point of every model in the workspace and the hot path
    /// of the sparse backward.
    pub fn embedding(&self, ids: &[usize]) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "embedding weight must be [V, D]");
        let v = self.shape().dim(0);
        let d = self.shape().dim(1);
        let mut out = alloc::zeroed(ids.len() * d);
        {
            let w = self.data();
            for (k, &id) in ids.iter().enumerate() {
                assert!(id < v, "embedding id {id} out of range (vocab {v})");
                out[k * d..(k + 1) * d].copy_from_slice(&w[id * d..(id + 1) * d]);
            }
        }
        let weight = self.clone();
        let ids_owned: Vec<usize> = ids.to_vec();
        Tensor::make_op(
            Shape::new([ids_owned.len(), d]),
            out,
            vec![self.clone()],
            move |out_t| {
                let g_ref = out_t.grad_ref();
                let g = g_ref.as_ref().unwrap();
                let mut gw = alloc::zeroed(weight.numel());
                // Sharded across the worker pool for large batches;
                // bit-identical to the sequential scatter for any pool size.
                sharded::scatter_add(&mut gw, d, &ids_owned, g);
                weight.accumulate_grad_owned(gw);
            },
        )
    }

    /// Embedding lookup reshaped to `[B, L, D]` for a batch of padded
    /// sequences given row-major `ids` of length `B*L`.
    pub fn embedding_seq(&self, ids: &[usize], batch: usize, len: usize) -> Tensor {
        assert_eq!(ids.len(), batch * len, "ids must be batch*len");
        let d = self.shape().dim(1);
        self.embedding(ids).reshape([batch, len, d])
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    #[test]
    fn embedding_gathers_rows() {
        let w = Tensor::from_vec((0..8).map(|v| v as f32).collect(), [4, 2]);
        let e = w.embedding(&[3, 1]);
        assert_eq!(e.dims(), &[2, 2]);
        assert_eq!(e.to_vec(), vec![6.0, 7.0, 2.0, 3.0]);
    }

    #[test]
    fn embedding_backward_scatter_adds() {
        let w = Tensor::zeros([4, 2]).requires_grad();
        // Row 1 referenced twice: its gradient doubles.
        w.embedding(&[1, 1, 3]).sum_all().backward();
        assert_eq!(
            w.grad().unwrap(),
            vec![0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn embedding_seq_shape() {
        let w = Tensor::zeros([10, 3]);
        let e = w.embedding_seq(&[0, 1, 2, 3, 4, 5], 2, 3);
        assert_eq!(e.dims(), &[2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_oob_panics() {
        Tensor::zeros([2, 2]).embedding(&[5]);
    }
}
