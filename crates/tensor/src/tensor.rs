//! The [`Tensor`] type: dense, contiguous, row-major f32 storage with an
//! optional autograd tape.
//!
//! A tensor is a cheaply clonable handle (`Arc`) to a graph node. Leaf
//! nodes hold parameters or inputs; interior nodes additionally record
//! their parents and a backward closure. Graphs are acyclic by construction
//! (operations only ever create new outputs), so plain `Arc` cannot leak.
//!
//! Tensors are `Send + Sync`: buffers sit behind `RwLock`s, so read-only
//! forward passes over shared parameters (e.g. parallel evaluation in
//! `mbssl-core`) can run from many threads at once. Each training step
//! still builds and consumes one tape on one thread — the locks make
//! concurrent *reads* safe and cheap, not concurrent graph mutation —
//! while the heavy kernels underneath ([`crate::kernels`]) parallelize
//! across the worker pool ([`crate::pool`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::alloc;
use crate::autograd;
use crate::shape::Shape;

/// Process-wide id source: ids must be unique across threads because
/// `autograd::topo_order` keys visited nodes by id.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Backward closure: receives the output node, reads its gradient, and
/// accumulates into the parents it captured. `Send + Sync` so tensors
/// (and thus whole recorded graphs) can cross thread boundaries.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) + Send + Sync>;

pub(crate) struct Inner {
    id: u64,
    shape: Shape,
    data: RwLock<Vec<f32>>,
    grad: RwLock<Option<Vec<f32>>>,
    requires_grad: bool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Return this node's storage to the recycling allocator. A training
        // step drops its whole tape here once the loss is consumed, so this
        // is the path by which op outputs and gradient buffers come back
        // for the next step.
        if let Ok(data) = self.data.get_mut() {
            alloc::recycle(std::mem::take(data));
        }
        if let Ok(grad) = self.grad.get_mut() {
            if let Some(g) = grad.take() {
                alloc::recycle(g);
            }
        }
    }
}

/// A dense f32 tensor participating in a dynamic autograd graph.
#[derive(Clone)]
pub struct Tensor {
    inner: Arc<Inner>,
}

impl Tensor {
    // ---------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------

    /// Creates a leaf tensor from raw data.
    ///
    /// # Panics
    /// Panics when `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                shape,
                data: RwLock::new(data),
                grad: RwLock::new(None),
                requires_grad: false,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Creates a leaf tensor from a slice.
    pub fn from_slice(data: &[f32], shape: impl Into<Shape>) -> Tensor {
        Tensor::from_vec(alloc::copy_of(data), shape)
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::from_vec(alloc::zeroed(n), shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::from_vec(alloc::filled(n, value), shape)
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    /// Marks this leaf as a trainable parameter. Must be called before the
    /// tensor is used in any operation.
    ///
    /// # Panics
    /// Panics when called on a non-leaf (derived) tensor.
    pub fn requires_grad(self) -> Tensor {
        assert!(
            self.inner.parents.is_empty() && self.inner.backward.is_none(),
            "requires_grad() must be applied to leaf tensors"
        );
        // The Arc is fresh from a constructor in the intended usage, but be
        // defensive: rebuild if shared.
        match Arc::try_unwrap(self.inner) {
            Ok(mut inner) => {
                inner.requires_grad = true;
                Tensor {
                    inner: Arc::new(inner),
                }
            }
            Err(arc) => Tensor {
                inner: Arc::new(Inner {
                    id: arc.id,
                    shape: arc.shape.clone(),
                    data: RwLock::new(alloc::copy_of(&arc.data.read().unwrap())),
                    grad: RwLock::new(None),
                    requires_grad: true,
                    parents: Vec::new(),
                    backward: None,
                }),
            },
        }
    }

    /// Internal constructor for op outputs: records parents and the
    /// backward closure only when grad mode is on and some parent is
    /// tracked.
    pub(crate) fn make_op(
        shape: Shape,
        data: Vec<f32>,
        parents: Vec<Tensor>,
        backward: impl Fn(&Tensor) + Send + Sync + 'static,
    ) -> Tensor {
        assert_eq!(data.len(), shape.numel(), "op produced wrong element count");
        let track = autograd::is_grad_enabled() && parents.iter().any(|p| p.is_tracked());
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                shape,
                data: RwLock::new(data),
                grad: RwLock::new(None),
                requires_grad: track,
                parents: if track { parents } else { Vec::new() },
                backward: if track { Some(Box::new(backward)) } else { None },
            }),
        }
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Unique node id (stable for the life of the tensor).
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Dimension sizes, shorthand for `shape().dims()`.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.inner.shape.numel()
    }

    /// Whether this node participates in gradient computation (either a
    /// parameter leaf or derived from one under grad mode).
    #[inline]
    pub fn is_tracked(&self) -> bool {
        self.inner.requires_grad
    }

    /// Whether this is a leaf node (no recorded parents).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.inner.backward.is_none()
    }

    // ---------------------------------------------------------------
    // Data access
    // ---------------------------------------------------------------

    /// Immutable view of the underlying buffer. Concurrent readers (e.g.
    /// parallel evaluation threads sharing parameters) do not block each
    /// other.
    pub fn data(&self) -> RwLockReadGuard<'_, Vec<f32>> {
        self.inner.data.read().unwrap()
    }

    /// Mutable view of the underlying buffer. Intended for optimizers and
    /// initialization; mutating an interior node invalidates its tape.
    pub fn data_mut(&self) -> RwLockWriteGuard<'_, Vec<f32>> {
        self.inner.data.write().unwrap()
    }

    /// Copies the buffer out (into recycled storage when available).
    pub fn to_vec(&self) -> Vec<f32> {
        alloc::copy_of(&self.inner.data.read().unwrap())
    }

    /// Consumes this handle and returns the owned storage when the tensor
    /// is untracked and uniquely owned — the in-place fast path for
    /// elementwise chains under `no_grad`. Returns the handle unchanged
    /// when it is tracked or shared (the caller falls back to the
    /// allocating path). Sound because the only handle to the buffer is
    /// the one being consumed: no other owner can observe the mutation.
    pub(crate) fn try_take_data(self) -> Result<(Shape, Vec<f32>), Tensor> {
        if self.inner.requires_grad {
            return Err(self);
        }
        match Arc::try_unwrap(self.inner) {
            Ok(mut inner) => {
                let data = std::mem::take(inner.data.get_mut().unwrap());
                Ok((inner.shape.clone(), data))
            }
            Err(arc) => Err(Tensor { inner: arc }),
        }
    }

    /// Extracts the single element of a scalar (or one-element) tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let data = self.inner.data.read().unwrap();
        assert_eq!(data.len(), 1, "item() requires a single-element tensor");
        data[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.inner.shape.ravel(index);
        self.inner.data.read().unwrap()[off]
    }

    // ---------------------------------------------------------------
    // Gradients
    // ---------------------------------------------------------------

    /// Clone of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.read().unwrap().clone()
    }

    /// Borrow of the accumulated gradient.
    pub(crate) fn grad_ref(&self) -> RwLockReadGuard<'_, Option<Vec<f32>>> {
        self.inner.grad.read().unwrap()
    }

    /// Clears the gradient buffer (recycling its storage).
    pub fn zero_grad(&self) {
        if let Some(g) = self.inner.grad.write().unwrap().take() {
            alloc::recycle(g);
        }
    }

    /// Adds `delta` into this tensor's gradient buffer (allocating it on
    /// first use). No-op for untracked tensors.
    pub fn accumulate_grad(&self, delta: &[f32]) {
        if !self.inner.requires_grad {
            return;
        }
        debug_assert_eq!(delta.len(), self.numel(), "gradient shape mismatch");
        let mut grad = self.inner.grad.write().unwrap();
        match grad.as_mut() {
            Some(g) => crate::kernels::axpy(1.0, delta, g),
            None => *grad = Some(alloc::copy_of(delta)),
        }
    }

    /// Like [`Tensor::accumulate_grad`] but takes ownership of `delta`:
    /// on first accumulation the buffer is adopted outright (no copy),
    /// otherwise it is added in and recycled. Untracked tensors recycle the
    /// buffer immediately.
    pub fn accumulate_grad_owned(&self, delta: Vec<f32>) {
        if !self.inner.requires_grad {
            alloc::recycle(delta);
            return;
        }
        debug_assert_eq!(delta.len(), self.numel(), "gradient shape mismatch");
        let mut grad = self.inner.grad.write().unwrap();
        match grad.as_mut() {
            Some(g) => {
                crate::kernels::axpy(1.0, &delta, g);
                drop(grad);
                alloc::recycle(delta);
            }
            None => *grad = Some(delta),
        }
    }

    /// Multiplies the accumulated gradient in place. No-op when no gradient
    /// is present. Used by gradient clipping so it need not rebuild the
    /// buffer.
    pub fn scale_grad(&self, scale: f32) {
        if let Some(g) = self.inner.grad.write().unwrap().as_mut() {
            for v in g.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// Seeds this tensor's gradient with `seed` (used by `backward`).
    pub(crate) fn seed_grad(&self, seed: Vec<f32>) {
        if let Some(old) = self.inner.grad.write().unwrap().replace(seed) {
            alloc::recycle(old);
        }
    }

    /// Runs reverse-mode differentiation from this (scalar) tensor,
    /// accumulating gradients into every tracked ancestor.
    ///
    /// # Panics
    /// Panics when the tensor is not a scalar.
    pub fn backward(&self) {
        assert_eq!(
            self.numel(),
            1,
            "backward() requires a scalar loss; got shape {}",
            self.shape()
        );
        autograd::backward(self, vec![1.0]);
    }

    pub(crate) fn parents(&self) -> &[Tensor] {
        &self.inner.parents
    }

    pub(crate) fn run_backward(&self) {
        if let Some(f) = &self.inner.backward {
            f(self);
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.data.read().unwrap();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, grad={}, data≈{:?}{})",
            self.inner.id,
            self.inner.shape,
            self.inner.requires_grad,
            preview,
            if data.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec(vec![1.0], [2, 2]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([3]).to_vec(), vec![0.0; 3]);
        assert_eq!(Tensor::ones([2]).to_vec(), vec![1.0; 2]);
        assert_eq!(Tensor::full([2], 7.0).to_vec(), vec![7.0; 2]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "single-element")]
    fn item_rejects_vectors() {
        Tensor::ones([2]).item();
    }

    #[test]
    fn requires_grad_marks_leaf() {
        let t = Tensor::zeros([2]).requires_grad();
        assert!(t.is_tracked());
        assert!(t.is_leaf());
    }

    #[test]
    fn accumulate_grad_adds() {
        let t = Tensor::zeros([2]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0]);
        t.accumulate_grad(&[0.5, 0.5]);
        assert_eq!(t.grad().unwrap(), vec![1.5, 2.5]);
        t.zero_grad();
        assert!(t.grad().is_none());
    }

    #[test]
    fn accumulate_grad_ignored_for_untracked() {
        let t = Tensor::zeros([2]);
        t.accumulate_grad(&[1.0, 1.0]);
        assert!(t.grad().is_none());
    }

    #[test]
    fn ids_are_unique() {
        let a = Tensor::zeros([1]);
        let b = Tensor::zeros([1]);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn tensors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }

    #[test]
    fn ids_stay_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| (0..256).map(|_| Tensor::zeros([1]).id()).collect::<Vec<u64>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 256);
    }
}
