//! Fused transformer-block ops with hand-written backwards.
//!
//! At MBSSL scale the encoder's cost is dominated by graph overhead:
//! unfused attention materializes the `[B*H, L, L]` scores, mask, softmax,
//! dropout and context matmul as five autograd nodes with five intermediate
//! buffers, and the FFN / residual sublayers do the same on a smaller scale.
//! Each op here collapses such a chain into a single node that (a) saves for
//! backward only what the gradient genuinely needs and (b) reproduces the
//! unfused composition **bit-for-bit**: identical per-element accumulation
//! order in the forward pass, identical RNG draw order for dropout, and
//! gradients exactly equal to the unfused autograd at any worker-pool size.
//! That contract is pinned by `tests/fused_parity.rs`.
//!
//! The nn modules call these ops directly; `tests/fused_parity.rs` builds
//! the unfused composition from primitive ops as their oracle. The forward
//! of one sdpa slice is [`kernels::sdpa_slice`], which the graph-free
//! inference engine runs too, so the engine matches these ops bit for bit
//! by construction.

use mbssl_telemetry as telemetry;

use crate::alloc;
use crate::autograd;
use crate::kernels;
use crate::pool;
use crate::shape::{broadcast_strides, Shape};
use crate::tensor::Tensor;

/// Minimum total score elements (`B*H · Lq · Lk`) before sdpa spreads its
/// independent `[B*H]` slices across the worker pool. Purely a scheduling
/// knob: per-slice math is unchanged, so results are identical either way.
const PAR_SDPA_THRESHOLD: usize = 1 << 14;

/// Raw-pointer wrapper so disjoint slice windows of one output buffer can be
/// written from pool workers (same pattern as `kernels.rs`).
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// View of `len` elements starting at `offset`.
    ///
    /// Safety: callers must hand out non-overlapping windows within the
    /// allocation and keep it alive for the borrow. (Going through a method
    /// also keeps closures capturing the `Sync` wrapper rather than the raw
    /// field.)
    #[allow(clippy::mut_from_ref)]
    unsafe fn window(&self, offset: usize, len: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

impl Tensor {
    /// Scaled dot-product attention as one autograd node:
    /// `softmax(mask(q·kᵀ · scale)) [⊙ dropout] · v`, per `[B*H]` slice.
    ///
    /// `self`/q is `[B*H, Lq, Dh]`; `k`/`v` are `[B*H, Lk, Dh]`. `mask`
    /// (broadcastable to `[B*H, Lq, Lk]`, nonzero = masked, constant — no
    /// gradient) fills scores with `-1e9` before the softmax, exactly like
    /// `masked_fill`. `dropout_mask` is a precomputed keep/scale mask of
    /// `B*H·Lq·Lk` elements (see `ops::dropout_mask`) applied to the
    /// probabilities; the caller draws it so the RNG stream matches the
    /// unfused `Mode::dropout` call. Each slice's forward is
    /// [`kernels::sdpa_slice`]. Only the softmax output (plus the two
    /// masks) is saved for backward; dq/dk/dv come out of one pass per slice
    /// through the recycling allocator, with no graph nodes in between.
    pub fn sdpa(
        &self,
        k: &Tensor,
        v: &Tensor,
        mask: Option<&Tensor>,
        scale: f32,
        dropout_mask: Option<Vec<f32>>,
    ) -> Tensor {
        let q_dims = self.dims();
        assert_eq!(q_dims.len(), 3, "sdpa expects [B*H, Lq, Dh] inputs");
        let (bh, lq, dh) = (q_dims[0], q_dims[1], q_dims[2]);
        let lk = k.dims()[1];
        assert_eq!(k.dims(), &[bh, lk, dh], "k must be [B*H, Lk, Dh]");
        assert_eq!(v.dims(), &[bh, lk, dh], "v must be [B*H, Lk, Dh]");
        let score_shape = Shape::new([bh, lq, lk]);
        if let Some(dm) = dropout_mask.as_ref() {
            assert_eq!(dm.len(), score_shape.numel(), "dropout mask length mismatch");
        }
        // Mask strides viewed as broadcast to the score shape (same
        // compatibility check and element mapping as `masked_fill`).
        let mask_info = mask.map(|m| {
            let bshape = score_shape.broadcast(m.shape()).unwrap_or_else(|| {
                panic!("mask {} incompatible with scores {}", m.shape(), score_shape)
            });
            assert_eq!(bshape, score_shape, "mask must broadcast to the score shape");
            let ms = broadcast_strides(m.shape(), &score_shape);
            (m.clone(), [ms[0], ms[1], ms[2]])
        });

        let mut sp = telemetry::span("kernel.sdpa");
        sp.add_bytes(4 * (3 * bh * lk * dh + bh * lq * lk) as u64);
        let tracked = autograd::is_grad_enabled()
            && (self.is_tracked() || k.is_tracked() || v.is_tracked());
        let mut out = alloc::zeroed(bh * lq * dh);
        // Softmax probabilities: kept whole when backward will need them,
        // otherwise a recycled per-slice scratch.
        let mut probs = if tracked {
            alloc::zeroed(bh * lq * lk)
        } else {
            Vec::new()
        };
        {
            let q_data = self.data();
            let k_data = k.data();
            let v_data = v.data();
            let mask_guard = mask_info.as_ref().map(|(m, ms)| (m.data(), *ms));
            let mask_sl: Option<(&[f32], [usize; 3])> =
                mask_guard.as_ref().map(|(g, ms)| (&g[..], *ms));
            let dmask = dropout_mask.as_deref();
            let out_ptr = SendPtr(out.as_mut_ptr());
            let probs_ptr = SendPtr(probs.as_mut_ptr());
            let slice_fwd = |s: usize| {
                let mut scratch = if tracked { Vec::new() } else { alloc::zeroed(lq * lk) };
                // Safety: windows at distinct `s` are disjoint.
                let probs_s: &mut [f32] = if tracked {
                    unsafe { probs_ptr.window(s * lq * lk, lq * lk) }
                } else {
                    &mut scratch
                };
                let ctx: &mut [f32] = unsafe { out_ptr.window(s * lq * dh, lq * dh) };
                let mut kt = alloc::zeroed(lk * dh);
                let mut dropped = if dmask.is_some() { alloc::zeroed(lq * lk) } else { Vec::new() };
                let blocked = |i: usize, j: usize| {
                    mask_sl.is_some_and(|(m, ms)| m[s * ms[0] + i * ms[1] + j * ms[2]] != 0.0)
                };
                kernels::sdpa_slice(
                    &q_data[s * lq * dh..],
                    &k_data[s * lk * dh..],
                    &v_data[s * lk * dh..],
                    (lq, lk, dh),
                    scale,
                    blocked,
                    dmask.map(|dm| (&dm[s * lq * lk..], &mut dropped[..])),
                    probs_s,
                    &mut kt,
                    ctx,
                );
                alloc::recycle(kt);
                alloc::recycle(dropped);
                if !tracked {
                    alloc::recycle(scratch);
                }
            };
            if pool::threads() > 1 && bh > 1 && bh * lq * lk >= PAR_SDPA_THRESHOLD {
                pool::parallel_for(bh, |s| slice_fwd(s));
            } else {
                for s in 0..bh {
                    slice_fwd(s);
                }
            }
        }

        let q_c = self.clone();
        let k_c = k.clone();
        let v_c = v.clone();
        Tensor::make_op(
            Shape::new([bh, lq, dh]),
            out,
            vec![self.clone(), k.clone(), v.clone()],
            move |out_t| {
                let _sp = telemetry::span("kernel.sdpa_bwd");
                let g_guard = out_t.grad_ref();
                let g = g_guard.as_ref().unwrap();
                let q_tracked = q_c.is_tracked();
                let k_tracked = k_c.is_tracked();
                let v_tracked = v_c.is_tracked();
                let need_score_grad = q_tracked || k_tracked;
                let mut dq = if q_tracked { alloc::zeroed(bh * lq * dh) } else { Vec::new() };
                let mut dk = if k_tracked { alloc::zeroed(bh * lk * dh) } else { Vec::new() };
                let mut dv = if v_tracked { alloc::zeroed(bh * lk * dh) } else { Vec::new() };
                {
                    let q_data = q_c.data();
                    let k_data = k_c.data();
                    let v_data = v_c.data();
                    let mask_guard = mask_info.as_ref().map(|(m, ms)| (m.data(), *ms));
                    let mask_sl: Option<(&[f32], [usize; 3])> =
                        mask_guard.as_ref().map(|(gd, ms)| (&gd[..], *ms));
                    let dmask = dropout_mask.as_deref();
                    let probs_sl = &probs[..];
                    let g_sl = &g[..];
                    let dq_ptr = SendPtr(dq.as_mut_ptr());
                    let dk_ptr = SendPtr(dk.as_mut_ptr());
                    let dv_ptr = SendPtr(dv.as_mut_ptr());
                    let slice_bwd = |s: usize| {
                        let p_s = &probs_sl[s * lq * lk..(s + 1) * lq * lk];
                        let g_s = &g_sl[s * lq * dh..(s + 1) * lq * dh];
                        let dm_s = dmask.map(|dm| &dm[s * lq * lk..(s + 1) * lq * lk]);
                        if v_tracked {
                            // dv += adᵀ·g, ad = probs ⊙ dropout (recomputed —
                            // the product is cheaper than keeping it).
                            let dv_s: &mut [f32] =
                                unsafe { dv_ptr.window(s * lk * dh, lk * dh) };
                            if let Some(dm) = dm_s {
                                let mut ad = alloc::buffer(lq * lk);
                                ad.extend(p_s.iter().zip(dm.iter()).map(|(&p, &m)| p * m));
                                kernels::gemm_tn(&ad, g_s, dv_s, lk, lq, dh);
                                alloc::recycle(ad);
                            } else {
                                kernels::gemm_tn(p_s, g_s, dv_s, lk, lq, dh);
                            }
                        }
                        if need_score_grad {
                            // Walk the unfused chain backwards: context matmul,
                            // dropout, softmax, mask, scale — in place in `ds`.
                            let v_s = &v_data[s * lk * dh..(s + 1) * lk * dh];
                            let mut ds = alloc::zeroed(lq * lk);
                            kernels::gemm_nt(g_s, v_s, &mut ds, lq, dh, lk);
                            if let Some(dm) = dm_s {
                                for (d, &m) in ds.iter_mut().zip(dm.iter()) {
                                    *d *= m;
                                }
                            }
                            // Softmax backward with the scale folded into the
                            // write: `(p·(g−dot))·scale` is the same two
                            // multiplies, in the same order, as the separate
                            // mul_scalar backward pass.
                            for r in 0..lq {
                                let o = r * lk;
                                let mut dot = 0.0f32;
                                for i in 0..lk {
                                    dot += ds[o + i] * p_s[o + i];
                                }
                                for i in 0..lk {
                                    ds[o + i] = p_s[o + i] * (ds[o + i] - dot) * scale;
                                }
                            }
                            if let Some((m, ms)) = &mask_sl {
                                for i in 0..lq {
                                    for j in 0..lk {
                                        if m[s * ms[0] + i * ms[1] + j * ms[2]] != 0.0 {
                                            ds[i * lk + j] = 0.0;
                                        }
                                    }
                                }
                            }
                            if q_tracked {
                                let k_s = &k_data[s * lk * dh..(s + 1) * lk * dh];
                                let mut kt = alloc::zeroed(lk * dh);
                                kernels::transpose(k_s, &mut kt, lk, dh);
                                let dq_s: &mut [f32] =
                                    unsafe { dq_ptr.window(s * lq * dh, lq * dh) };
                                kernels::gemm_nt(&ds, &kt, dq_s, lq, lk, dh);
                                alloc::recycle(kt);
                            }
                            if k_tracked {
                                let q_s = &q_data[s * lq * dh..(s + 1) * lq * dh];
                                let mut dkt = alloc::zeroed(dh * lk);
                                kernels::gemm_tn(q_s, &ds, &mut dkt, dh, lq, lk);
                                let dk_s: &mut [f32] =
                                    unsafe { dk_ptr.window(s * lk * dh, lk * dh) };
                                kernels::transpose(&dkt, dk_s, dh, lk);
                                alloc::recycle(dkt);
                            }
                            alloc::recycle(ds);
                        }
                    };
                    if pool::threads() > 1 && bh > 1 && bh * lq * lk >= PAR_SDPA_THRESHOLD {
                        pool::parallel_for(bh, |s| slice_bwd(s));
                    } else {
                        for s in 0..bh {
                            slice_bwd(s);
                        }
                    }
                }
                // Each projection receives exactly one contribution from this
                // subgraph, in the unfused reverse-topo order (v, q, k).
                if v_tracked {
                    v_c.accumulate_grad_owned(dv);
                }
                if q_tracked {
                    q_c.accumulate_grad_owned(dq);
                }
                if k_tracked {
                    k_c.accumulate_grad_owned(dk);
                }
            },
        )
    }

    /// Fused `gelu(x + bias)` — the FFN's first Linear epilogue — as one node.
    ///
    /// `bias` is `[H]` and broadcasts over rows of `self` exactly like the
    /// unfused trailing-axis `add`; forward values and both gradients match
    /// `x.add(bias).gelu()` bit-for-bit. Backward computes the GELU input
    /// gradient once, row-sums it into the bias gradient (ascending rows,
    /// the unfused accumulation order), and hands the buffer itself to `x`.
    pub fn bias_gelu(&self, bias: &Tensor) -> Tensor {
        let h = bias.numel();
        assert_eq!(bias.shape().rank(), 1, "bias must be rank 1");
        assert_eq!(
            self.dims().last().copied(),
            Some(h),
            "bias length must match the trailing axis"
        );
        let n = self.numel();
        let mut sp = telemetry::span("kernel.bias_gelu");
        sp.add_bytes(4 * n as u64);
        let mut out = alloc::zeroed(n);
        {
            let x = self.data();
            let b = bias.data();
            let write = |offset: usize, chunk: &mut [f32]| {
                let mut j = offset % h;
                for (idx, o) in chunk.iter_mut().enumerate() {
                    *o = kernels::gelu(x[offset + idx] + b[j]);
                    j += 1;
                    if j == h {
                        j = 0;
                    }
                }
            };
            if kernels::map_splits(n) {
                let chunk_len = n.div_ceil((pool::threads() * 4).max(1));
                pool::parallel_chunks_mut(&mut out, chunk_len, |ci, chunk| {
                    write(ci * chunk_len, chunk)
                });
            } else {
                write(0, &mut out);
            }
        }
        let x_c = self.clone();
        let b_c = bias.clone();
        Tensor::make_op(
            self.shape().clone(),
            out,
            vec![self.clone(), bias.clone()],
            move |out_t| {
                let g_guard = out_t.grad_ref();
                let g = g_guard.as_ref().unwrap();
                let y = out_t.data();
                let mut gg;
                {
                    let x = x_c.data();
                    let b = b_c.data();
                    gg = alloc::buffer(x.len());
                    for (ci, chunk) in x.chunks(h).enumerate() {
                        let o = ci * h;
                        gg.extend(
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(j, &xv)| kernels::gelu_grad(xv + b[j], y[o + j], g[o + j])),
                        );
                    }
                }
                drop(y);
                let gb = if b_c.is_tracked() {
                    let mut gb = alloc::zeroed(h);
                    for chunk in gg.chunks(h) {
                        for (gb_v, &gv) in gb.iter_mut().zip(chunk.iter()) {
                            *gb_v += gv;
                        }
                    }
                    Some(gb)
                } else {
                    None
                };
                // lhs before rhs, like the unfused binary op.
                x_c.accumulate_grad_owned(gg);
                if let Some(gb) = gb {
                    b_c.accumulate_grad_owned(gb);
                }
            },
        )
    }

    /// Fused `layer_norm(self + other)` — a pre-LN residual sublayer — as one
    /// node over parents `[self, other, gamma, beta]`.
    ///
    /// Values and all four gradients match
    /// `self.add(other).layer_norm(gamma, beta, eps)` bit-for-bit. The
    /// elementwise sum is recycled right after the forward: layernorm's
    /// backward only needs `xhat` and `inv_std`, and the residual parents
    /// each receive an identical copy of the layernorm input gradient (the
    /// unfused add is pass-through).
    pub fn residual_layer_norm(
        &self,
        other: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "residual shapes must match");
        let d = *self
            .shape()
            .dims()
            .last()
            .expect("residual_layer_norm requires rank >= 1");
        assert_eq!(gamma.dims(), &[d], "gamma must be [D]");
        assert_eq!(beta.dims(), &[d], "beta must be [D]");
        let rows = self.numel() / d.max(1);
        let n = self.numel();
        let mut sp = telemetry::span("kernel.residual_layer_norm");
        sp.add_bytes(4 * n as u64);
        let mut sum = alloc::zeroed(n);
        let mut out = alloc::zeroed(n);
        let mut xhat = alloc::zeroed(n);
        let mut inv_std = alloc::zeroed(rows);
        {
            let a = self.data();
            let b = other.data();
            kernels::zip_map_into(&a, &b, &mut sum, |x, y| x + y);
            let g = gamma.data();
            let bt = beta.data();
            kernels::layernorm_forward_rows(&sum, &g, &bt, &mut out, &mut xhat, &mut inv_std, d, eps);
        }
        alloc::recycle(sum);
        let a_c = self.clone();
        let b_c = other.clone();
        let gamma_c = gamma.clone();
        let beta_c = beta.clone();
        Tensor::make_op(
            self.shape().clone(),
            out,
            vec![self.clone(), other.clone(), gamma.clone(), beta.clone()],
            move |out_t| {
                let g_guard = out_t.grad_ref();
                let gy = g_guard.as_ref().unwrap();
                let gamma_data = gamma_c.data();
                let a_tracked = a_c.is_tracked();
                let b_tracked = b_c.is_tracked();
                let gx = if a_tracked || b_tracked {
                    let mut gx = alloc::zeroed(a_c.numel());
                    kernels::layernorm_backward_input_rows(
                        gy,
                        &gamma_data,
                        &xhat,
                        &inv_std,
                        &mut gx,
                        d,
                    );
                    gx.iter().for_each(|v| debug_assert!(v.is_finite()));
                    Some(gx)
                } else {
                    None
                };
                if gamma_c.is_tracked() {
                    let mut gg = alloc::zeroed(d);
                    for r in 0..rows {
                        let o = r * d;
                        for i in 0..d {
                            gg[i] += gy[o + i] * xhat[o + i];
                        }
                    }
                    gamma_c.accumulate_grad_owned(gg);
                }
                if beta_c.is_tracked() {
                    let mut gb = alloc::zeroed(d);
                    for r in 0..rows {
                        let o = r * d;
                        for i in 0..d {
                            gb[i] += gy[o + i];
                        }
                    }
                    beta_c.accumulate_grad_owned(gb);
                }
                if let Some(gx) = gx {
                    if a_tracked && b_tracked {
                        a_c.accumulate_grad_owned(alloc::copy_of(&gx));
                        b_c.accumulate_grad_owned(gx);
                    } else if a_tracked {
                        a_c.accumulate_grad_owned(gx);
                    } else {
                        b_c.accumulate_grad_owned(gx);
                    }
                }
            },
        )
    }

    /// Fused three-way residual sum `(self + b) + c` as one node.
    ///
    /// Forward keeps the unfused left-to-right association per element;
    /// backward hands each parent an identical copy of the output gradient,
    /// matching `self.add(b).add(c)` bit-for-bit.
    pub fn add3(&self, b: &Tensor, c: &Tensor) -> Tensor {
        assert_eq!(self.dims(), b.dims(), "add3 shapes must match");
        assert_eq!(self.dims(), c.dims(), "add3 shapes must match");
        let n = self.numel();
        let mut sp = telemetry::span("kernel.add3");
        sp.add_bytes(4 * n as u64);
        let mut out = alloc::zeroed(n);
        {
            let a_d = self.data();
            let b_d = b.data();
            let c_d = c.data();
            let write = |offset: usize, chunk: &mut [f32]| {
                for (idx, o) in chunk.iter_mut().enumerate() {
                    let i = offset + idx;
                    *o = (a_d[i] + b_d[i]) + c_d[i];
                }
            };
            if kernels::map_splits(n) {
                let chunk_len = n.div_ceil((pool::threads() * 4).max(1));
                pool::parallel_chunks_mut(&mut out, chunk_len, |ci, chunk| {
                    write(ci * chunk_len, chunk)
                });
            } else {
                write(0, &mut out);
            }
        }
        let a_c = self.clone();
        let b_c = b.clone();
        let c_c = c.clone();
        Tensor::make_op(
            self.shape().clone(),
            out,
            vec![self.clone(), b.clone(), c.clone()],
            move |out_t| {
                let g_guard = out_t.grad_ref();
                let g = g_guard.as_ref().unwrap();
                for t in [&a_c, &b_c, &c_c] {
                    if t.is_tracked() {
                        t.accumulate_grad_owned(alloc::copy_of(g));
                    }
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdpa_uniform_attention_averages_values() {
        // Equal scores => uniform probabilities => context rows are the mean
        // of the value rows.
        let q = Tensor::zeros([1, 2, 3]);
        let k = Tensor::zeros([1, 2, 3]);
        let v = Tensor::from_slice(&[1.0, 2.0, 3.0, 5.0, 6.0, 7.0], [1, 2, 3]);
        let out = q.sdpa(&k, &v, None, 0.5, None).to_vec();
        for (i, want) in [3.0f32, 4.0, 5.0, 3.0, 4.0, 5.0].iter().enumerate() {
            assert!((out[i] - want).abs() < 1e-5, "out[{i}] = {}", out[i]);
        }
    }

    #[test]
    fn sdpa_masked_row_ignores_masked_keys() {
        let q = Tensor::zeros([1, 1, 2]);
        let k = Tensor::zeros([1, 2, 2]);
        let v = Tensor::from_slice(&[10.0, 20.0, -4.0, -8.0], [1, 2, 2]);
        let mask = Tensor::from_slice(&[0.0, 1.0], [1, 1, 2]);
        let out = q.sdpa(&k, &v, Some(&mask), 1.0, None).to_vec();
        assert!((out[0] - 10.0).abs() < 1e-4);
        assert!((out[1] - 20.0).abs() < 1e-4);
    }

    #[test]
    fn bias_gelu_matches_known_gelu_values() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 0.0], [1, 3]);
        let b = Tensor::from_slice(&[1.0, 1.0, -1.0], [3]);
        let y = x.bias_gelu(&b).to_vec();
        assert!(y[0].abs() < 1e-6);
        assert!((y[1] - 0.8412).abs() < 1e-3);
        assert!((y[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn residual_layer_norm_normalizes_sum() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [1, 4]);
        let b = Tensor::from_slice(&[0.5, 1.0, 1.5, 2.0], [1, 4]);
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let y = a.residual_layer_norm(&b, &gamma, &beta, 1e-5).to_vec();
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn add3_values_and_grads() {
        let a = Tensor::from_slice(&[1.0, 2.0], [2]).requires_grad();
        let b = Tensor::from_slice(&[10.0, 20.0], [2]).requires_grad();
        let c = Tensor::from_slice(&[100.0, 200.0], [2]).requires_grad();
        let y = a.add3(&b, &c);
        assert_eq!(y.to_vec(), vec![111.0, 222.0]);
        y.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(c.grad().unwrap(), vec![1.0, 1.0]);
    }
}
