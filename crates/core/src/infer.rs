//! Graph-free inference engine (DESIGN.md §13).
//!
//! Training wants autograd; serving wants none of it. This module compiles
//! a trained [`Mbmissl`] into an immutable [`InferenceModel`]:
//!
//! - every `Linear` weight is pre-packed **once** into the microkernel
//!   panel layout ([`PackedB`], MR=4/NR=8/KC=256), so per-request GEMMs
//!   skip the pack step entirely;
//! - all activations live in a per-request bump [`Arena`] — no tensor
//!   graph nodes, no refcounts, no allocator churn; the arena is rented
//!   from a free list, `reset()` once per request, and reaches a
//!   steady-state capacity after the first request;
//! - the engine holds the catalog once, as the row-major item table;
//!   exhaustive ranking of a finite table runs through an exact i8 screen
//!   ([`crate::screen`]): integer upper bounds skip the items that cannot
//!   reach the top-n, and only the survivors are scored in f32, so replies
//!   stay bit-identical while the pass reads 4× fewer bytes;
//! - every other f32 scoring — a query or a catalog the screen refuses,
//!   the ANN gather route, `score_candidates` and `score_batch` — is one
//!   gathered pass: the wanted rows are packed off the item table a chunk
//!   at a time into an arena panel, and each chunk is scored, reduced to a
//!   max over interests and offered to the top-n strip by strip.
//!
//! # Parity contract
//!
//! The engine runs the *fused* eval-mode forward of the autograd path on
//! arena buffers: attention is [`kernels::sdpa_slice`], the slice kernel
//! of `Tensor::sdpa`, once per batch·head; the FFN, layer norms and the
//! extractor run the same row kernels (`kernels::gelu`,
//! `kernels::layernorm_row`, `kernels::softmax_rows_serial`), the same
//! `gemm_nn` accumulation order, tanh/squash formulas, `-1e9` mask fill and
//! strict-`>` max-over-interests. Softmax and row kernels run serially, so
//! serve workers do not fork-join into the pool for them. Its f32 scores are
//! therefore **bit-for-bit identical** to `Mbmissl::score_batch` (engine ≡
//! fused autograd); the tensor crate's `fused_parity` suite separately pins
//! the fused ops to the unfused composition.
//! `tests/infer_parity.rs` pins all of this against the autograd
//! reference (`evaluate_reference` / `recommend_top_n_reference`).
//!
//! [`Mbmissl::prepare_inference`] always compiles the engine, so
//! `evaluate` / `recommend_top_n` on an `Mbmissl` always run it.
//!
//! Telemetry: compilation runs under `infer.pack`, each forward under
//! `infer.forward`, and catalog ranking under `infer.score_catalog`
//! (nested in the usual `serve.top_n`). The counters
//! `infer.screen_survivors` and `infer.screen_fallbacks` count the items
//! the screen leaves to exact scoring and the queries it cannot take.
//!
//! # Two-stage retrieval
//!
//! Attaching an [`IvfIndex`] ([`InferenceModel::attach_index`]) switches
//! `recommend_catalog` from the exhaustive full-catalog pass to
//! retrieve-then-rerank (DESIGN.md §14): each interest vector probes the
//! index (`index.probe` span), and the probed lists are re-ranked
//! (`index.rerank` span). Attaching re-lays the screen in list order, so a
//! probed list is a run of screen blocks and the re-rank screens only
//! those; a catalog or a query the screen cannot take gathers the lists'
//! items through the gathered pass. Re-ranked scores are bit-identical
//! to the exhaustive scores of the same items, so the output is exactly the
//! exhaustive ranking restricted to the retrieved set — recall is the only
//! approximation.

use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::ops::Range;
use std::sync::Mutex;

use mbssl_data::sampler::Batch;
use mbssl_data::{Behavior, ItemId, Sequence};
use mbssl_hypergraph::{build_batch_incidence, BatchIncidence, HypergraphConfig};
use mbssl_telemetry as telemetry;
use mbssl_tensor::kernels::{self, PackedB, PackedBView, MASK_FILL, NR};
use mbssl_tensor::nn::LAYER_NORM_EPS as LN_EPS;
use mbssl_tensor::quant::QuantMode;
use mbssl_tensor::simd::SCREEN_LANES;

use crate::ann::{self, AnnError, IvfIndex, ProbeScratch};
use crate::config::ModelConfig;
use crate::encoder::Backbone;
use crate::interest::InterestExtractor;
use crate::model::Mbmissl;
use crate::recommender::{RankKey, Recommendation, SequentialRecommender};
use crate::screen::{CatalogScreen, ScreenQuery};
use crate::trainer::TrainableRecommender;

/// A bump arena for per-request activation buffers.
///
/// `alloc` hands out zeroed `&mut [f32]` windows of one primary buffer;
/// when the primary runs out, each further request gets its own boxed
/// slice (stable address) so outstanding slices are never invalidated.
/// `reset` (between requests, `&mut self` so no loans are live) drops the
/// overflow and, if any was needed, grows the primary to cover the
/// observed high-water mark — after the first request on a given shape
/// the arena is a pure pointer bump with zero heap traffic.
pub struct Arena {
    /// Owner of the primary buffer. Only touched by `reset`/drop; all
    /// reads and writes between resets go through `base`.
    primary: Box<[f32]>,
    /// `primary.as_mut_ptr()`, captured while `primary` was uniquely
    /// borrowed so outstanding `alloc` slices never alias a later
    /// re-borrow of the box.
    base: *mut f32,
    offset: Cell<usize>,
    overflow: UnsafeCell<Vec<Box<[f32]>>>,
    overflow_total: Cell<usize>,
}

// SAFETY: the arena owns every buffer its raw pointers refer to, so
// moving it to another thread moves the data with it. It is deliberately
// NOT Sync (Cell/UnsafeCell); concurrent use is mediated by the engine's
// free list, which hands each arena to exactly one request at a time.
unsafe impl Send for Arena {}

impl Arena {
    /// An arena whose primary buffer holds `capacity` f32s.
    pub fn with_capacity(capacity: usize) -> Arena {
        let mut primary = vec![0.0f32; capacity].into_boxed_slice();
        let base = primary.as_mut_ptr();
        Arena {
            primary,
            base,
            offset: Cell::new(0),
            overflow: UnsafeCell::new(Vec::new()),
            overflow_total: Cell::new(0),
        }
    }

    /// Current primary-buffer capacity in f32 elements.
    pub fn capacity(&self) -> usize {
        self.primary.len()
    }

    /// Total f32s handed out since the last `reset`.
    pub fn used(&self) -> usize {
        self.offset.get() + self.overflow_total.get()
    }

    /// Allocates a zeroed slice of `n` f32s that lives until the arena is
    /// reset. Allocations are disjoint, so holding several at once is
    /// fine — that is the whole point.
    #[allow(clippy::mut_from_ref)] // bump arena: disjoint windows per call
    pub fn alloc(&self, n: usize) -> &mut [f32] {
        let off = self.offset.get();
        if off + n <= self.primary.len() {
            self.offset.set(off + n);
            // SAFETY: [off, off+n) was never handed out since the last
            // reset (offset only grows), `base` stays valid until `reset`
            // replaces the primary (which requires `&mut self`, i.e. no
            // outstanding loans).
            let out = unsafe { std::slice::from_raw_parts_mut(self.base.add(off), n) };
            out.fill(0.0);
            return out;
        }
        let mut boxed = vec![0.0f32; n].into_boxed_slice();
        let ptr = boxed.as_mut_ptr();
        self.overflow_total.set(self.overflow_total.get() + n);
        // SAFETY: pushing onto the overflow vec moves only the Box
        // handles; the heap allocations they point to are stable, so
        // previously returned overflow slices stay valid.
        unsafe { (*self.overflow.get()).push(boxed) };
        unsafe { std::slice::from_raw_parts_mut(ptr, n) }
    }

    /// [`Arena::alloc`] as `n` zeroed i32 words, for integer scratch.
    #[allow(clippy::mut_from_ref)] // bump arena: disjoint windows per call
    pub fn alloc_i32(&self, n: usize) -> &mut [i32] {
        let words = self.alloc(n);
        // SAFETY: f32 and i32 share size and alignment, every bit pattern
        // is a valid i32, and `+0.0` is all-zero bits; the window is
        // exclusively ours until the next reset, as in `alloc`.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<i32>(), n) }
    }

    /// [`Arena::alloc`] as `n` zeroed u32 words, for ids.
    #[allow(clippy::mut_from_ref)] // bump arena: disjoint windows per call
    pub fn alloc_u32(&self, n: usize) -> &mut [u32] {
        let words = self.alloc(n);
        // SAFETY: as in `alloc_i32`, for u32.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u32>(), n) }
    }

    /// Invalidates all outstanding allocations (enforced by `&mut self`)
    /// and consolidates: if overflow was needed, the primary grows to the
    /// high-water mark so the next request of the same shape bump-fits.
    pub fn reset(&mut self) {
        let used = self.used();
        if self.overflow_total.get() > 0 && used > self.primary.len() {
            self.primary = vec![0.0f32; used.next_power_of_two()].into_boxed_slice();
            self.base = self.primary.as_mut_ptr();
        }
        self.overflow.get_mut().clear();
        self.overflow_total.set(0);
        self.offset.set(0);
    }
}

/// `[B, L, H*Dh] → [B*H, L, Dh]`, the reshape/permute/reshape of
/// `MultiHeadAttention::split_heads` as one index map.
fn split_heads(inp: &[f32], out: &mut [f32], b: usize, l: usize, heads: usize, dh: usize) {
    let d = heads * dh;
    for bi in 0..b {
        for t in 0..l {
            let src = &inp[(bi * l + t) * d..][..d];
            for h in 0..heads {
                out[((bi * heads + h) * l + t) * dh..][..dh]
                    .copy_from_slice(&src[h * dh..][..dh]);
            }
        }
    }
}

/// Inverse of [`split_heads`].
fn merge_heads(inp: &[f32], out: &mut [f32], b: usize, l: usize, heads: usize, dh: usize) {
    let d = heads * dh;
    for bi in 0..b {
        for t in 0..l {
            let dst = &mut out[(bi * l + t) * d..][..d];
            for h in 0..heads {
                dst[h * dh..][..dh]
                    .copy_from_slice(&inp[((bi * heads + h) * l + t) * dh..][..dh]);
            }
        }
    }
}

/// A `Linear` with its weight pre-packed into GEMM panels.
struct PackedLinear {
    w: PackedB,
    bias: Vec<f32>,
}

impl PackedLinear {
    /// `out = x · W + b` for row-major `x` (`m × in`), writing `m × out`.
    fn apply(&self, x: &[f32], out: &mut [f32], m: usize, scratch: &mut [f32]) {
        out.fill(0.0);
        kernels::gemm_nn_prepacked_scratch(x, &self.w, out, m, scratch);
        let n = self.w.n();
        for row in out.chunks_mut(n) {
            for (v, &b) in row.iter_mut().zip(self.bias.iter()) {
                *v += b;
            }
        }
    }
}

/// LayerNorm parameters; `apply` runs `kernels::layernorm_row`, the row
/// kernel of the autograd layer norm, serially.
struct LayerNormWeights {
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl LayerNormWeights {
    fn apply(&self, x: &[f32], out: &mut [f32], d: usize) {
        for (row, orow) in x.chunks(d).zip(out.chunks_mut(d)) {
            kernels::layernorm_row(row, &self.gamma, &self.beta, LN_EPS, orow, None);
        }
    }
}

/// Multi-head attention with all four projections pre-packed.
struct AttnWeights {
    wq: PackedLinear,
    wk: PackedLinear,
    wv: PackedLinear,
    wo: PackedLinear,
    heads: usize,
    head_dim: usize,
    dim: usize,
}

impl AttnWeights {
    /// Cross attention `query [b, lq, d]` over `kv [b, lk, d]`;
    /// `blocked(bh, i, j)` reproduces the autograd mask (true → `-1e9`).
    fn forward<'a>(
        &self,
        query: &[f32],
        kv: &[f32],
        b: usize,
        lq: usize,
        lk: usize,
        blocked: impl Fn(usize, usize, usize) -> bool,
        arena: &'a Arena,
    ) -> &'a mut [f32] {
        let (d, heads, dh) = (self.dim, self.heads, self.head_dim);
        let scratch = arena.alloc(PackedB::SCRATCH_LEN);
        let q_proj = arena.alloc(b * lq * d);
        self.wq.apply(query, q_proj, b * lq, scratch);
        let k_proj = arena.alloc(b * lk * d);
        self.wk.apply(kv, k_proj, b * lk, scratch);
        let v_proj = arena.alloc(b * lk * d);
        self.wv.apply(kv, v_proj, b * lk, scratch);

        let qh = arena.alloc(b * heads * lq * dh);
        split_heads(q_proj, qh, b, lq, heads, dh);
        let kh = arena.alloc(b * heads * lk * dh);
        split_heads(k_proj, kh, b, lk, heads, dh);
        let vh = arena.alloc(b * heads * lk * dh);
        split_heads(v_proj, vh, b, lk, heads, dh);

        // The fused sdpa's slice kernel, once per batch·head.
        let probs = arena.alloc(lq * lk);
        let kt = arena.alloc(dh * lk);
        let ctx = arena.alloc(b * heads * lq * dh);
        let scale = 1.0 / (dh as f32).sqrt();
        for bh in 0..b * heads {
            kernels::sdpa_slice(
                &qh[bh * lq * dh..],
                &kh[bh * lk * dh..],
                &vh[bh * lk * dh..],
                (lq, lk, dh),
                scale,
                |i, j| blocked(bh, i, j),
                None,
                probs,
                kt,
                &mut ctx[bh * lq * dh..],
            );
        }
        let merged = arena.alloc(b * lq * d);
        merge_heads(ctx, merged, b, lq, heads, dh);
        let out = arena.alloc(b * lq * d);
        self.wo.apply(merged, out, b * lq, scratch);
        out
    }
}

/// FeedForward (gelu between two pre-packed linears).
struct FfnWeights {
    lin1: PackedLinear,
    lin2: PackedLinear,
}

impl FfnWeights {
    fn forward<'a>(&self, x: &[f32], m: usize, arena: &'a Arena) -> &'a mut [f32] {
        let scratch = arena.alloc(PackedB::SCRATCH_LEN);
        let hidden = arena.alloc(m * self.lin1.w.n());
        self.lin1.apply(x, hidden, m, scratch);
        for v in hidden.iter_mut() {
            *v = kernels::gelu(*v);
        }
        let out = arena.alloc(m * self.lin2.w.n());
        self.lin2.apply(hidden, out, m, scratch);
        out
    }
}

/// One hypergraph-transformer layer (two-phase node↔edge attention).
struct HgLayerWeights {
    edge_type_emb: Vec<f32>,
    node_to_edge: AttnWeights,
    edge_to_node: AttnWeights,
    ln_in: LayerNormWeights,
    ln_ffn: LayerNormWeights,
    ffn: FfnWeights,
}

impl HgLayerWeights {
    fn forward<'a>(
        &self,
        x: &[f32],
        inc: &BatchIncidence,
        b: usize,
        l: usize,
        arena: &'a Arena,
    ) -> &'a mut [f32] {
        let d = self.node_to_edge.dim;
        let e = inc.num_edges;
        let heads = self.node_to_edge.heads;
        let normed = arena.alloc(b * l * d);
        self.ln_in.apply(x, normed, d);
        let edge_q = arena.alloc(b * e * d);
        for (i, &et) in inc.edge_type_ids.iter().enumerate() {
            edge_q[i * d..][..d].copy_from_slice(&self.edge_type_emb[et * d..][..d]);
        }
        let mem = &inc.membership;
        let edges = self.node_to_edge.forward(
            edge_q,
            normed,
            b,
            e,
            l,
            |bh, ei, t| (1.0 - mem[((bh / heads) * e + ei) * l + t]) != 0.0,
            arena,
        );
        let update = self.edge_to_node.forward(
            normed,
            edges,
            b,
            l,
            e,
            |bh, t, ei| (1.0 - mem[((bh / heads) * e + ei) * l + t]) != 0.0,
            arena,
        );
        let x2 = arena.alloc(b * l * d);
        for i in 0..b * l * d {
            x2[i] = x[i] + update[i];
        }
        let ln_out = arena.alloc(b * l * d);
        self.ln_ffn.apply(x2, ln_out, d);
        let ffn_out = self.ffn.forward(ln_out, b * l, arena);
        let out = arena.alloc(b * l * d);
        for i in 0..b * l * d {
            out[i] = x2[i] + ffn_out[i];
        }
        out
    }
}

/// One pre-LN transformer block.
struct BlockWeights {
    attn: AttnWeights,
    ffn: FfnWeights,
    ln1: LayerNormWeights,
    ln2: LayerNormWeights,
}

impl BlockWeights {
    fn forward<'a>(
        &self,
        x: &[f32],
        b: usize,
        l: usize,
        valid: &[f32],
        arena: &'a Arena,
    ) -> &'a mut [f32] {
        let d = self.attn.dim;
        let heads = self.attn.heads;
        let n1 = arena.alloc(b * l * d);
        self.ln1.apply(x, n1, d);
        // key_padding_mask blocks key j wherever valid[b, j] == 0.
        let attn_out = self.attn.forward(
            n1,
            n1,
            b,
            l,
            l,
            |bh, _i, j| valid[(bh / heads) * l + j] == 0.0,
            arena,
        );
        let x2 = arena.alloc(b * l * d);
        for i in 0..b * l * d {
            x2[i] = x[i] + attn_out[i];
        }
        let n2 = arena.alloc(b * l * d);
        self.ln2.apply(x2, n2, d);
        let f = self.ffn.forward(n2, b * l, arena);
        let out = arena.alloc(b * l * d);
        for i in 0..b * l * d {
            out[i] = x2[i] + f[i];
        }
        out
    }
}

enum BackboneWeights {
    Hypergraph {
        layers: Vec<HgLayerWeights>,
        hg_config: HypergraphConfig,
    },
    Transformer {
        blocks: Vec<BlockWeights>,
    },
}

enum ExtractorWeights {
    SelfAttentive {
        w1: PackedB,
        w2: PackedB,
        k: usize,
    },
    DynamicRouting {
        transform: PackedB,
        /// `[K, init_cols]` fixed routing-noise table.
        routing_init: Vec<f32>,
        init_cols: usize,
        k: usize,
        iters: usize,
    },
}

impl ExtractorWeights {
    /// Pools `h [b, l, d]` into interests `[b, k, d]`, mirroring
    /// `InterestExtractor::forward`.
    fn forward<'a>(
        &self,
        h: &[f32],
        allowed: &[f32],
        b: usize,
        l: usize,
        d: usize,
        arena: &'a Arena,
    ) -> &'a mut [f32] {
        match self {
            ExtractorWeights::SelfAttentive { w1, w2, k } => {
                let k = *k;
                let scratch = arena.alloc(PackedB::SCRATCH_LEN);
                let t1 = arena.alloc(b * l * w1.n());
                kernels::gemm_nn_prepacked_scratch(h, w1, t1, b * l, scratch);
                for v in t1.iter_mut() {
                    *v = v.tanh();
                }
                let logits = arena.alloc(b * l * k);
                kernels::gemm_nn_prepacked_scratch(t1, w2, logits, b * l, scratch);
                // blocked [b, l, 1] broadcast over K.
                for (i, &a) in allowed.iter().enumerate() {
                    if (1.0 - a) != 0.0 {
                        logits[i * k..][..k].fill(MASK_FILL);
                    }
                }
                // permute [B, L, K] → [B, K, L], softmax over L.
                let attn = arena.alloc(b * k * l);
                for bi in 0..b {
                    for t in 0..l {
                        for kk in 0..k {
                            attn[(bi * k + kk) * l + t] = logits[(bi * l + t) * k + kk];
                        }
                    }
                }
                kernels::softmax_rows_serial(attn, l);
                let z = arena.alloc(b * k * d);
                for bi in 0..b {
                    kernels::gemm_nn(
                        &attn[bi * k * l..][..k * l],
                        &h[bi * l * d..][..l * d],
                        &mut z[bi * k * d..][..k * d],
                        k,
                        l,
                        d,
                    );
                }
                z
            }
            ExtractorWeights::DynamicRouting {
                transform,
                routing_init,
                init_cols,
                k,
                iters,
            } => {
                let (k, iters, init_cols) = (*k, *iters, *init_cols);
                let scratch = arena.alloc(PackedB::SCRATCH_LEN);
                let s = arena.alloc(b * l * d);
                kernels::gemm_nn_prepacked_scratch(h, transform, s, b * l, scratch);
                let logits = arena.alloc(b * k * l);
                for bi in 0..b {
                    for kk in 0..k {
                        logits[(bi * k + kk) * l..][..l]
                            .copy_from_slice(&routing_init[kk * init_cols..][..l]);
                    }
                }
                let z = arena.alloc(b * k * d); // zeros if iters == 0
                let c = arena.alloc(b * k * l);
                let weighted = arena.alloc(b * k * d);
                let agree = arena.alloc(b * k * l);
                let st = arena.alloc(d * l);
                for iter in 0..iters {
                    // c = softmax(mask(logits)); the mask is [b, 1, l]
                    // broadcast over K and does not touch `logits`.
                    c.copy_from_slice(logits);
                    for bi in 0..b {
                        for t in 0..l {
                            if (1.0 - allowed[bi * l + t]) != 0.0 {
                                for kk in 0..k {
                                    c[(bi * k + kk) * l + t] = MASK_FILL;
                                }
                            }
                        }
                    }
                    kernels::softmax_rows_serial(c, l);
                    weighted.fill(0.0);
                    for bi in 0..b {
                        kernels::gemm_nn(
                            &c[bi * k * l..][..k * l],
                            &s[bi * l * d..][..l * d],
                            &mut weighted[bi * k * d..][..k * d],
                            k,
                            l,
                            d,
                        );
                    }
                    // z = squash(weighted), rowwise over d.
                    for (zrow, wrow) in z.chunks_mut(d).zip(weighted.chunks(d)) {
                        let mut sq = 0.0f32;
                        for &v in wrow.iter() {
                            sq += v * v;
                        }
                        let norm = (sq + 1e-9).sqrt();
                        let scale = (sq / (sq + 1.0)) / norm;
                        for (zv, &wv) in zrow.iter_mut().zip(wrow.iter()) {
                            *zv = wv * scale;
                        }
                    }
                    if iter + 1 < iters {
                        // logits += z · sᵀ (routing agreement).
                        agree.fill(0.0);
                        for bi in 0..b {
                            kernels::transpose(&s[bi * l * d..][..l * d], st, l, d);
                            kernels::gemm_nn(
                                &z[bi * k * d..][..k * d],
                                st,
                                &mut agree[bi * k * l..][..k * l],
                                k,
                                d,
                                l,
                            );
                        }
                        for (lv, &av) in logits.iter_mut().zip(agree.iter()) {
                            *lv += av;
                        }
                    }
                }
                z
            }
        }
    }
}

/// An attached IVF index plus its probe width and its lists' place in the
/// list-ordered screen.
struct AnnState {
    index: IvfIndex,
    nprobe: usize,
    /// List `c` fills the screen blocks `blocks[c]..blocks[c + 1]`.
    blocks: Vec<u32>,
    /// Item id → its list (entry 0 unused).
    list_of: Vec<u32>,
}

impl AnnState {
    /// Request-arena scratch for one [`IvfIndex::probe_lists`] call.
    fn probe_scratch<'a>(&self, k: usize, arena: &'a Arena) -> ProbeScratch<'a> {
        let nlist = self.index.nlist();
        ProbeScratch {
            scores: arena.alloc(k * nlist),
            gemm: arena.alloc(PackedB::SCRATCH_LEN),
            order: arena.alloc_u32(nlist),
            probed: arena.alloc_u32(nlist),
            lists: arena.alloc_u32(nlist),
        }
    }

    /// Arena slots [`probe_scratch`](Self::probe_scratch) takes.
    fn probe_scratch_len(&self, k: usize) -> usize {
        (k + 3) * self.index.nlist() + PackedB::SCRATCH_LEN
    }
}

/// One catalog-ranking query against a shared interest buffer
/// ([`InferenceModel::rank_from_interests`]).
pub struct CatalogQuery<'a> {
    /// How many recommendations to return.
    pub n: usize,
    /// Items to skip (typically the user's already-seen set).
    pub exclude: &'a HashSet<ItemId>,
}

/// The outcome of one [`CatalogQuery`].
pub struct RankedQuery {
    /// Top-`n` recommendations, score descending, ties toward the lower
    /// item id — exactly [`recommend_catalog`]'s ordering.
    ///
    /// [`recommend_catalog`]: SequentialRecommender::recommend_catalog
    pub recs: Vec<Recommendation>,
    /// Whether the two-stage probe+rerank route served this query
    /// (`false` = exhaustive, including the short-probe fallback).
    pub used_ann: bool,
}

/// Bounded top-`n` retention, shared by every ranking path so
/// tie-breaking can never diverge between them.
struct TopN<'a> {
    heap: BinaryHeap<Reverse<RankKey>>,
    n: usize,
    exclude: &'a HashSet<ItemId>,
    /// The n-th best score once the heap is full, `-inf` before.
    floor: f32,
}

impl<'a> TopN<'a> {
    /// Retention for `q` over a catalog of `num_items`: the heap never
    /// holds more than the catalog, whatever `q.n` asks for.
    fn new(q: &CatalogQuery<'a>, num_items: usize) -> TopN<'a> {
        assert!(q.n > 0);
        let heap = BinaryHeap::with_capacity(q.n.min(num_items));
        TopN { heap, n: q.n, exclude: q.exclude, floor: f32::NEG_INFINITY }
    }

    /// Offers a run of columns: `scores[i]` is item `id(col0 + i)`'s score.
    /// Once the heap is full, an item is **admitted** only if its key beats
    /// the n-th best, and only then is the exclude set consulted; ids are
    /// distinct, so this keeps what push-then-pop keeps (DESIGN.md §13). A
    /// run wholly below the floor (`s < floor` is false for NaN) costs one
    /// compare per score.
    #[inline]
    fn offer(&mut self, col0: usize, scores: &[f32], id: impl Fn(usize) -> ItemId) {
        if scores.iter().fold(true, |below, &s| below & (s < self.floor)) {
            return;
        }
        for (col, &score) in (col0..).zip(scores) {
            let key = RankKey { score, item: id(col) };
            let full = self.heap.len() == self.n;
            let beaten = full && key <= self.heap.peek().expect("n > 0").0;
            if beaten || self.exclude.contains(&key.item) {
                continue;
            }
            if full {
                *self.heap.peek_mut().expect("n > 0") = Reverse(key);
            } else {
                self.heap.push(Reverse(key));
            }
            if self.heap.len() == self.n {
                self.floor = self.heap.peek().expect("n > 0").0.score;
            }
        }
    }

    /// The retained items, score descending, ties toward the lower id
    /// (the descending `RankKey` order).
    fn into_sorted(self) -> Vec<Recommendation> {
        let keys = self.heap.into_sorted_vec().into_iter();
        keys.map(|Reverse(key)| Recommendation { item: key.item, score: key.score }).collect()
    }
}

/// Items the gathered pass packs per panel: a whole number of NR-wide
/// strips, and 128 KiB of panel at d = 32, so a chunk stays in L2 while
/// every query of the batch streams it. Public so tests can place ties
/// across a chunk boundary.
pub const GATHER_CHUNK: usize = 1024;

/// The fused f32 pass over one packed panel (DESIGN.md §13): streams
/// `panel` one NR-wide strip at a time, reduces each query's `k` interest
/// rows of the strip to a strict-`>` max in ascending interest order, and
/// hands `visit(query, col0, scores)` the scores of the strip's real
/// columns, starting at column `col0`. `z` holds the queries' interests
/// back to back (`queries × k × d`); `scratch` holds
/// [`kernels::strips_scratch_len`] of its rows. Scores are bit-identical
/// to a full GEMM followed by the max loop, without the `queries·k ×
/// columns` score matrix.
fn stream_max_scores(
    z: &[f32],
    k: usize,
    panel: PackedBView<'_>,
    scratch: &mut [f32],
    mut visit: impl FnMut(usize, usize, &[f32]),
) {
    let (m, n) = (z.len() / panel.k(), panel.n());
    kernels::gemm_nn_prepacked_strips(z, panel, m, 0..n.div_ceil(NR), scratch, |s, block| {
        let j0 = s * NR;
        let lanes = (n - j0).min(NR);
        for (qi, rows) in block.chunks_exact(k * NR).enumerate() {
            let mut best = [f32::NEG_INFINITY; NR];
            for row in rows.chunks_exact(NR) {
                for (b, &v) in best.iter_mut().zip(row) {
                    if v > *b {
                        *b = v;
                    }
                }
            }
            visit(qi, j0, &best[..lanes]);
        }
    });
}

/// An immutable, graph-free compilation of a trained [`Mbmissl`].
///
/// Build one with [`InferenceModel::compile`] (or let `evaluate` /
/// `recommend_top_n` do it via [`SequentialRecommender::prepare_inference`]).
pub struct InferenceModel {
    config: ModelConfig,
    num_items: usize,
    dim: usize,
    num_interests: usize,
    item_table: Vec<f32>,
    behavior_table: Vec<f32>,
    pos_table: Vec<f32>,
    input_ln: LayerNormWeights,
    backbone: BackboneWeights,
    extractor: ExtractorWeights,
    /// The exact i8 screen of a finite item table.
    screen: Option<CatalogScreen>,
    ann: Option<AnnState>,
    name: String,
    arenas: Mutex<Vec<Arena>>,
    /// Arena slots a request takes without an index attached.
    arena_base: usize,
}

impl InferenceModel {
    /// [`compile`](Self::compile), kept for the benchmark harness until
    /// ROADMAP item 3's benchmark revision deletes it with [`QuantMode`].
    #[doc(hidden)]
    pub fn compile_with_mode(model: &Mbmissl, _mode: QuantMode) -> InferenceModel {
        Self::compile(model)
    }

    /// Compiles `model`, pre-packing every weight once.
    pub fn compile(model: &Mbmissl) -> InferenceModel {
        let mut pack_sp = telemetry::span("infer.pack");
        let params = model.named_params();
        let total_param_elems: usize = params
            .iter()
            .map(|(_, t)| t.dims().iter().product::<usize>())
            .sum();
        pack_sp.add_bytes((total_param_elems * std::mem::size_of::<f32>()) as u64);

        let get = |name: &str| -> Vec<f32> {
            params
                .get(name)
                .unwrap_or_else(|| panic!("missing param {name}"))
                .to_vec()
        };
        let pack2 = |name: &str| -> PackedB {
            let t = params
                .get(name)
                .unwrap_or_else(|| panic!("missing param {name}"));
            let dims = t.dims();
            assert_eq!(dims.len(), 2, "{name} is not a matrix");
            PackedB::pack(&t.data(), dims[0], dims[1])
        };
        let linear = |prefix: &str| -> PackedLinear {
            PackedLinear {
                w: pack2(&format!("{prefix}.weight")),
                bias: get(&format!("{prefix}.bias")),
            }
        };
        let norm = |prefix: &str| -> LayerNormWeights {
            LayerNormWeights {
                gamma: get(&format!("{prefix}.gamma")),
                beta: get(&format!("{prefix}.beta")),
            }
        };
        let config = model.config().clone();
        let (dim, heads) = (config.dim, config.heads);
        let attn = |prefix: &str| -> AttnWeights {
            AttnWeights {
                wq: linear(&format!("{prefix}.wq")),
                wk: linear(&format!("{prefix}.wk")),
                wv: linear(&format!("{prefix}.wv")),
                wo: linear(&format!("{prefix}.wo")),
                heads,
                head_dim: dim / heads,
                dim,
            }
        };
        let ffn = |prefix: &str| -> FfnWeights {
            FfnWeights {
                lin1: linear(&format!("{prefix}.lin1")),
                lin2: linear(&format!("{prefix}.lin2")),
            }
        };

        let backbone = match &model.backbone {
            Backbone::Hypergraph {
                encoder, hg_config, ..
            } => BackboneWeights::Hypergraph {
                layers: (0..encoder.num_layers())
                    .map(|i| {
                        let p = format!("mbmissl.backbone.hg.layer{i}");
                        HgLayerWeights {
                            edge_type_emb: get(&format!("{p}.edge_type_emb.weight")),
                            node_to_edge: attn(&format!("{p}.node_to_edge")),
                            edge_to_node: attn(&format!("{p}.edge_to_node")),
                            ln_in: norm(&format!("{p}.ln_in")),
                            ln_ffn: norm(&format!("{p}.ln_ffn")),
                            ffn: ffn(&format!("{p}.ffn")),
                        }
                    })
                    .collect(),
                hg_config: hg_config.clone(),
            },
            Backbone::Transformer { blocks, .. } => BackboneWeights::Transformer {
                blocks: (0..blocks.len())
                    .map(|i| {
                        let p = format!("mbmissl.backbone.block{i}");
                        BlockWeights {
                            attn: attn(&format!("{p}.attn")),
                            ffn: ffn(&format!("{p}.ffn")),
                            ln1: norm(&format!("{p}.ln1")),
                            ln2: norm(&format!("{p}.ln2")),
                        }
                    })
                    .collect(),
            },
        };

        let extractor = match &model.extractor {
            InterestExtractor::SelfAttentive { k, .. } => ExtractorWeights::SelfAttentive {
                w1: pack2("mbmissl.extractor.w1"),
                w2: pack2("mbmissl.extractor.w2"),
                k: *k,
            },
            InterestExtractor::DynamicRouting {
                routing_init,
                k,
                iters,
                ..
            } => ExtractorWeights::DynamicRouting {
                transform: pack2("mbmissl.extractor.transform"),
                routing_init: routing_init.to_vec(),
                init_cols: routing_init.dims()[1],
                k: *k,
                iters: *iters,
            },
        };

        let num_items = model.num_items();
        let item_table = get("mbmissl.input.item_emb.weight");
        assert_eq!(item_table.len(), (num_items + 1) * dim, "item table shape");
        let screen = CatalogScreen::build(&item_table, dim);

        let k = config.num_interests;
        let l = config.max_seq_len;
        // Loose serving-shape (B=1) estimate; the arena self-sizes to the
        // true high-water mark after the first request anyway.
        let screen_scratch = screen.as_ref().map_or(0, |s| {
            s.query_len(k) + CatalogScreen::acc_len(k) + CatalogScreen::BOUNDS_LEN
        });
        let arena_base = 32 * l * dim * (config.num_layers + 1)
            + 8 * PackedB::SCRATCH_LEN
            + screen_scratch
            + 1024;

        let name = format!(
            "MBMISSL-infer(dim={}, K={}, {:?}, {:?})",
            dim, k, config.encoder, config.extractor
        );
        InferenceModel {
            num_items,
            dim,
            num_interests: k,
            item_table,
            behavior_table: get("mbmissl.input.behavior_emb.weight"),
            pos_table: get("mbmissl.input.pos_emb.weight"),
            input_ln: norm("mbmissl.input.ln"),
            backbone,
            extractor,
            screen,
            ann: None,
            name,
            arenas: Mutex::new(vec![Arena::with_capacity(arena_base)]),
            arena_base,
            config,
        }
    }

    /// Builds an IVF index over this engine's item table with the default
    /// `nlist` and the given k-means seed.
    pub fn build_index(&self, seed: u64) -> IvfIndex {
        self.build_index_with(ann::default_nlist(self.num_items), seed)
    }

    /// Builds an IVF index over this engine's item table with an explicit
    /// list count.
    pub fn build_index_with(&self, nlist: usize, seed: u64) -> IvfIndex {
        IvfIndex::build(&self.item_table, self.num_items, self.dim, nlist, seed)
    }

    /// Attaches `index` with the default `nprobe`.
    /// Fails with [`AnnError::Mismatch`] if the index geometry does not
    /// match this engine's item table.
    pub fn attach_index(&mut self, index: IvfIndex) -> Result<(), AnnError> {
        let nprobe = ann::default_nprobe(index.nlist());
        self.attach_index_with(index, nprobe)
    }

    /// Attaches `index`, probing `nprobe` lists per interest vector, and
    /// re-lays the screen in list order: each list fills whole blocks, in
    /// list order (DESIGN.md §14).
    pub fn attach_index_with(&mut self, index: IvfIndex, nprobe: usize) -> Result<(), AnnError> {
        if index.dim() != self.dim || index.num_items() != self.num_items {
            return Err(AnnError::Mismatch {
                expected: format!("dim {}, {} items", self.dim, self.num_items),
                found: format!("dim {}, {} items", index.dim(), index.num_items()),
            });
        }
        let nprobe = nprobe.clamp(1, index.nlist());
        let mut order: Vec<u32> = Vec::with_capacity(self.num_items + 16 * index.nlist());
        let mut blocks = vec![0u32];
        let mut list_of = vec![0u32; self.num_items + 1];
        for c in 0..index.nlist() {
            for &id in index.list(c) {
                list_of[id as usize] = c as u32;
            }
            order.extend_from_slice(index.list(c));
            order.resize(order.len().next_multiple_of(SCREEN_LANES), 0);
            blocks.push((order.len() / SCREEN_LANES) as u32);
        }
        self.relay_screen(&order);
        self.ann = Some(AnnState { index, nprobe, blocks, list_of });
        Ok(())
    }

    /// Detaches any attached index, restoring exhaustive ranking and the
    /// screen's id order.
    pub fn detach_index(&mut self) {
        if self.ann.take().is_some() {
            self.relay_screen(&(0..=self.num_items as u32).collect::<Vec<_>>());
        }
    }

    /// Re-lays the screen, if the catalog has one, in row order `order`.
    fn relay_screen(&mut self, order: &[u32]) {
        if let Some(screen) = &mut self.screen {
            screen.relay(order);
        }
    }

    /// Scores `history` against an explicit candidate subset of the item
    /// table, returning one score per candidate. Scores are bit-identical
    /// to what the same items get from exhaustive `recommend_catalog`
    /// ranking; this is the re-rank half of two-stage retrieval, exposed
    /// for callers that bring their own retrieval.
    pub fn score_candidates(&self, history: &Sequence, candidates: &[ItemId]) -> Vec<f32> {
        let mut out = vec![0.0f32; candidates.len()];
        self.score_batch_into(&[history], &[candidates], &mut out);
        out
    }

    /// The gathered f32 pass (DESIGN.md §13), every unscreened scoring's
    /// one route. `z` holds the queries' interests (`queries × k × d`);
    /// with one list in `lists` every query scores it, else query `i`
    /// scores `lists[i]`. The rows of each list are packed straight off the
    /// item table, [`GATHER_CHUNK`] items at a time, into one request-arena
    /// panel (stale contents are fine), and each chunk is streamed once for
    /// its queries. `visit(query, j0, scores)` gets runs of max-over-interest
    /// scores, `scores[i]` for `list[j0 + i]`, in list order.
    ///
    /// `pack_select_into` puts the same values in the same panel slots as
    /// transposing the gathered rows and packing them, so the scores are
    /// bit-identical to the autograd `bmm(z, candᵀ)` + strict-`>` max of
    /// `Mbmissl::score_against`. Returns the panel bytes packed.
    fn gather_scores(
        &self,
        z: &[f32],
        lists: &[&[ItemId]],
        arena: &Arena,
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) -> u64 {
        let (d, kd) = (self.dim, self.num_interests * self.dim);
        let shared = lists.len() == 1;
        debug_assert!(shared || lists.len() * kd == z.len(), "one list per query");
        let longest = lists.iter().map(|l| l.len()).max().unwrap_or(0);
        // The panel lives in the request arena: recycled global buffers
        // cost ~30% here in cache locality.
        let panel = arena.alloc(PackedB::packed_len(d, longest.min(GATHER_CHUNK)));
        let rows = if shared { z.len() / d } else { self.num_interests };
        let scratch = arena.alloc(kernels::strips_scratch_len(rows, d));
        let mut bytes = 0;
        for (li, list) in lists.iter().enumerate() {
            let (zl, q0) = if shared { (z, 0) } else { (&z[li * kd..][..kd], li) };
            for (c, chunk) in list.chunks(GATHER_CHUNK).enumerate() {
                let len = PackedB::packed_len(d, chunk.len());
                let table = &self.item_table;
                let packed = PackedB::pack_select_into(table, d, chunk, &mut panel[..len]);
                let c0 = c * GATHER_CHUNK;
                stream_max_scores(zl, self.num_interests, packed, scratch, |qi, j0, s| {
                    visit(q0 + qi, c0 + j0, s)
                });
                bytes += len;
            }
        }
        (bytes * std::mem::size_of::<f32>()) as u64
    }

    /// Arena slots a serving request is expected to take: the forward, the
    /// screen's query scratch and, with an index attached, the probe.
    fn arena_capacity(&self) -> usize {
        let probe = self.ann.as_ref().map(|st| st.probe_scratch_len(self.num_interests));
        self.arena_base + probe.unwrap_or(0)
    }

    fn rent_arena(&self) -> Arena {
        self.arenas
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| Arena::with_capacity(self.arena_capacity()))
    }

    fn return_arena(&self, mut arena: Arena) {
        arena.reset();
        self.arenas.lock().unwrap().push(arena);
    }

    /// Input layer + backbone: contextual states `[b, l, d]`.
    fn encode<'a>(&self, batch: &Batch, arena: &'a Arena) -> &'a mut [f32] {
        let (b, l, d) = (batch.size, batch.max_len, self.dim);
        assert!(
            l <= self.config.max_seq_len,
            "sequence length {l} exceeds max_seq_len {}",
            self.config.max_seq_len
        );
        let x = arena.alloc(b * l * d);
        for i in 0..b * l {
            let item = &self.item_table[batch.items[i] * d..][..d];
            let beh = &self.behavior_table[batch.behaviors[i] * d..][..d];
            let pos = &self.pos_table[(i % l) * d..][..d];
            let row = &mut x[i * d..][..d];
            for j in 0..d {
                row[j] = (item[j] + beh[j]) + pos[j];
            }
        }
        let normed = arena.alloc(b * l * d);
        self.input_ln.apply(x, normed, d);
        match &self.backbone {
            BackboneWeights::Hypergraph { layers, hg_config } => {
                let incidence = build_batch_incidence(
                    hg_config,
                    &batch.items,
                    &batch.behaviors,
                    &batch.valid,
                    b,
                    l,
                    Behavior::VOCAB,
                );
                let mut h: &mut [f32] = normed;
                for layer in layers {
                    h = layer.forward(h, &incidence, b, l, arena);
                }
                h
            }
            BackboneWeights::Transformer { blocks } => {
                let mut h: &mut [f32] = normed;
                for block in blocks {
                    h = block.forward(h, b, l, &batch.valid, arena);
                }
                h
            }
        }
    }

    /// Encodes `histories` and extracts interests `[b, k, d]`, under an
    /// `infer.forward` span.
    fn interests_for<'a>(&self, histories: &[&Sequence], arena: &'a Arena) -> (Batch, &'a [f32]) {
        let batch = Batch::encode_recent(histories, self.config.max_seq_len);
        let mut fwd_sp = telemetry::span("infer.forward");
        fwd_sp.add_bytes((batch.size * batch.max_len * self.dim * std::mem::size_of::<f32>()) as u64);
        let h = self.encode(&batch, arena);
        let z = self
            .extractor
            .forward(h, &batch.valid, batch.size, batch.max_len, self.dim, arena);
        drop(fwd_sp);
        // A history with no events pools only padding, which would tie its
        // row to the batch's padded length: it gets its solo encoding (one
        // pad position) instead, as `Mbmissl::score_batch` gives it.
        if batch.max_len > 1 && histories.iter().any(|h| h.is_empty()) {
            let (_, cold) = self.interests_for(&[&Sequence::new()], arena);
            for (row, h) in z.chunks_exact_mut(cold.len()).zip(histories) {
                if h.is_empty() {
                    row.copy_from_slice(cold);
                }
            }
        }
        (batch, z)
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Interest vectors per user `K`.
    pub fn num_interests(&self) -> usize {
        self.num_interests
    }

    /// Catalog size the engine was compiled for (items `1..=num_items`).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The probe width of the attached index, if one is attached.
    pub fn attached_nprobe(&self) -> Option<usize> {
        self.ann.as_ref().map(|st| st.nprobe)
    }

    /// Encodes `histories` in **one** batched forward through the
    /// prepacked panels and returns their interest vectors as an owned
    /// `[b, k, d]` buffer (row `i` belongs to `histories[i]`).
    ///
    /// Each row is bit-identical to encoding that history alone, whatever
    /// lengths share the call: right-padding is numerically neutral
    /// through attention (masked logits exp-underflow to exactly `+0.0`),
    /// every other op is row-independent, and each row's hypergraph is
    /// built from its own events alone (extra edge slots stay empty). The
    /// serving batcher ([`crate::serve`]) encodes all of a batch's cache
    /// misses in one call, and its replies stay bit-identical to
    /// sequential `recommend_top_n`.
    pub fn encode_interests(&self, histories: &[&Sequence]) -> Vec<f32> {
        if histories.is_empty() {
            return Vec::new();
        }
        let arena = self.rent_arena();
        let out = {
            let (_batch, z) = self.interests_for(histories, &arena);
            z.to_vec()
        };
        self.return_arena(arena);
        out
    }

    /// Ranks the catalog `1..=num_items` for a batch of queries whose
    /// interest vectors are stacked in `z_all` (`queries.len() × k × d`,
    /// e.g. from [`encode_interests`](InferenceModel::encode_interests) or
    /// a per-user cache), with one arena rental for the whole batch.
    ///
    /// Per query this is **bit-identical** to
    /// [`recommend_catalog`](SequentialRecommender::recommend_catalog)
    /// given the same interests (which itself delegates here): the
    /// exhaustive f32 path screens the catalog query by query, the queries
    /// it cannot screen share one gathered pass over the catalog, and
    /// every score accumulates independently per row, so batching changes
    /// nothing. The ANN path probes per query with arena-rented scratch.
    ///
    /// `nprobe_override` narrows the attached probe width for this batch
    /// (the serving latency-budget hook, `MBSSL_ANN_BUDGET_US`); `None`
    /// uses the width from `attach_index`.
    pub fn rank_from_interests(
        &self,
        z_all: &[f32],
        queries: &[CatalogQuery<'_>],
        num_items: usize,
        nprobe_override: Option<usize>,
    ) -> Vec<RankedQuery> {
        let arena = self.rent_arena();
        let out = self.rank_from_interests_in(z_all, queries, num_items, nprobe_override, &arena);
        self.return_arena(arena);
        out
    }

    fn rank_from_interests_in(
        &self,
        z_all: &[f32],
        queries: &[CatalogQuery<'_>],
        num_items: usize,
        nprobe_override: Option<usize>,
        arena: &Arena,
    ) -> Vec<RankedQuery> {
        let (d, k) = (self.dim, self.num_interests);
        assert!(
            num_items <= self.num_items,
            "catalog larger than the compiled item table"
        );
        assert_eq!(z_all.len(), queries.len() * k * d, "interest buffer shape");
        if queries.is_empty() {
            return Vec::new();
        }
        let mut score_sp = telemetry::span("infer.score_catalog");
        let mut tops: Vec<TopN<'_>> = queries.iter().map(|q| TopN::new(q, num_items)).collect();
        let mut used_ann = vec![false; queries.len()];
        match &self.ann {
            // One exhaustive call for the whole batch.
            None => score_sp.add_bytes(self.rank_exhaustive(z_all, &mut tops, num_items, arena)),
            Some(st) => {
                let nprobe = nprobe_override.unwrap_or(st.nprobe).clamp(1, st.index.nlist());
                for (qi, (z, top)) in z_all.chunks_exact(k * d).zip(&mut tops).enumerate() {
                    used_ann[qi] = self.rank_by_probe(st, z, num_items, nprobe, top, arena);
                    if !used_ann[qi] {
                        let top = std::slice::from_mut(top);
                        score_sp.add_bytes(self.rank_exhaustive(z, top, num_items, arena));
                    }
                }
            }
        }
        let recs = tops.into_iter().map(TopN::into_sorted);
        recs.zip(used_ann).map(|(recs, used_ann)| RankedQuery { recs, used_ann }).collect()
    }

    /// Ranks items `1..=num_items` into `tops`, one query per `k × d` block
    /// of `z`, and returns the catalog bytes read. A catalog with a screen
    /// ranks each query through it; the queries the screen cannot take, or
    /// all of them without a screen, share one gathered pass over the
    /// catalog.
    fn rank_exhaustive(
        &self,
        z: &[f32],
        tops: &mut [TopN<'_>],
        num_items: usize,
        arena: &Arena,
    ) -> u64 {
        let kd = self.num_interests * self.dim;
        let acc = arena.alloc_i32(CatalogScreen::acc_len(self.num_interests));
        let ub = arena.alloc(CatalogScreen::BOUNDS_LEN);
        // The refused queries: their indices and their interests, packed.
        let (refused, zr) = (arena.alloc_u32(tops.len()), arena.alloc(z.len()));
        let (mut bytes, mut count) = (0, 0);
        for (qi, (zq, top)) in z.chunks_exact(kd).zip(tops.iter_mut()).enumerate() {
            match self.screen.as_ref().and_then(|s| Some((s, s.prepare(zq, arena)?))) {
                Some((screen, query)) => {
                    let blocks = 0..screen.blocks();
                    bytes += self.screen_blocks(screen, &query, [blocks], top, num_items, acc, ub);
                }
                None => {
                    zr[count * kd..][..kd].copy_from_slice(zq);
                    refused[count] = qi as u32;
                    count += 1;
                }
            }
        }
        if count == 0 {
            return bytes;
        }
        telemetry::counter_add("infer.screen_fallbacks", count as u64);
        let (refused, zr) = (&refused[..count], &zr[..count * kd]);
        let ids = arena.alloc_u32(num_items);
        for (id, v) in ids.iter_mut().zip(1..) {
            *id = v;
        }
        let ids = &*ids;
        bytes + self.gather_scores(zr, &[ids], arena, |qi, j0, s| {
            tops[refused[qi] as usize].offer(j0, s, |j| ids[j])
        })
    }

    /// Screens one query over each block range of `ranges`, scores the
    /// survivors exactly into `top` and counts them in
    /// `infer.screen_survivors`; returns the screen and row bytes read.
    #[allow(clippy::too_many_arguments)]
    fn screen_blocks(
        &self,
        screen: &CatalogScreen,
        query: &ScreenQuery<'_>,
        ranges: impl IntoIterator<Item = Range<usize>>,
        top: &mut TopN<'_>,
        num_items: usize,
        acc: &mut [i32],
        ub: &mut [f32],
    ) -> u64 {
        let (mut read, mut survivors) = (0, 0);
        for blocks in ranges {
            read += screen.scan(query, blocks, acc, ub, |row0, ub| {
                survivors += self.admit_survivors(query, screen.ids(), row0, ub, top, num_items);
            });
        }
        telemetry::counter_add("infer.screen_survivors", survivors);
        read + survivors * (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// One screen block (DESIGN.md §13) from row `row0`: the item
    /// `ids[row0 + j]` is skipped iff its upper bound `ub[j]` lies strictly
    /// below the heap's n-th best exact score, so `TopN::offer` would
    /// reject it anyway (NaN never skips); pad rows (id 0) and ids past
    /// `num_items` are skipped too. Every other item is scored exactly and
    /// offered. Returns how many were scored.
    #[inline]
    fn admit_survivors(
        &self,
        query: &ScreenQuery<'_>,
        ids: &[u32],
        row0: usize,
        ub: &[f32],
        top: &mut TopN<'_>,
        num_items: usize,
    ) -> u64 {
        if ub.iter().fold(true, |below, &u| below & (u < top.floor)) {
            return 0;
        }
        let mut scored = 0;
        for (&v, &u) in ids[row0..].iter().zip(ub) {
            let v = v as usize;
            if u < top.floor || v == 0 || v > num_items {
                continue;
            }
            scored += 1;
            let score = query.exact_score(&self.item_table[v * self.dim..][..self.dim]);
            top.offer(v, &[score], |v| v as ItemId);
        }
        scored
    }

    /// Two-stage route for one query: probe the attached index per
    /// interest and re-rank only the probed lists' items into `top`.
    /// Returns `false`, leaving `top` untouched, if the probe retrieves
    /// fewer than `n` rankable items — an ANN result must never be shorter
    /// than the exhaustive one.
    ///
    /// A screened catalog screens the probed lists' blocks of the
    /// list-ordered screen; a catalog without a screen, or a query the
    /// screen refuses, gathers the items instead.
    fn rank_by_probe(
        &self,
        st: &AnnState,
        z: &[f32],
        num_items: usize,
        nprobe: usize,
        top: &mut TopN<'_>,
        arena: &Arena,
    ) -> bool {
        let k = self.num_interests;
        let mut probe = st.probe_scratch(k, arena);
        let mut probe_sp = telemetry::span("index.probe");
        let count = st.index.probe_lists(z, k, nprobe, &mut probe);
        let lists = &probe.lists[..count];
        // Rankable retrieved items: the probed ids up to `num_items`, less
        // the excluded ones. Only ids in `1..=num_items` can shrink the
        // rankable catalog.
        let list = |c: u32| st.index.list(c as usize);
        let in_range = |c: &u32| list(*c).partition_point(|&id| id as usize <= num_items);
        let mut retrieved: usize = lists.iter().map(in_range).sum();
        let mut excluded = 0;
        for &id in top.exclude.iter().filter(|&&id| (1..=num_items).contains(&(id as usize))) {
            excluded += 1;
            retrieved -= (probe.probed[st.list_of[id as usize] as usize] != 0) as usize;
        }
        probe_sp.add_bytes((retrieved * std::mem::size_of::<ItemId>()) as u64);
        drop(probe_sp);
        if retrieved < top.n.min(num_items - excluded) {
            return false;
        }
        let mut rerank_sp = telemetry::span("index.rerank");
        let screened = self.screen.as_ref().and_then(|s| Some((s, s.prepare(z, arena)?)));
        if screened.is_none() {
            telemetry::counter_add("infer.screen_fallbacks", 1);
        }
        let bytes = match screened {
            Some((screen, query)) => {
                let acc = arena.alloc_i32(CatalogScreen::acc_len(k));
                let ub = arena.alloc(CatalogScreen::BOUNDS_LEN);
                let blocks = |c: &u32| {
                    st.blocks[*c as usize] as usize..st.blocks[*c as usize + 1] as usize
                };
                let ranges = lists.iter().map(blocks);
                self.screen_blocks(screen, &query, ranges, top, num_items, acc, ub)
            }
            None => {
                let cands = arena.alloc_u32(retrieved);
                let items = lists.iter().flat_map(|&c| list(c));
                let exclude = top.exclude;
                let kept = items.filter(|&&id| id as usize <= num_items && !exclude.contains(&id));
                for (slot, &id) in cands.iter_mut().zip(kept) {
                    *slot = id;
                }
                let cands = &*cands;
                self.gather_scores(z, &[cands], arena, |_, j0, s| top.offer(j0, s, |j| cands[j]))
            }
        };
        rerank_sp.add_bytes(bytes);
        true
    }
}

impl SequentialRecommender for InferenceModel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        if histories.is_empty() {
            return Vec::new();
        }
        let c = candidates[0].len();
        if c == 0 {
            return vec![Vec::new(); histories.len()];
        }
        let mut flat = vec![0.0f32; histories.len() * c];
        self.score_batch_into(histories, candidates, &mut flat);
        flat.chunks(c).map(|r| r.to_vec()).collect()
    }

    fn score_batch_into(&self, histories: &[&Sequence], candidates: &[&[ItemId]], out: &mut [f32]) {
        assert_eq!(histories.len(), candidates.len());
        if histories.is_empty() {
            return;
        }
        let c = candidates[0].len();
        assert!(
            candidates.iter().all(|l| l.len() == c),
            "ragged candidate lists"
        );
        assert_eq!(out.len(), histories.len() * c, "output buffer shape");
        if c == 0 {
            return;
        }
        let arena = self.rent_arena();
        {
            let (_batch, z) = self.interests_for(histories, &arena);
            self.gather_scores(z, candidates, &arena, |qi, j, s| {
                out[qi * c + j..][..s.len()].copy_from_slice(s)
            });
        }
        self.return_arena(arena);
    }

    fn recommend_catalog(
        &self,
        history: &Sequence,
        num_items: usize,
        n: usize,
        exclude: &HashSet<ItemId>,
    ) -> Option<Vec<Recommendation>> {
        assert!(n > 0);
        let mut topn_sp = telemetry::span("serve.top_n");
        topn_sp.add_bytes((num_items * std::mem::size_of::<f32>()) as u64);
        let arena = self.rent_arena();
        let recs = {
            let (_batch, z) = self.interests_for(&[history], &arena);
            let query = CatalogQuery { n, exclude };
            self.rank_from_interests_in(z, std::slice::from_ref(&query), num_items, None, &arena)
                .pop()
                .map(|ranked| ranked.recs)
        };
        self.return_arena(arena);
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_allocations_are_disjoint_and_zeroed() {
        let arena = Arena::with_capacity(8);
        let a = arena.alloc(4);
        let b = arena.alloc(4);
        assert!(a.iter().all(|&v| v == 0.0));
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0), "overlapping allocations");
        assert!(b.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn arena_overflow_keeps_slices_stable() {
        let arena = Arena::with_capacity(2);
        let a = arena.alloc(2); // primary
        let b = arena.alloc(16); // overflow box 1
        let c = arena.alloc(32); // overflow box 2 (vec realloc likely)
        a.fill(1.0);
        b.fill(2.0);
        c.fill(3.0);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
        assert!(c.iter().all(|&v| v == 3.0));
        assert_eq!(arena.used(), 50);
    }

    #[test]
    fn arena_reset_consolidates_high_water_mark() {
        let mut arena = Arena::with_capacity(4);
        arena.alloc(4);
        arena.alloc(100);
        assert_eq!(arena.used(), 104);
        arena.reset();
        assert!(arena.capacity() >= 104, "reset did not grow the primary");
        assert_eq!(arena.used(), 0);
        // The same shape now bump-fits without overflow.
        arena.alloc(4);
        arena.alloc(100);
        assert_eq!(arena.used(), 104);
        assert!(arena.capacity() >= arena.used());
    }

    #[test]
    fn arena_zero_len_alloc_is_fine() {
        let arena = Arena::with_capacity(0);
        let a = arena.alloc(0);
        assert!(a.is_empty());
    }

    #[test]
    fn split_merge_heads_roundtrip() {
        let (b, l, heads, dh) = (2usize, 3usize, 2usize, 4usize);
        let d = heads * dh;
        let inp: Vec<f32> = (0..b * l * d).map(|i| i as f32).collect();
        let mut split = vec![0.0f32; b * l * d];
        let mut merged = vec![0.0f32; b * l * d];
        split_heads(&inp, &mut split, b, l, heads, dh);
        merge_heads(&split, &mut merged, b, l, heads, dh);
        assert_eq!(inp, merged);
        // Spot-check the layout: (b=1, h=1, t=2, j=3).
        assert_eq!(
            split[(((1 * heads + 1) * l) + 2) * dh + 3],
            inp[(1 * l + 2) * d + 1 * dh + 3]
        );
    }
}
