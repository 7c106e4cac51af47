//! IVF-Flat approximate catalog retrieval (DESIGN.md §14).
//!
//! Exhaustive `recommend_top_n` does O(catalog) work per request; the
//! standard production shape is retrieve-then-rerank. This module holds the
//! retrieval half: an **inverted-file (IVF) index** over the item-embedding
//! table. A k-means clusterer partitions the catalog into `nlist` lists;
//! serving scores each interest vector against the `nlist` centroids,
//! probes the top `nprobe` lists per interest (union across interests —
//! items live in exactly one list, so the union never duplicates), and
//! hands the probed lists to the inference engine's re-ranker. An engine
//! with an exact i8 screen keeps it in list order and screens only the
//! probed lists' blocks; a catalog or a query the screen cannot take
//! gathers the lists' items and scores them like
//! [`crate::infer::InferenceModel::score_candidates`].
//!
//! - **Build** is deterministic for a given `(table, nlist, seed)` at any
//!   worker-pool size and SIMD setting. Lloyd iterations assign each item
//!   to `argmax_c fl(fl(e·c) − ½‖c‖²)`, strict `>` so ties go to the
//!   lowest id, in parallel pool chunks; the centroid update is a
//!   sequential pass. With the AVX-512 VNNI screen kernels on and a finite
//!   table, a pass runs the exact i8 screen (`crate::screen`) over its
//!   centroids: every item's codes (quantized once per build) give an
//!   upper bound `UB_c` on each exact dot, the centroid with the highest
//!   gap `fl(UB_c − ½‖c‖²)` is scored exactly to set a floor, and only
//!   centroids whose gap reaches the floor are scored exactly. Rounding is
//!   monotone, so a pruned centroid scores below the floor and the
//!   assignment equals the exhaustive one bit for bit. Otherwise, or when
//!   the screen refuses the centroids, a pass runs one GEMM per chunk
//!   against the packed transposed centroids. Runs under an
//!   `index.build` span with `index.iterations`, `index.assign_exact` and
//!   `index.assign_fallbacks` counters ([`BuildStats`]).
//! - **Serialization** is a [`mbssl_data::container`] file (`mbssl index
//!   build` writes `<ckpt>.ivf` by default), loadable without
//!   retraining and published atomically (temp file, sync, rename).
//!   Corrupt, truncated, or version-mismatched files fail with a clear
//!   [`AnnError`]; consumers degrade to exhaustive scoring (warn-and-
//!   degrade, like the run ledger's IO handling).
//! - **Gating**: an engine probes exactly when an index is attached
//!   ([`crate::infer::InferenceModel::attach_index`]); without one it
//!   ranks the catalog exhaustively. The CLI attaches the file its
//!   `--index` flag names and no other. `index build --nlist` sets the
//!   list count and `attach_index_with` the probe width; otherwise
//!   [`default_nlist`] and [`default_nprobe`] apply.
//!
//! Retrieval is approximate: recall@10 of the ANN path against the
//! exhaustive top-10 is the pinned metric (`tests/ann.rs` gates it at the
//! default `nlist`/`nprobe`). Re-ranked scores themselves are **bit-exact**
//! — the re-ranker reuses the exhaustive per-item arithmetic — so the ANN
//! result is always the exhaustive ranking restricted to the retrieved
//! candidate set, with identical tie-breaking.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use mbssl_data::container::{self, as_bytes, corrupt, Container, FormatError, Source, Spec};
use mbssl_data::ItemId;
use mbssl_telemetry as telemetry;
use mbssl_tensor::kernels::PackedB;
use mbssl_tensor::simd::{self, SCREEN_LANES};
use mbssl_tensor::{kernels, pool};

use crate::screen::{CatalogScreen, InterestCodes};

/// The index file format: its geometry (`dim`, k-means seed), the
/// `nlist × dim` f32 centroids, the list lengths and the item ids list by
/// list. `nlist` and `num_items` are the lengths of the last two.
const SPEC: Spec = Spec {
    magic: b"MBSSLIVF",
    version: 2,
    widths: &[8, 4, 8, 4],
};
const GEOMETRY: usize = 0;
const CENTROIDS: usize = 1;
const LIST_LENS: usize = 2;
const IDS: usize = 3;
/// Lloyd-iteration budget; assignment usually stabilizes much earlier and
/// the loop stops at the first unchanged pass.
const KMEANS_ITERS: usize = 12;
/// Items assigned per parallel chunk of the k-means assignment pass.
const ASSIGN_CHUNK: usize = 512;
/// Items a screened assignment pass runs through the screen at once: four
/// independent `vpdpbusd` chains per centroid block.
const SCREEN_ITEMS: usize = 4;

/// Default number of inverted lists for a catalog of `num_items`:
/// `4 * sqrt(num_items)` (finer-grained than the classic `sqrt(N)` so each
/// probe retrieves a tighter neighborhood), clamped so every list can hold
/// at least a couple of items.
pub fn default_nlist(num_items: usize) -> usize {
    let nlist = (4.0 * (num_items as f64).sqrt()).round() as usize;
    nlist.clamp(1, (num_items / 2).max(1))
}

/// Default number of lists probed per interest vector: `nlist / 16` (≈6%
/// of the lists per interest; the union across interests widens actual
/// coverage), at least 1.
pub fn default_nprobe(nlist: usize) -> usize {
    (nlist / 16).clamp(1, nlist)
}

/// Errors arising from index IO or attaching an index to a model it was
/// not built for.
#[derive(Debug)]
pub enum AnnError {
    /// The index file could not be read or written, or was rejected
    /// (truncation, bad counts, out-of-range ids, trailing bytes).
    Format(FormatError),
    /// Index geometry disagrees with the model it is being attached to.
    Mismatch {
        /// What the model expects, e.g. `dim 32, 2400 items`.
        expected: String,
        /// What the index header declares.
        found: String,
    },
}

impl std::fmt::Display for AnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnError::Format(e) => write!(f, "IVF index: {e}"),
            AnnError::Mismatch { expected, found } => {
                write!(f, "index/model mismatch: model has {expected}, index has {found}")
            }
        }
    }
}

impl std::error::Error for AnnError {}

impl From<FormatError> for AnnError {
    fn from(e: FormatError) -> Self {
        AnnError::Format(e)
    }
}

impl From<std::io::Error> for AnnError {
    fn from(e: std::io::Error) -> Self {
        AnnError::Format(e.into())
    }
}

/// Distribution statistics over the inverted lists, for `mbssl index stats`
/// and build-time logging.
#[derive(Clone, Copy, Debug)]
pub struct IndexStats {
    /// Number of inverted lists (== `nlist`).
    pub lists: usize,
    /// Lists holding zero items (harmless: probing them retrieves nothing).
    pub empty_lists: usize,
    /// Smallest list size.
    pub min_len: usize,
    /// Mean list size over non-empty lists.
    pub mean_len: f64,
    /// Largest list size.
    pub max_len: usize,
    /// `max_len / mean_len`: 1.0 is perfectly balanced; large values mean
    /// a hot list dominates probe cost.
    pub imbalance: f64,
    /// Serialized size in bytes (container header + centroids + lists).
    pub bytes: usize,
}

/// Caller scratch for [`IvfIndex::probe_lists`]; what the slices hold on
/// entry does not matter.
pub struct ProbeScratch<'a> {
    /// At least `k · nlist` centroid scores.
    pub scores: &'a mut [f32],
    /// At least [`PackedB::SCRATCH_LEN`] GEMM scratch.
    pub gemm: &'a mut [f32],
    /// At least `nlist` words: one interest's list ranks.
    pub order: &'a mut [u32],
    /// At least `nlist` words: which lists are probed.
    pub probed: &'a mut [u32],
    /// At least `nlist` words: the probed list ids.
    pub lists: &'a mut [u32],
}

/// An IVF-Flat index over an item-embedding table.
///
/// Covers items `1..=num_items` of a `(num_items + 1) × dim` table whose
/// row 0 is padding (the layout of the model's item table). Every item
/// belongs to exactly one inverted list; ids within a list are ascending.
pub struct IvfIndex {
    dim: usize,
    num_items: usize,
    seed: u64,
    /// `[nlist, dim]` row-major centroids.
    centroids: Vec<f32>,
    /// Centroidsᵀ prepacked for the per-request probe GEMM. Rebuilt from
    /// `centroids` on build/load; never serialized.
    packed_centroids: PackedB,
    lists: Vec<Vec<ItemId>>,
    /// Counts of the build; never serialized.
    build_stats: BuildStats,
}

/// What one [`IvfIndex::build`] did, also added to the `index.iterations`,
/// `index.assign_exact` and `index.assign_fallbacks` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Lloyd passes run, the last one the first with an unchanged
    /// assignment (or the budget's last).
    pub iterations: usize,
    /// Exact f32 item–centroid scores computed over all passes: items ×
    /// `nlist` for a GEMM pass, the screen's survivors for a screened one.
    pub assign_exact: u64,
    /// Items a screened pass scanned exactly because the screen refused
    /// their codes.
    pub assign_fallbacks: u64,
}

/// Centroidsᵀ prepacked for the probe GEMM.
fn pack_transposed(centroids: &[f32], nlist: usize, dim: usize) -> PackedB {
    let mut centroids_t = vec![0.0f32; nlist * dim];
    kernels::transpose(centroids, &mut centroids_t, nlist, dim);
    PackedB::pack(&centroids_t, dim, nlist)
}

/// Every item's i8 codes for the screened assignment pass, quantized once
/// per build: `groups` code words per item, item-major, and per item the
/// catalog-free terms of its slack.
struct ItemCodes {
    words: Vec<i32>,
    codes: Vec<InterestCodes>,
    groups: usize,
}

impl ItemCodes {
    fn quantize(items: &[f32], dim: usize) -> ItemCodes {
        let groups = dim.div_ceil(4);
        let mut words = vec![0i32; items.len() / dim * groups];
        let codes = items
            .chunks_exact(dim)
            .zip(words.chunks_exact_mut(groups))
            .map(|(item, words)| InterestCodes::quantize(item, words))
            .collect();
        ItemCodes {
            words,
            codes,
            groups,
        }
    }
}

/// The first centroid of the strict-`>` max score from `-inf` (ties go
/// to the lowest id), centroid 0 if no score exceeds `-inf`.
fn first_max(scores: impl Iterator<Item = (usize, f32)>) -> u32 {
    let first = |best: (usize, f32), (c, v): (usize, f32)| if v > best.1 { (c, v) } else { best };
    scores.fold((0, f32::NEG_INFINITY), first).0 as u32
}

/// The inputs of one Lloyd assignment pass.
struct Pass<'a> {
    items: &'a [f32],
    dim: usize,
    centroids: &'a [f32],
    /// `fl(½‖c‖²)` per centroid, padded to whole screen blocks.
    half_sq: &'a [f32],
}

impl Pass<'_> {
    fn nlist(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Item `i`'s exact score against centroid `c`: `fl(fl(e·c) − ½‖c‖²)`,
    /// the dot summed from +0.0 in ascending dim, each term a separate mul
    /// then add. With finite centroids that is bit for bit the element of
    /// the assignment GEMM, whose skip of zero item entries only drops
    /// ±0.0 terms, which a sum from +0.0 absorbs.
    #[inline]
    fn score(&self, i: usize, c: usize) -> f32 {
        let item = &self.items[i * self.dim..][..self.dim];
        let centroid = &self.centroids[c * self.dim..][..self.dim];
        let terms = item.iter().zip(centroid);
        let dot = terms.fold(0.0f32, |s, (&e, &v)| s + e * v);
        dot - self.half_sq[c]
    }

    /// Item `i`'s centroid, every centroid scored exactly.
    fn argmax_all(&self, i: usize) -> u32 {
        first_max((0..self.nlist()).map(|c| (c, self.score(i, c))))
    }

    /// The GEMM pass: per pool chunk one GEMM of its items against the
    /// packed transposed centroids, then the argmax per item. Returns
    /// `(exact scores, 0)`.
    fn assign_gemm(&self, assign: &mut [u32]) -> (u64, u64) {
        let (dim, nlist) = (self.dim, self.nlist());
        let mut centroids_t = vec![0.0f32; nlist * dim];
        kernels::transpose(self.centroids, &mut centroids_t, nlist, dim);
        let packed = PackedB::pack(&centroids_t, dim, nlist);
        pool::parallel_chunks_mut(assign, ASSIGN_CHUNK, |ci, window| {
            let start = ci * ASSIGN_CHUNK;
            let m = window.len();
            let mut dots = vec![0.0f32; m * nlist];
            let mut scratch = vec![0.0f32; PackedB::SCRATCH_LEN];
            kernels::gemm_nn_prepacked_scratch(
                &self.items[start * dim..(start + m) * dim],
                &packed,
                &mut dots,
                m,
                &mut scratch,
            );
            for (slot, row) in window.iter_mut().zip(dots.chunks_exact(nlist)) {
                let scores = row.iter().zip(self.half_sq).map(|(&d, &h)| d - h);
                *slot = first_max(scores.enumerate());
            }
        });
        ((assign.len() * nlist) as u64, 0)
    }

    /// The screened pass (DESIGN.md §14): the i8 screen of the centroids
    /// bounds every item's exact scores, the centroid of the best bounded
    /// gap sets a floor, and only the centroids whose gap reaches it are
    /// scored exactly. Items go through the screen four at a time. Returns
    /// `(exact scores, items scanned without the screen)`.
    fn assign_screened(
        &self,
        screen: &CatalogScreen,
        codes: &ItemCodes,
        assign: &mut [u32],
    ) -> (u64, u64) {
        let nlist = self.nlist();
        let lanes = nlist.next_multiple_of(SCREEN_LANES);
        let groups = codes.groups;
        let (exact, fallbacks) = (AtomicU64::new(0), AtomicU64::new(0));
        pool::parallel_chunks_mut(assign, ASSIGN_CHUNK, |ci, window| {
            let mut acc = vec![0i32; SCREEN_ITEMS * lanes];
            let mut gaps = vec![0.0f32; lanes];
            let mut mask = vec![0u16; lanes / SCREEN_LANES];
            let (mut scored, mut refused) = (0u64, 0u64);
            for (g, slots) in window.chunks_mut(SCREEN_ITEMS).enumerate() {
                let (i0, k) = (ci * ASSIGN_CHUNK + g * SCREEN_ITEMS, slots.len());
                screen.dots(&codes.words[i0 * groups..(i0 + k) * groups], k, &mut acc);
                for (kk, slot) in slots.iter_mut().enumerate() {
                    let (i, item) = (i0 + kk, codes.codes[i0 + kk]);
                    let Some(slack) = screen.slack(&item) else {
                        refused += 1;
                        scored += nlist as u64;
                        *slot = self.argmax_all(i);
                        continue;
                    };
                    let (floor_c, floor) = simd::screen_prune(
                        &acc,
                        k,
                        kk,
                        (item.offset, item.scale, slack),
                        screen.scales(),
                        self.half_sq,
                        nlist,
                        &mut gaps,
                        |c| self.score(i, c),
                        &mut mask,
                    );
                    // A pruned centroid's gap is below the floor, so its
                    // score is too and it cannot be the first max; the
                    // survivors go in ascending id order.
                    scored += 1;
                    let survivors = mask.iter().enumerate().flat_map(|(b, &bits)| {
                        let next = |&m: &u16| Some(m & m.wrapping_sub(1));
                        let set = std::iter::successors(Some(bits), next).take_while(|&m| m != 0);
                        set.map(move |m| b * SCREEN_LANES + m.trailing_zeros() as usize)
                    });
                    *slot = first_max(survivors.map(|c| {
                        if c == floor_c {
                            return (c, floor);
                        }
                        scored += 1;
                        (c, self.score(i, c))
                    }));
                }
            }
            exact.fetch_add(scored, Ordering::Relaxed);
            fallbacks.fetch_add(refused, Ordering::Relaxed);
        });
        (exact.into_inner(), fallbacks.into_inner())
    }
}

impl std::fmt::Debug for IvfIndex {
    /// Compact summary (the centroid/list payloads would swamp any log).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvfIndex")
            .field("dim", &self.dim)
            .field("num_items", &self.num_items)
            .field("nlist", &self.lists.len())
            .field("seed", &self.seed)
            .finish()
    }
}

impl IvfIndex {
    /// Clusters `item_table` (`(num_items + 1) × dim`, row 0 = padding)
    /// into `nlist` lists with seeded Lloyd k-means. Deterministic for a
    /// given `(table, nlist, seed)` at any `MBSSL_THREADS`; runs under an
    /// `index.build` telemetry span.
    pub fn build(item_table: &[f32], num_items: usize, dim: usize, nlist: usize, seed: u64) -> IvfIndex {
        assert!(num_items >= 1, "cannot index an empty catalog");
        assert_eq!(item_table.len(), (num_items + 1) * dim, "item table shape");
        let nlist = nlist.clamp(1, num_items);
        let mut build_sp = telemetry::span("index.build");
        build_sp.add_bytes((item_table.len() * std::mem::size_of::<f32>()) as u64);

        // Items only (drop the padding row): rows 1..=num_items.
        let items = &item_table[dim..];

        // Seeded init: nlist distinct item rows chosen by splitmix64 draws.
        let mut centroids = vec![0.0f32; nlist * dim];
        {
            let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut taken = vec![false; num_items];
            for c in 0..nlist {
                let mut idx = (next() % num_items as u64) as usize;
                while taken[idx] {
                    idx = (idx + 1) % num_items;
                }
                taken[idx] = true;
                centroids[c * dim..][..dim].copy_from_slice(&items[idx * dim..][..dim]);
            }
        }

        // The screened pass needs the i8 screen's kernels and a finite
        // table; item codes never change, so they are quantized once.
        let codes = (simd::vnni_active() && items.iter().all(|v| v.is_finite()))
            .then(|| ItemCodes::quantize(items, dim));
        let mut assign = vec![0u32; num_items];
        let mut next_assign = vec![0u32; num_items];
        // ½‖c‖², padded to whole screen blocks for `simd::screen_prune`.
        let mut half_sq = vec![0.0f32; nlist.next_multiple_of(SCREEN_LANES)];
        let mut stats = BuildStats::default();
        for _ in 0..KMEANS_ITERS {
            // Assignment: nearest centroid by L2, computed as
            // argmax(dot(e, c) - ||c||²/2) since ||e||² is constant per
            // item; strict > keeps the lowest centroid id on ties.
            kernels::row_sq_norms(&centroids, dim, &mut half_sq[..nlist]);
            for h in half_sq.iter_mut() {
                *h *= 0.5;
            }
            let screen = codes
                .as_ref()
                .and_then(|codes| Some((codes, CatalogScreen::build(&centroids, dim)?)));
            let pass = Pass {
                items,
                dim,
                centroids: &centroids,
                half_sq: &half_sq,
            };
            let (exact, fallbacks) = match screen {
                Some((codes, screen)) => pass.assign_screened(&screen, codes, &mut next_assign),
                None => pass.assign_gemm(&mut next_assign),
            };
            stats.iterations += 1;
            stats.assign_exact += exact;
            stats.assign_fallbacks += fallbacks;
            let changed = assign != next_assign;
            std::mem::swap(&mut assign, &mut next_assign);
            if !changed {
                break;
            }
            // Update: mean of members; an empty cluster keeps its previous
            // centroid (stable, deterministic).
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for (i, &c) in assign.iter().enumerate() {
                counts[c as usize] += 1;
                let row = &items[i * dim..][..dim];
                let sum = &mut sums[c as usize * dim..][..dim];
                for (s, &v) in sum.iter_mut().zip(row.iter()) {
                    *s += v as f64;
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                for j in 0..dim {
                    centroids[c * dim + j] = (sums[c * dim + j] * inv) as f32;
                }
            }
        }
        telemetry::counter_add("index.iterations", stats.iterations as u64);
        telemetry::counter_add("index.assign_exact", stats.assign_exact);
        telemetry::counter_add("index.assign_fallbacks", stats.assign_fallbacks);

        let mut lists: Vec<Vec<ItemId>> = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            // Ascending ids per list by construction.
            lists[c as usize].push((i + 1) as ItemId);
        }
        IvfIndex {
            dim,
            num_items,
            seed,
            packed_centroids: pack_transposed(&centroids, nlist, dim),
            centroids,
            lists,
            build_stats: stats,
        }
    }

    /// What [`build`](IvfIndex::build) did; all zero for a loaded index.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Embedding dimension the index was built over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Catalog size the index covers (items `1..=num_items`).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// The k-means seed the index was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// List-size distribution and serialized footprint.
    pub fn stats(&self) -> IndexStats {
        let lens: Vec<usize> = self.lists.iter().map(|l| l.len()).collect();
        let non_empty = lens.iter().filter(|&&l| l > 0).count().max(1);
        let mean = self.num_items as f64 / non_empty as f64;
        let max = lens.iter().copied().max().unwrap_or(0);
        IndexStats {
            lists: self.lists.len(),
            empty_lists: lens.iter().filter(|&&l| l == 0).count(),
            min_len: lens.iter().copied().min().unwrap_or(0),
            mean_len: mean,
            max_len: max,
            imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            bytes: container::encoded_len(&[
                2 * 8,
                self.centroids.len() as u64 * 4,
                self.lists.len() as u64 * 8,
                self.num_items as u64 * 4,
            ]) as usize,
        }
    }

    /// The `nlist × dim` row-major centroids.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The ids of list `c`, ascending.
    pub fn list(&self, c: usize) -> &[ItemId] {
        &self.lists[c]
    }

    /// Scores `interests` (`k × dim` row-major) against the centroids,
    /// probes the top `nprobe` lists per interest (centroid-score ties
    /// break toward the lower list id), and appends the union of their
    /// items to `out`. Each item is emitted at most once (lists are
    /// disjoint and re-probes are skipped), ascending within a list.
    ///
    /// Allocates its buffers per call; the inference engine probes through
    /// [`probe_lists`](IvfIndex::probe_lists) with arena-rented scratch.
    pub fn probe_into(&self, interests: &[f32], k: usize, nprobe: usize, out: &mut Vec<ItemId>) {
        let nlist = self.lists.len();
        let mut scores = vec![0.0f32; k * nlist];
        let mut gemm = vec![0.0f32; PackedB::SCRATCH_LEN];
        let mut words = vec![0u32; 3 * nlist];
        let (order, rest) = words.split_at_mut(nlist);
        let (probed, lists) = rest.split_at_mut(nlist);
        let mut probe = ProbeScratch { scores: &mut scores, gemm: &mut gemm, order, probed, lists };
        let count = self.probe_lists(interests, k, nprobe, &mut probe);
        for &c in &probe.lists[..count] {
            out.extend_from_slice(&self.lists[c as usize]);
        }
    }

    /// The list-level probe behind [`probe_into`](IvfIndex::probe_into):
    /// writes the probed list ids to the start of `scratch.lists` in
    /// `probe_into`'s emission order (interest by interest, ascending list
    /// id within one interest's kept set, each list once) and returns how
    /// many there are. On return `scratch.probed[c]` is nonzero exactly
    /// for the probed lists. Allocates nothing.
    pub fn probe_lists(
        &self,
        interests: &[f32],
        k: usize,
        nprobe: usize,
        scratch: &mut ProbeScratch<'_>,
    ) -> usize {
        assert_eq!(interests.len(), k * self.dim, "interest matrix shape");
        let nlist = self.lists.len();
        let ProbeScratch { scores, gemm, order, probed, lists } = scratch;
        assert!(scores.len() >= k * nlist, "centroid score buffer too small");
        let nprobe = nprobe.clamp(1, nlist);
        // One GEMM scores every interest against every centroid via the
        // prepacked transpose (panels packed once at build/load, shared by
        // every request); selection then runs over plain f32 rows.
        let scores = &mut scores[..k * nlist];
        scores.fill(0.0);
        kernels::gemm_nn_prepacked_scratch(interests, &self.packed_centroids, scores, k, gemm);
        // One total order, score descending (`f32::total_cmp`) then list id
        // ascending, makes the kept set and its emission order
        // deterministic. `rank` maps a score to a u32 that ascends as the
        // score descends.
        let rank = |score: f32| {
            let bits = score.to_bits();
            !(if bits >> 31 == 1 { !bits } else { bits | 1 << 31 })
        };
        let (order, probed) = (&mut order[..nlist], &mut probed[..nlist]);
        probed.fill(0);
        let mut count = 0;
        for row in scores.chunks_exact(nlist) {
            // The kept lists are those ranked before the `nprobe`-th rank
            // `cut`, then the lowest ids among those ranked at `cut`.
            let (cut, mut ties) = if nprobe < nlist {
                for (slot, &score) in order.iter_mut().zip(row) {
                    *slot = rank(score);
                }
                let (ahead, &mut cut, _) = order.select_nth_unstable(nprobe - 1);
                (cut, nprobe - ahead.iter().filter(|&&r| r < cut).count())
            } else {
                (u32::MAX, nlist)
            };
            for (c, &score) in row.iter().enumerate() {
                let r = rank(score);
                let tie = r == cut && ties > 0;
                ties -= tie as usize;
                if (r < cut || tie) && probed[c] == 0 {
                    probed[c] = 1;
                    lists[count] = c as u32;
                    count += 1;
                }
            }
        }
        count
    }

    /// Serializes the index to `writer` as a container file.
    pub fn save<W: Write>(&self, writer: &mut W) -> Result<(), AnnError> {
        self.encode(|sections| container::write(writer, &SPEC, sections))
    }

    /// Saves to a file path (conventionally `<checkpoint>.ivf`)
    /// atomically ([`container::write_atomic`]): a reader never sees a
    /// partial index, and on error an earlier file at `path` is left as it
    /// was.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), AnnError> {
        self.encode(|sections| container::publish(path.as_ref(), &SPEC, sections))
    }

    fn encode(
        &self,
        put: impl FnOnce(&[Source]) -> Result<u64, FormatError>,
    ) -> Result<(), AnnError> {
        let lens: Vec<u64> = self.lists.iter().map(|l| l.len() as u64).collect();
        let ids = self.lists.concat();
        put(&[
            Source::Bytes(as_bytes(&[self.dim as u64, self.seed])),
            Source::Bytes(as_bytes(&self.centroids)),
            Source::Bytes(as_bytes(&lens)),
            Source::Bytes(as_bytes(&ids)),
        ])?;
        Ok(())
    }

    /// Reads an index back from a byte stream; see
    /// [`load_from_file`](IvfIndex::load_from_file).
    pub fn load<R: Read>(reader: &mut R) -> Result<IvfIndex, AnnError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::decode(&Container::from_bytes(&bytes, &SPEC)?)
    }

    /// Loads from a file path, validating the geometry's plausibility, id
    /// ranges and the every-item-exactly-once invariant (the container
    /// checks the rest).
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<IvfIndex, AnnError> {
        Self::decode(&Container::open(path.as_ref(), &SPEC)?)
    }

    fn decode(file: &Container) -> Result<IvfIndex, AnnError> {
        let [dim, seed] = file.fixed::<u64, 2>(GEOMETRY)?;
        let (lens, ids) = (file.view::<u64>(LIST_LENS), file.view::<ItemId>(IDS));
        let (nlist, num_items) = (lens.len(), ids.len());
        if dim == 0 || dim > 1 << 20 {
            return Err(corrupt(format!("implausible dim {dim}")).into());
        }
        let dim = dim as usize;
        if num_items == 0 || num_items > 1 << 31 {
            return Err(corrupt(format!("implausible num_items {num_items}")).into());
        }
        if nlist == 0 || nlist > num_items {
            return Err(corrupt(format!("nlist {nlist} out of range for {num_items} items")).into());
        }
        let centroids = file.view::<f32>(CENTROIDS);
        if centroids.len() != nlist * dim {
            return Err(corrupt(format!(
                "{} centroid values, expected {nlist} × {dim}",
                centroids.len()
            ))
            .into());
        }
        let mut lists = Vec::with_capacity(nlist);
        let mut seen = vec![false; num_items + 1];
        let mut rest = ids;
        for (c, &len) in lens.iter().enumerate() {
            if len > rest.len() as u64 {
                return Err(corrupt(format!("lists hold more than {num_items} items")).into());
            }
            let (list, tail) = rest.split_at(len as usize);
            rest = tail;
            for &id in list {
                if id == 0 || id as usize > num_items {
                    return Err(corrupt(format!("list {c} holds out-of-range item {id}")).into());
                }
                if std::mem::replace(&mut seen[id as usize], true) {
                    return Err(corrupt(format!("item {id} appears in more than one list")).into());
                }
            }
            lists.push(list.to_vec());
        }
        if !rest.is_empty() {
            return Err(corrupt(format!(
                "lists hold {} items, expected {num_items}",
                num_items - rest.len()
            ))
            .into());
        }
        Ok(IvfIndex {
            dim,
            num_items,
            seed,
            packed_centroids: pack_transposed(centroids, nlist, dim),
            centroids: centroids.to_vec(),
            lists,
            build_stats: BuildStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table(num_items: usize, dim: usize) -> Vec<f32> {
        // Deterministic, mildly clustered: 4 blobs on the axes.
        let mut t = vec![0.0f32; (num_items + 1) * dim];
        for i in 1..=num_items {
            let blob = i % 4;
            for j in 0..dim {
                let base = if j % 4 == blob { 1.0 } else { 0.0 };
                t[i * dim + j] = base + ((i * 31 + j * 7) % 13) as f32 * 0.01;
            }
        }
        t
    }

    #[test]
    fn every_item_lands_in_exactly_one_list() {
        let (n, d) = (100usize, 8usize);
        let idx = IvfIndex::build(&toy_table(n, d), n, d, 8, 7);
        let mut seen = vec![false; n + 1];
        for list in &idx.lists {
            for w in list.windows(2) {
                assert!(w[0] < w[1], "list ids not ascending");
            }
            for &id in list {
                assert!(!seen[id as usize], "item {id} in two lists");
                seen[id as usize] = true;
            }
        }
        assert!(seen[1..].iter().all(|&s| s), "an item is missing");
    }

    #[test]
    fn full_probe_retrieves_everything() {
        let (n, d) = (64usize, 8usize);
        let idx = IvfIndex::build(&toy_table(n, d), n, d, 6, 3);
        let z = vec![0.5f32; d];
        let mut out = Vec::new();
        idx.probe_into(&z, 1, idx.nlist(), &mut out);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn multi_interest_probe_never_duplicates() {
        let (n, d) = (80usize, 8usize);
        let idx = IvfIndex::build(&toy_table(n, d), n, d, 10, 3);
        // Two very different interests probing overlapping lists.
        let mut z = vec![0.0f32; 2 * d];
        z[0] = 1.0;
        z[d + 1] = 1.0;
        let mut out = Vec::new();
        idx.probe_into(&z, 2, idx.nlist(), &mut out);
        let mut ids = out.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len(), "probe emitted duplicates");
    }

    /// A comparator reference for the probe: a full sort of the list ids,
    /// score descending by `total_cmp`, then list id ascending.
    fn reference_probe(idx: &IvfIndex, z: &[f32], k: usize, nprobe: usize) -> Vec<ItemId> {
        let nlist = idx.nlist();
        let mut scores = vec![0.0f32; k * nlist];
        let mut scratch = vec![0.0f32; PackedB::SCRATCH_LEN];
        kernels::gemm_nn_prepacked_scratch(z, &idx.packed_centroids, &mut scores, k, &mut scratch);
        let nprobe = nprobe.clamp(1, nlist);
        let mut probed = vec![false; nlist];
        let mut out = Vec::new();
        for row in scores.chunks_exact(nlist) {
            let mut order: Vec<u32> = (0..nlist as u32).collect();
            order.sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b)));
            let mut kept = order[..nprobe].to_vec();
            kept.sort_unstable();
            for c in kept {
                if !std::mem::replace(&mut probed[c as usize], true) {
                    out.extend_from_slice(&idx.lists[c as usize]);
                }
            }
        }
        out
    }

    #[test]
    fn probe_selects_like_the_comparator_reference() {
        let (n, d, k) = (240usize, 8usize, 3usize);
        // Every item twice, so some centroids coincide and their scores tie.
        let mut table = toy_table(n, d);
        for i in n / 2 + 1..=n {
            table.copy_within((i - n / 2) * d..(i - n / 2 + 1) * d, i * d);
        }
        let idx = IvfIndex::build(&table, n, d, 30, 11);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let mut cases: Vec<Vec<f32>> =
            (0..40).map(|_| (0..k * d).map(|_| draw()).collect()).collect();
        cases.push(vec![0.0; k * d]);
        cases.push((0..k * d).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }).collect());
        let mut nan = cases[0].clone();
        nan[d + 1] = f32::NAN;
        cases.push(nan);
        let mut inf = cases[1].clone();
        inf[2] = f32::NEG_INFINITY;
        cases.push(inf);
        for (ci, z) in cases.iter().enumerate() {
            for nprobe in [1, 2, 7, 29, 30, 45] {
                let mut got = Vec::new();
                idx.probe_into(z, k, nprobe, &mut got);
                assert_eq!(got, reference_probe(&idx, z, k, nprobe), "case {ci} nprobe {nprobe}");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (n, d) = (120usize, 8usize);
        let t = toy_table(n, d);
        let a = IvfIndex::build(&t, n, d, 12, 5);
        let b = IvfIndex::build(&t, n, d, 12, 5);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.lists, b.lists);
    }

    #[test]
    fn save_to_file_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("mbssl_ivf_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt.ivf");
        let (n, d) = (60usize, 4usize);
        let old = IvfIndex::build(&toy_table(n, d), n, d, 5, 3);
        let new = IvfIndex::build(&toy_table(n, d), n, d, 7, 4);
        old.save_to_file(&path).unwrap();
        new.save_to_file(&path).unwrap();
        let entries = || -> Vec<_> {
            let dir = std::fs::read_dir(&dir).unwrap();
            dir.map(|e| e.unwrap().file_name()).collect()
        };
        assert_eq!(entries(), ["m.ckpt.ivf"], "a temp file is left");
        let loaded = IvfIndex::load_from_file(&path).unwrap();
        assert_eq!((loaded.nlist(), loaded.seed()), (7, 4));
        assert_eq!(loaded.lists, new.lists);

        // A failed save (the target is a directory) leaves no temp file
        // and no other change.
        let blocked = dir.join("blocked.ivf");
        std::fs::create_dir(&blocked).unwrap();
        assert!(new.save_to_file(&blocked).is_err());
        assert!(blocked.is_dir());
        let mut names = entries();
        names.sort();
        assert_eq!(names, ["blocked.ivf", "m.ckpt.ivf"]);
        assert_eq!(IvfIndex::load_from_file(&path).unwrap().lists, new.lists);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_preserves_index() {
        let (n, d) = (60usize, 4usize);
        let idx = IvfIndex::build(&toy_table(n, d), n, d, 5, 3);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let loaded = IvfIndex::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.dim(), d);
        assert_eq!(loaded.num_items(), n);
        assert_eq!(loaded.seed(), 3);
        assert_eq!(loaded.centroids, idx.centroids);
        assert_eq!(loaded.lists, idx.lists);
    }
}
