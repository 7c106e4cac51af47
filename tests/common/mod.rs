//! Catalogs and reply helpers shared by the catalog suites
//! (`catalog_topn`, `catalog_screen`, `ann_screen`).

#![allow(dead_code)] // each suite uses its own subset

use std::collections::HashSet;

use mbssl::core::{BehaviorSchema, Mbmissl, ModelConfig, Recommendation, TrainableRecommender};
use mbssl::data::synthetic::SyntheticConfig;
use mbssl::data::{Dataset, ItemId};
use mbssl::tensor::kernels;

/// A tiny `k`-interest model of width `dim` over the synthetic dataset's
/// catalog, whose item table `edit` rewrites (`edit(table, dim,
/// num_items)`).
pub fn model_with(
    dim: usize,
    k: usize,
    edit: impl Fn(&mut [f32], usize, usize),
) -> (Mbmissl, Dataset) {
    model_over(None, dim, k, edit)
}

/// [`model_with`] over `num_items` items instead of the dataset's catalog,
/// if given; the histories stay the dataset's.
pub fn model_over(
    num_items: Option<usize>,
    dim: usize,
    k: usize,
    edit: impl Fn(&mut [f32], usize, usize),
) -> (Mbmissl, Dataset) {
    let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
    let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
    let config = ModelConfig {
        dim,
        heads: 2,
        num_layers: 1,
        ffn_hidden: 32,
        num_interests: k,
        extractor_hidden: 16,
        max_seq_len: 20,
        ..ModelConfig::default()
    };
    let num_items = num_items.unwrap_or(g.dataset.num_items);
    let model = Mbmissl::new(num_items, schema, config);
    {
        let params = model.named_params();
        let mut table = params
            .get("mbmissl.input.item_emb.weight")
            .expect("item table param")
            .data_mut();
        edit(&mut table, dim, num_items);
    }
    (model, g.dataset)
}

/// The compiled item table of `model`, row-major `(num_items + 1) × dim`.
pub fn item_table(model: &Mbmissl) -> Vec<f32> {
    let params = model.named_params();
    params
        .get("mbmissl.input.item_emb.weight")
        .expect("item table param")
        .to_vec()
}

/// Exact max-over-interest scores of every table row for interests `z`
/// (`k × d`) through the GEMM kernels, strict `>` in interest order.
pub fn exact_scores(table: &[f32], d: usize, z: &[f32]) -> Vec<f32> {
    let (rows, k) = (table.len() / d, z.len() / d);
    let mut t = vec![0.0f32; table.len()];
    kernels::transpose(table, &mut t, rows, d);
    let mut all = vec![0.0f32; k * rows];
    kernels::gemm_nn(z, &t, &mut all, k, d, rows);
    (0..rows)
        .map(|v| {
            let strict_max = |best: f32, s: f32| if s > best { s } else { best };
            (0..k)
                .map(|kk| all[kk * rows + v])
                .fold(f32::NEG_INFINITY, strict_max)
        })
        .collect()
}

/// Near-ties: items come in threes, the second a one-ulp nudge of the
/// first in one coordinate and the third an exact copy of the first.
pub fn near_ties(table: &mut [f32], dim: usize, num_items: usize) {
    for v in (1..=num_items).filter(|v| v % 3 != 1) {
        let src = v - (v - 1) % 3;
        table.copy_within(src * dim..(src + 1) * dim, v * dim);
        if v % 3 == 2 {
            let c = &mut table[v * dim + v % dim];
            *c = c.next_up();
        }
    }
}

/// Near ties with `bad` in item 7's row: a NaN or an entry past the
/// screen's magnitude guard makes a catalog `CatalogScreen::build` refuses.
pub fn unscreenable(bad: f32) -> impl Fn(&mut [f32], usize, usize) {
    move |table, dim, num_items| {
        near_ties(table, dim, num_items);
        table[7 * dim + 2] = bad;
    }
}

/// Row norms spread from 1e-6 to 1e3, every eleventh row all zero.
pub fn spread_norms(table: &mut [f32], dim: usize, num_items: usize) {
    for v in 1..=num_items {
        let factor = if v % 11 == 0 {
            0.0
        } else {
            10f32.powi((v * 7 % 10) as i32 - 6)
        };
        for x in &mut table[v * dim..(v + 1) * dim] {
            *x *= factor;
        }
    }
}

/// Replies as `(item, score bits)`: `-0.0` and `+0.0` differ here.
pub fn bits(recs: &[Recommendation]) -> Vec<(ItemId, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// Items of `1..=num_items` that `exclude` leaves rankable.
pub fn rankable(exclude: &HashSet<ItemId>, num_items: usize) -> usize {
    let excluded = exclude
        .iter()
        .filter(|&&id| (1..=num_items).contains(&(id as usize)));
    num_items - excluded.count()
}
