//! Self-supervised objectives (§2.4 of DESIGN.md):
//! cross-behavior interest alignment, augmentation-based sequence
//! contrast, and interest disentanglement.

use mbssl_tensor::{no_grad, Tensor};

/// Row-validity-weighted InfoNCE.
///
/// `anchors` and `positives` are `[N, D]`; row `i`'s positive is
/// `positives[i]` and its negatives are every other row of `positives`.
/// `row_valid[i]` is 0 or 1; 0 removes anchor row `i` from the loss, but
/// its column `positives[i]` still serves as a negative for the valid
/// rows (ROADMAP item 7 asks whether it should). Returns the mean over
/// valid rows of `-log softmax(â·p̂ᵀ/τ)[i, i]` (`â`, `p̂` row-normalized),
/// or zero when no row is valid.
///
/// Only the valid anchor rows are scored, and the log-softmax and
/// diagonal pick are one fused cross-entropy node, so the loss builds no
/// `[N, N]` mask and its backward is `softmax − onehot` on the logits.
pub fn info_nce(anchors: &Tensor, positives: &Tensor, temperature: f32, row_valid: &[f32]) -> Tensor {
    let n = anchors.dims()[0];
    assert_eq!(positives.dims()[0], n, "anchor/positive count mismatch");
    assert_eq!(row_valid.len(), n, "row_valid length mismatch");
    assert!(
        row_valid.iter().all(|&v| v == 0.0 || v == 1.0),
        "row_valid must be 0 or 1"
    );
    // Each valid row's target is its own column.
    let rows: Vec<usize> = (0..n).filter(|&i| row_valid[i] != 0.0).collect();
    if rows.is_empty() {
        return Tensor::scalar(0.0);
    }
    let a = anchors.index_select0(&rows).l2_normalize_lastdim(1e-8);
    let p = positives.l2_normalize_lastdim(1e-8);
    a.matmul(&p.transpose_last())
        .into_mul_scalar(1.0 / temperature) // [V, N]
        .cross_entropy_logits(&rows)
}

/// Cross-behavior interest alignment.
///
/// `aux`/`target` are `[B, K, D]` interest sets. Each auxiliary interest is
/// greedily matched (no-grad cosine) to the most similar target interest of
/// the *same user*; matched pairs are positives of an InfoNCE over the
/// flattened `[B*K]` sets. `user_valid[b] == 0` drops user `b`'s rows
/// (e.g. no events of that behavior in the history).
pub fn alignment_loss(
    aux: &Tensor,
    target: &Tensor,
    temperature: f32,
    user_valid: &[f32],
) -> Tensor {
    let (b, k, d) = (aux.dims()[0], aux.dims()[1], aux.dims()[2]);
    assert_eq!(target.dims(), &[b, k, d], "interest set shapes must match");
    assert_eq!(user_valid.len(), b);

    // Greedy matching without gradients.
    let matches: Vec<usize> = no_grad(|| {
        let a = aux.l2_normalize_lastdim(1e-8);
        let t = target.l2_normalize_lastdim(1e-8);
        let sim = a.bmm(&t.transpose_last()); // [B, K, K]
        sim.argmax_axis(-1)
    });

    // Gather matched target interests: flat index u*K + match.
    let target_flat = target.reshape([b * k, d]);
    let gather: Vec<usize> = (0..b * k)
        .map(|i| {
            let u = i / k;
            u * k + matches[i]
        })
        .collect();
    let matched = target_flat.index_select0(&gather); // [B*K, D]
    let aux_flat = aux.reshape([b * k, d]);

    let row_valid: Vec<f32> = (0..b * k).map(|i| user_valid[i / k]).collect();
    info_nce(&aux_flat, &matched, temperature, &row_valid)
}

/// Augmentation-based sequence contrast: symmetric InfoNCE between two
/// views' user representations `[B, D]`.
pub fn augmentation_loss(view1: &Tensor, view2: &Tensor, temperature: f32) -> Tensor {
    let b = view1.dims()[0];
    let valid = vec![1.0f32; b];
    let forward = info_nce(view1, view2, temperature, &valid);
    let backward = info_nce(view2, view1, temperature, &valid);
    forward.add(&backward).mul_scalar(0.5)
}

/// Interest disentanglement: mean squared cosine similarity between
/// distinct interests of the same user — pushing a user's `K` interests
/// toward orthogonality. Returns zero for `K == 1`.
pub fn disentanglement_loss(interests: &Tensor) -> Tensor {
    let (b, k, _) = (
        interests.dims()[0],
        interests.dims()[1],
        interests.dims()[2],
    );
    if k <= 1 {
        return Tensor::scalar(0.0);
    }
    let z = interests.l2_normalize_lastdim(1e-8);
    let sim = z.bmm(&z.transpose_last()); // [B, K, K]
    // Off-diagonal mask.
    let mut off = vec![1.0f32; k * k];
    for i in 0..k {
        off[i * k + i] = 0.0;
    }
    let off_t = Tensor::from_vec(off, [k, k]);
    let pairs = (b * k * (k - 1)) as f32;
    sim.square().mul(&off_t).sum_all().mul_scalar(1.0 / pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[f32], n: usize, d: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), [n, d])
    }

    #[test]
    fn info_nce_low_when_aligned_high_when_permuted() {
        // Orthogonal anchors; positives equal anchors (perfect alignment).
        let anchors = rows(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], 3, 3);
        let aligned = info_nce(&anchors, &anchors, 0.1, &[1.0; 3]).item();
        // Positives shifted by one row (worst case).
        let shifted = rows(&[0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0], 3, 3);
        let misaligned = info_nce(&anchors, &shifted, 0.1, &[1.0; 3]).item();
        assert!(aligned < 0.01, "aligned loss {aligned}");
        assert!(misaligned > 2.0, "misaligned loss {misaligned}");
    }

    #[test]
    fn info_nce_respects_row_validity() {
        let anchors = rows(&[1.0, 0.0, 0.0, 1.0], 2, 2);
        let bad_positives = rows(&[0.0, 1.0, 1.0, 0.0], 2, 2);
        // Both rows misaligned, but masked out → loss 0.
        let loss = info_nce(&anchors, &bad_positives, 0.2, &[0.0, 0.0]).item();
        assert_eq!(loss, 0.0);
        // One valid row contributes.
        let loss = info_nce(&anchors, &bad_positives, 0.2, &[1.0, 0.0]).item();
        assert!(loss > 0.5);
    }

    #[test]
    fn info_nce_gradients_flow_to_anchors() {
        let anchors = rows(&[0.5, 0.2, -0.1, 0.8], 2, 2).requires_grad();
        let positives = rows(&[0.4, 0.3, 0.0, 0.9], 2, 2);
        info_nce(&anchors, &positives, 0.2, &[1.0, 1.0]).backward();
        assert!(anchors.grad().is_some());
    }

    #[test]
    fn alignment_matches_most_similar_interest() {
        // User 0: aux interest 0 ≈ target interest 1 and vice versa.
        let aux = Tensor::from_vec(
            vec![
                1.0, 0.0, // u0 k0
                0.0, 1.0, // u0 k1
            ],
            [1, 2, 2],
        );
        let target = Tensor::from_vec(
            vec![
                0.0, 1.0, // u0 k0
                1.0, 0.0, // u0 k1
            ],
            [1, 2, 2],
        );
        // With the crossed matching, the loss should be low (positives are
        // the truly-similar pairs), far lower than with identity pairing.
        let loss = alignment_loss(&aux, &target, 0.1, &[1.0]).item();
        assert!(loss < 0.5, "crossed matching not found: {loss}");
    }

    #[test]
    fn alignment_invalid_users_contribute_zero() {
        let aux = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [1, 2, 2]);
        let target = Tensor::from_vec(vec![0.3, 0.3, 0.3, 0.3], [1, 2, 2]);
        let loss = alignment_loss(&aux, &target, 0.2, &[0.0]).item();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn augmentation_loss_symmetric_and_low_for_equal_views() {
        let v = rows(&[1.0, 0.0, 0.0, 1.0, 0.5, 0.5], 3, 2);
        let loss = augmentation_loss(&v, &v, 0.1).item();
        assert!(loss < 0.5, "equal views should score low: {loss}");
        let w = rows(&[0.0, 1.0, 1.0, 0.0, 0.5, -0.5], 3, 2);
        let ab = augmentation_loss(&v, &w, 0.1).item();
        let ba = augmentation_loss(&w, &v, 0.1).item();
        assert!((ab - ba).abs() < 1e-5, "not symmetric");
    }

    #[test]
    fn disentanglement_zero_for_orthogonal_high_for_identical() {
        let ortho = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [1, 2, 2]);
        assert!(disentanglement_loss(&ortho).item() < 1e-6);
        let same = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], [1, 2, 2]);
        assert!((disentanglement_loss(&same).item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn disentanglement_single_interest_is_zero() {
        let z = Tensor::from_vec(vec![1.0, 2.0], [1, 1, 2]);
        assert_eq!(disentanglement_loss(&z).item(), 0.0);
    }

    #[test]
    fn disentanglement_gradient_separates_interests() {
        let z = Tensor::from_vec(vec![1.0, 0.1, 1.0, -0.1], [1, 2, 2]).requires_grad();
        disentanglement_loss(&z).backward();
        let g = z.grad().unwrap();
        assert!(g.iter().any(|v| v.abs() > 1e-6));
    }
}
