//! Loss functions with fused, numerically stable backward passes.

use crate::alloc;
use crate::kernels;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Mean cross-entropy between row logits `[N, C]` and integer targets.
    ///
    /// Fuses log-softmax + NLL: the backward is the textbook
    /// `(softmax(x) - onehot) / N`, avoiding any large intermediate graph.
    pub fn cross_entropy_logits(&self, targets: &[usize]) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "logits must be [N, C]");
        let n = self.shape().dim(0);
        let c = self.shape().dim(1);
        assert_eq!(targets.len(), n, "one target per row");
        let mut log_probs = self.to_vec();
        kernels::log_softmax_rows(&mut log_probs, c);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < c, "target {t} out of range for {c} classes");
            loss -= log_probs[r * c + t];
        }
        loss /= n.max(1) as f32;

        let src = self.clone();
        let targets_owned: Vec<usize> = targets.to_vec();
        Tensor::make_op(Shape::scalar(), vec![loss], vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap()[0];
            // softmax = exp(log_probs)
            let mut gx = alloc::zeroed(n * c);
            let scale = g / n.max(1) as f32;
            for r in 0..n {
                let o = r * c;
                for i in 0..c {
                    gx[o + i] = log_probs[o + i].exp() * scale;
                }
                gx[o + targets_owned[r]] -= scale;
            }
            src.accumulate_grad_owned(gx);
        })
    }

    /// Mean binary cross-entropy with logits against 0/1 labels.
    ///
    /// Stable formulation `max(x,0) - x*y + ln(1 + e^{-|x|})`.
    pub fn bce_with_logits(&self, labels: &[f32]) -> Tensor {
        assert_eq!(labels.len(), self.numel(), "one label per logit");
        let x = self.data();
        let n = x.len();
        let mut loss = 0.0f32;
        for (&xi, &yi) in x.iter().zip(labels.iter()) {
            loss += xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln();
        }
        loss /= n.max(1) as f32;
        drop(x);

        let src = self.clone();
        let labels_owned: Vec<f32> = labels.to_vec();
        Tensor::make_op(Shape::scalar(), vec![loss], vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap()[0];
            let x = src.data();
            let scale = g / x.len().max(1) as f32;
            let mut gx = alloc::buffer(x.len());
            gx.extend(x.iter().zip(labels_owned.iter()).map(|(&xi, &yi)| {
                let sig = 1.0 / (1.0 + (-xi).exp());
                (sig - yi) * scale
            }));
            drop(x);
            src.accumulate_grad_owned(gx);
        })
    }

    /// Mean BPR (Bayesian personalized ranking) loss:
    /// `-mean(ln sigmoid(pos - neg))` over paired score tensors.
    pub fn bpr_loss(&self, neg: &Tensor) -> Tensor {
        assert_eq!(self.shape(), neg.shape(), "bpr shapes must match");
        // -ln σ(d) = softplus(-d); use the composed stable ops.
        self.sub(neg)
            .neg()
            .softplus()
            .mean_all()
    }

    /// Numerically stable softplus `ln(1 + e^x)`.
    pub fn softplus(&self) -> Tensor {
        let mut out = alloc::copy_of(&self.data());
        kernels::map_inplace(&mut out, |x| x.max(0.0) + (1.0 + (-x.abs()).exp()).ln());
        let src = self.clone();
        Tensor::make_op(self.shape().clone(), out, vec![self.clone()], move |out_t| {
            let g_ref = out_t.grad_ref();
            let g = g_ref.as_ref().unwrap();
            let x = src.data();
            let mut gx = alloc::buffer(x.len());
            gx.extend(x.iter().zip(g.iter()).map(|(&xi, &gi)| gi / (1.0 + (-xi).exp())));
            drop(x);
            src.accumulate_grad_owned(gx);
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_slice(&[20.0, 0.0, 0.0], [1, 3]);
        let loss = logits.cross_entropy_logits(&[0]);
        assert!(loss.item() < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::zeros([2, 4]);
        let loss = logits.cross_entropy_logits(&[0, 3]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_backward_softmax_minus_onehot() {
        let logits = Tensor::zeros([1, 2]).requires_grad();
        logits.cross_entropy_logits(&[1]).backward();
        let g = logits.grad().unwrap();
        assert!((g[0] - 0.5).abs() < 1e-5);
        assert!((g[1] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_zero() {
        let logits =
            Tensor::from_slice(&[0.5, -1.0, 2.0, 0.1, 0.2, 0.3], [2, 3]).requires_grad();
        logits.cross_entropy_logits(&[2, 0]).backward();
        let g = logits.grad().unwrap();
        for row in g.chunks(3) {
            assert!(row.iter().sum::<f32>().abs() < 1e-5);
        }
    }

    #[test]
    fn bce_known_value() {
        let x = Tensor::from_slice(&[0.0], [1]);
        // σ(0)=0.5 → loss = -ln 0.5
        let loss = x.bce_with_logits(&[1.0]);
        assert!((loss.item() - 0.5f32.ln().abs()).abs() < 1e-5);
    }

    #[test]
    fn bce_stable_for_large_logits() {
        let x = Tensor::from_slice(&[50.0, -50.0], [2]).requires_grad();
        let loss = x.bce_with_logits(&[1.0, 0.0]);
        assert!(loss.item().is_finite());
        assert!(loss.item() < 1e-5);
        loss.backward();
        assert!(x.grad().unwrap().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn softplus_matches_ln1p_exp() {
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0], [3]);
        let y = x.softplus().to_vec();
        for (xi, yi) in [-2.0f32, 0.0, 3.0].iter().zip(y.iter()) {
            assert!((yi - (1.0 + xi.exp()).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn bpr_prefers_positive() {
        let pos = Tensor::from_slice(&[5.0], [1]);
        let neg = Tensor::from_slice(&[-5.0], [1]);
        assert!(pos.bpr_loss(&neg).item() < 0.01);
        assert!(neg.bpr_loss(&pos).item() > 5.0);
    }
}
