use duo_nn::{Grads, Layer, NnError, Param, Parameterized, Result as NnResult, Sequential};
use duo_tensor::Tensor;

/// Runs several branches on the same input and concatenates their rank-1
/// outputs.
///
/// This is the fusion primitive behind the TPN (multi-rate temporal
/// pyramid) and SlowFast (slow + fast pathway) backbones: each branch sees
/// the identical input tensor, produces a feature vector, and the
/// concatenated vector feeds the embedding head. Backward splits the
/// gradient at the recorded branch widths and sums the branch input
/// gradients.
pub struct MultiPath {
    branches: Vec<Sequential>,
    out_lens: Vec<usize>,
    forwarded: bool,
}

impl MultiPath {
    /// Creates a multi-branch layer.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty (a fusion of nothing is a bug).
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(!branches.is_empty(), "MultiPath requires at least one branch");
        MultiPath { branches, out_lens: Vec::new(), forwarded: false }
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

impl std::fmt::Debug for MultiPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPath").field("branches", &self.branches.len()).finish()
    }
}

impl Layer for MultiPath {
    fn forward(&mut self, input: &Tensor) -> NnResult<Tensor> {
        let mut outs = Vec::with_capacity(self.branches.len());
        self.out_lens.clear();
        for branch in &mut self.branches {
            let y = branch.forward(input)?;
            if y.rank() != 1 {
                return Err(NnError::BadInput {
                    layer: "MultiPath",
                    reason: format!("branches must output rank-1 features, got {:?}", y.dims()),
                });
            }
            self.out_lens.push(y.len());
            outs.push(y);
        }
        self.forwarded = true;
        let total: usize = self.out_lens.iter().sum();
        let mut fused = Tensor::zeros(&[total]);
        let fv = fused.as_mut_slice();
        let mut off = 0;
        for y in &outs {
            fv[off..off + y.len()].copy_from_slice(y.as_slice());
            off += y.len();
        }
        Ok(fused)
    }

    fn infer(&self, input: &Tensor) -> NnResult<Tensor> {
        let mut outs = Vec::with_capacity(self.branches.len());
        let mut total = 0;
        for branch in &self.branches {
            let y = branch.infer(input)?;
            if y.rank() != 1 {
                return Err(NnError::BadInput {
                    layer: "MultiPath",
                    reason: format!("branches must output rank-1 features, got {:?}", y.dims()),
                });
            }
            total += y.len();
            outs.push(y);
        }
        let mut fused = Tensor::zeros(&[total]);
        let fv = fused.as_mut_slice();
        let mut off = 0;
        for y in &outs {
            fv[off..off + y.len()].copy_from_slice(y.as_slice());
            off += y.len();
        }
        Ok(fused)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> NnResult<Vec<Tensor>> {
        // Run each branch over the whole batch (so its conv layers
        // amortize their batched setup), then concatenate per item in the
        // same branch order as `infer`.
        let mut branch_outs = Vec::with_capacity(self.branches.len());
        for branch in &self.branches {
            let ys = branch.infer_batch(inputs)?;
            for y in &ys {
                if y.rank() != 1 {
                    return Err(NnError::BadInput {
                        layer: "MultiPath",
                        reason: format!("branches must output rank-1 features, got {:?}", y.dims()),
                    });
                }
            }
            branch_outs.push(ys);
        }
        let mut fused_all = Vec::with_capacity(inputs.len());
        for i in 0..inputs.len() {
            let total: usize = branch_outs.iter().map(|ys| ys[i].len()).sum();
            let mut fused = Tensor::zeros(&[total]);
            let fv = fused.as_mut_slice();
            let mut off = 0;
            for ys in &branch_outs {
                let y = &ys[i];
                fv[off..off + y.len()].copy_from_slice(y.as_slice());
                off += y.len();
            }
            fused_all.push(fused);
        }
        Ok(fused_all)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> NnResult<Option<Tensor>> {
        if !self.forwarded {
            return Err(NnError::MissingForwardCache { layer: "MultiPath" });
        }
        let total: usize = self.out_lens.iter().sum();
        if grad_out.len() != total {
            return Err(NnError::BadInput {
                layer: "MultiPath",
                reason: format!("grad length {} != fused width {total}", grad_out.len()),
            });
        }
        let gv = grad_out.as_slice();
        let mut grad_in: Option<Tensor> = None;
        let mut off = 0;
        for (branch, &len) in self.branches.iter_mut().zip(&self.out_lens) {
            let part = Tensor::from_vec(gv[off..off + len].to_vec(), &[len])
                .expect("slice length matches shape by construction");
            off += len;
            // Every branch sees the layer's input, so each is asked for
            // exactly what the caller keeps.
            let Some(gi) = branch.backward(&part, grads)? else { continue };
            grad_in = Some(match grad_in {
                None => gi,
                Some(acc) => acc.add(&gi)?,
            });
        }
        Ok(grad_in)
    }

    fn name(&self) -> &'static str {
        "MultiPath"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MultiPath {
            branches: self.branches.clone(),
            out_lens: Vec::new(),
            forwarded: false,
        })
    }
}

impl Parameterized for MultiPath {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for branch in &mut self.branches {
            branch.visit_params(visitor);
        }
    }

    fn zero_grad(&mut self) {
        for branch in &mut self.branches {
            branch.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_nn::{Linear, Relu};
    use duo_tensor::Rng64;

    fn two_branch(rng: &mut Rng64) -> MultiPath {
        MultiPath::new(vec![
            Sequential::new(vec![
                Box::new(Linear::new(3, 2, rng)) as Box<dyn Layer>,
                Box::new(Relu::new()),
            ]),
            Sequential::new(vec![Box::new(Linear::new(3, 4, rng)) as Box<dyn Layer>]),
        ])
    }

    #[test]
    fn forward_concatenates_branch_outputs() {
        let mut rng = Rng64::new(91);
        let mut mp = two_branch(&mut rng);
        let y = mp.forward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(y.dims(), &[6]);
    }

    #[test]
    fn backward_splits_and_sums() {
        let mut rng = Rng64::new(92);
        let mut mp = two_branch(&mut rng);
        let x = Tensor::ones(&[3]);
        mp.forward(&x).unwrap();
        let g = mp.backward(&Tensor::ones(&[6]), Grads::Both).unwrap().unwrap();
        assert_eq!(g.dims(), &[3]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng64::new(93);
        let mut mp = two_branch(&mut rng);
        let x = Tensor::randn(&[3], 1.0, rng.as_rng());
        let err = duo_nn::check_input_gradient(&mut mp, &x, 1e-3).unwrap();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn shared_params_visited_once_per_branch() {
        let mut rng = Rng64::new(94);
        let mut mp = two_branch(&mut rng);
        assert!(mp.param_count() > 0);
        assert_eq!(mp.branch_count(), 2);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng64::new(95);
        let mut mp = two_branch(&mut rng);
        assert!(mp.backward(&Tensor::ones(&[6]), Grads::Both).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_branch_list_panics() {
        MultiPath::new(Vec::new());
    }
}
