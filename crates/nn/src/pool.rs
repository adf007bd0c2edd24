use crate::{Grads, Layer, NnError, Result};
use duo_tensor::{avg_pool3d, avg_pool3d_backward, max_pool3d, max_pool3d_backward, Pool3dSpec, Tensor};

/// Max-pooling layer over `[C, T, H, W]` inputs.
#[derive(Debug)]
pub struct MaxPool3d {
    spec: Pool3dSpec,
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool3d {
    /// Creates a max-pooling layer with the given window geometry.
    pub fn new(spec: Pool3dSpec) -> Self {
        MaxPool3d { spec, cache: None }
    }
}

impl Layer for MaxPool3d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (out, argmax) = max_pool3d(input, &self.spec)?;
        self.cache = Some((input.dims().to_vec(), argmax));
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let (out, _argmax) = max_pool3d(input, &self.spec)?;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let (in_dims, argmax) =
            self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "MaxPool3d" })?;
        if !grads.input() {
            return Ok(None);
        }
        Ok(Some(max_pool3d_backward(grad_out, argmax, in_dims)?))
    }

    fn name(&self) -> &'static str {
        "MaxPool3d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool3d::new(self.spec))
    }
}

/// Average-pooling layer over `[C, T, H, W]` inputs.
#[derive(Debug)]
pub struct AvgPool3d {
    spec: Pool3dSpec,
    in_dims: Option<Vec<usize>>,
}

impl AvgPool3d {
    /// Creates an average-pooling layer with the given window geometry.
    pub fn new(spec: Pool3dSpec) -> Self {
        AvgPool3d { spec, in_dims: None }
    }
}

impl Layer for AvgPool3d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = avg_pool3d(input, &self.spec)?;
        self.in_dims = Some(input.dims().to_vec());
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(avg_pool3d(input, &self.spec)?)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let in_dims =
            self.in_dims.as_ref().ok_or(NnError::MissingForwardCache { layer: "AvgPool3d" })?;
        if !grads.input() {
            return Ok(None);
        }
        Ok(Some(avg_pool3d_backward(grad_out, &self.spec, in_dims)?))
    }

    fn name(&self) -> &'static str {
        "AvgPool3d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(AvgPool3d::new(self.spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_tensor::Rng64;

    #[test]
    fn max_pool_layer_round_trip() {
        let mut layer = MaxPool3d::new(Pool3dSpec::spatial(2));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let g = layer.backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap(), Grads::Both).unwrap().unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avg_pool_layer_distributes_gradient() {
        let mut layer = AvgPool3d::new(Pool3dSpec::spatial(2));
        let x = Tensor::ones(&[1, 1, 2, 2]);
        layer.forward(&x).unwrap();
        let g = layer.backward(&Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap(), Grads::Both).unwrap().unwrap();
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut mp = MaxPool3d::new(Pool3dSpec::cubic(2));
        assert!(mp.backward(&Tensor::ones(&[1, 1, 1, 1]), Grads::Both).is_err());
        let mut ap = AvgPool3d::new(Pool3dSpec::cubic(2));
        assert!(ap.backward(&Tensor::ones(&[1, 1, 1, 1]), Grads::Both).is_err());
    }

    #[test]
    fn pooled_values_bounded_by_input_extremes() {
        let mut rng = Rng64::new(51);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, rng.as_rng());
        let mut mp = MaxPool3d::new(Pool3dSpec::spatial(2));
        let y = mp.forward(&x).unwrap();
        assert!(y.max() <= x.max() && y.min() >= x.min());
        let mut ap = AvgPool3d::new(Pool3dSpec::spatial(2));
        let z = ap.forward(&x).unwrap();
        assert!(z.max() <= x.max() + 1e-6 && z.min() >= x.min() - 1e-6);
    }
}

crate::param_free!(MaxPool3d, AvgPool3d);
