//! The [`Tensor`] type: a shaped, contiguous `f32` buffer.

use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// Shapes are ranks 0–4 in practice (scalars, vectors, matrices, batched
/// matrices); the data is always a single contiguous allocation, which is
/// what lets the checkpoint codec and the compressors treat every tensor as
/// a flat slice.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Build from existing data; length must match the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shape (row-major).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Flat read-only view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// 2-D element access (rows, cols).
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Bytes occupied by the payload (excludes shape metadata) — the number
    /// the storage cost model cares about.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Maximum absolute difference to another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[{} elems]", self.shape, self.data.len())?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.len(), 12);
        assert_eq!(t.shape(), &[3, 4]);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).reshape(&[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    fn at2_is_row_major() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.as_mut_slice()[2] = 9.0;
        t.as_mut_slice()[4] = -4.0;
        assert_eq!(t.at2(0, 2), 9.0);
        assert_eq!(t.at2(1, 1), -4.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        let b = Tensor::from_slice(&[3.0, 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn payload_bytes() {
        assert_eq!(Tensor::zeros(&[10]).payload_bytes(), 40);
    }
}
