//! The N-dimensional array ADT (paper §2.1, §2.5.1).
//!
//! *"An N-dimensional array data type is also provided in which one of the N
//! dimensions can be varied. For example, four dimensional data of the form
//! latitude, longitude, and measured precipitation as a function of time
//! might be stored in such an array."*

use crate::{ArrayError, Result};

/// Element type of an array. Rasters use the unsigned integer widths
/// (8/16/24-bit pixels); scientific arrays use `F64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 8-bit unsigned.
    U8,
    /// 16-bit unsigned, little-endian.
    U16,
    /// 24-bit unsigned, little-endian (satellite composite channels).
    U24,
    /// 64-bit IEEE float, little-endian.
    F64,
}

impl ElemType {
    /// Bytes per element.
    #[inline]
    pub const fn size(&self) -> usize {
        match self {
            ElemType::U8 => 1,
            ElemType::U16 => 2,
            ElemType::U24 => 3,
            ElemType::F64 => 8,
        }
    }
}

/// A dense, row-major N-dimensional array.
///
/// Dimension 0 is the outermost (slowest-varying).
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    dims: Vec<usize>,
    elem: ElemType,
    data: Vec<u8>,
}

impl NdArray {
    /// Creates an array from raw little-endian `data`.
    pub fn new(dims: Vec<usize>, elem: ElemType, data: Vec<u8>) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(ArrayError::BadShape(dims));
        }
        let expected = dims.iter().product::<usize>() * elem.size();
        if data.len() != expected {
            return Err(ArrayError::DataSizeMismatch { expected, got: data.len() });
        }
        Ok(NdArray { dims, elem, data })
    }

    /// Creates a zero-filled array.
    pub fn zeros(dims: Vec<usize>, elem: ElemType) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(ArrayError::BadShape(dims));
        }
        let len = dims.iter().product::<usize>() * elem.size();
        Ok(NdArray { dims, elem, data: vec![0; len] })
    }

    /// The dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The element type.
    #[inline]
    pub fn elem_type(&self) -> ElemType {
        self.elem
    }

    /// Total number of elements.
    #[inline]
    pub fn num_elems(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total payload size in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Raw little-endian payload.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Whether the array exceeds the inline-storage threshold for a page of
    /// `page_size` bytes. Paper §2.5.1: arrays larger than 70% of a SHORE
    /// page become separate objects; smaller ones are inlined in the tuple.
    pub fn is_large(&self, page_size: usize) -> bool {
        self.data.len() * 10 > page_size * 7
    }

    /// Linear element index for a multi-index (row-major).
    pub fn linear_index(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.dims.len() {
            return Err(ArrayError::OutOfBounds);
        }
        let mut lin = 0usize;
        for (i, (&x, &d)) in idx.iter().zip(&self.dims).enumerate() {
            if x >= d {
                return Err(ArrayError::OutOfBounds);
            }
            let _ = i;
            lin = lin * d + x;
        }
        Ok(lin)
    }

    /// Reads the element at `idx` as an unsigned integer (floats are
    /// bit-reinterpreted: `f64::from_bits`).
    pub fn get(&self, idx: &[usize]) -> Result<u64> {
        let lin = self.linear_index(idx)?;
        Ok(self.get_linear(lin))
    }

    /// Reads element `lin` (already linearised) as an unsigned integer.
    pub fn get_linear(&self, lin: usize) -> u64 {
        let sz = self.elem.size();
        let off = lin * sz;
        let mut v = 0u64;
        for (i, &b) in self.data[off..off + sz].iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    /// Writes the element at `idx` from an unsigned integer (truncating to
    /// the element width).
    pub fn set(&mut self, idx: &[usize], value: u64) -> Result<()> {
        let lin = self.linear_index(idx)?;
        self.set_linear(lin, value);
        Ok(())
    }

    /// Writes element `lin` (already linearised).
    pub fn set_linear(&mut self, lin: usize, value: u64) {
        let sz = self.elem.size();
        let off = lin * sz;
        for i in 0..sz {
            self.data[off + i] = (value >> (8 * i)) as u8;
        }
    }

    /// Copies out the hyper-rectangular region `[lo[i], lo[i]+shape[i])` in
    /// every dimension as a new (bounded) array.
    ///
    /// Q2's "only the subarray itself is fetched" result delivery and the
    /// per-tile extraction of the tiling module both reduce to this.
    pub fn subarray(&self, lo: &[usize], shape: &[usize]) -> Result<NdArray> {
        check_bounds(lo, shape, &self.dims)?;
        let sz = self.elem.size();
        let out_len = shape.iter().product::<usize>() * sz;
        let mut out = Vec::with_capacity(out_len);
        // Copy contiguous runs along the innermost dimension.
        let inner = *shape.last().unwrap();
        let n_rows = shape[..shape.len() - 1].iter().product::<usize>();
        let mut idx = lo.to_vec();
        for _ in 0..n_rows {
            let start = self.linear_index(&idx)? * sz;
            out.extend_from_slice(&self.data[start..start + inner * sz]);
            // Advance the multi-index over the outer dims (odometer).
            for d in (0..shape.len() - 1).rev() {
                idx[d] += 1;
                if idx[d] < lo[d] + shape[d] {
                    break;
                }
                idx[d] = lo[d];
            }
        }
        NdArray::new(shape.to_vec(), self.elem, out)
    }

    /// Writes `patch` into the region starting at `lo` (inverse of
    /// [`NdArray::subarray`]; used when reassembling an array from tiles).
    pub fn write_subarray(&mut self, lo: &[usize], patch: &NdArray) -> Result<()> {
        check_bounds(lo, &patch.dims, &self.dims)?;
        let sz = self.elem.size();
        let inner = *patch.dims.last().unwrap();
        let n_rows = patch.dims[..patch.dims.len() - 1].iter().product::<usize>();
        let mut idx = lo.to_vec();
        let mut src = 0usize;
        for _ in 0..n_rows {
            let start = self.linear_index(&idx)? * sz;
            let run = inner * sz;
            self.data[start..start + run].copy_from_slice(&patch.data[src..src + run]);
            src += run;
            for d in (0..patch.dims.len() - 1).rev() {
                idx[d] += 1;
                if idx[d] < lo[d] + patch.dims[d] {
                    break;
                }
                idx[d] = lo[d];
            }
        }
        Ok(())
    }
}

/// Validates that region `[lo, lo+shape)` fits inside `dims` and that the
/// rank matches; zero-size regions are rejected.
fn check_bounds(lo: &[usize], shape: &[usize], dims: &[usize]) -> Result<()> {
    if lo.len() != dims.len() || shape.len() != dims.len() {
        return Err(ArrayError::OutOfBounds);
    }
    for ((&l, &s), &d) in lo.iter().zip(shape).zip(dims) {
        if s == 0 || l + s > d {
            return Err(ArrayError::OutOfBounds);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: Vec<usize>, elem: ElemType) -> NdArray {
        let mut a = NdArray::zeros(dims, elem).unwrap();
        for i in 0..a.num_elems() {
            a.set_linear(i, i as u64);
        }
        a
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(NdArray::zeros(vec![], ElemType::U8), Err(ArrayError::BadShape(_))));
        assert!(matches!(NdArray::zeros(vec![4, 0], ElemType::U8), Err(ArrayError::BadShape(_))));
        assert!(matches!(
            NdArray::new(vec![2, 2], ElemType::U16, vec![0; 7]),
            Err(ArrayError::DataSizeMismatch { expected: 8, got: 7 })
        ));
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemType::U8.size(), 1);
        assert_eq!(ElemType::U16.size(), 2);
        assert_eq!(ElemType::U24.size(), 3);
        assert_eq!(ElemType::F64.size(), 8);
    }

    #[test]
    fn get_set_roundtrip_all_widths() {
        for elem in [ElemType::U8, ElemType::U16, ElemType::U24] {
            let mut a = NdArray::zeros(vec![3, 4], elem).unwrap();
            let max = (1u64 << (8 * elem.size())) - 1;
            a.set(&[2, 3], max).unwrap();
            a.set(&[0, 0], 1).unwrap();
            assert_eq!(a.get(&[2, 3]).unwrap(), max);
            assert_eq!(a.get(&[0, 0]).unwrap(), 1);
            assert_eq!(a.get(&[1, 1]).unwrap(), 0);
        }
    }

    #[test]
    fn f64_roundtrip() {
        let mut a = NdArray::zeros(vec![2, 2], ElemType::F64).unwrap();
        a.set(&[1, 0], (-2.5f64).to_bits()).unwrap();
        assert_eq!(f64::from_bits(a.get(&[1, 0]).unwrap()), -2.5);
    }

    #[test]
    fn row_major_layout() {
        let a = iota(vec![2, 3], ElemType::U8);
        // [[0,1,2],[3,4,5]]
        assert_eq!(a.get(&[0, 2]).unwrap(), 2);
        assert_eq!(a.get(&[1, 0]).unwrap(), 3);
        assert_eq!(a.data(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let a = iota(vec![2, 3], ElemType::U8);
        assert_eq!(a.get(&[2, 0]), Err(ArrayError::OutOfBounds));
        assert_eq!(a.get(&[0, 3]), Err(ArrayError::OutOfBounds));
        assert_eq!(a.get(&[0]), Err(ArrayError::OutOfBounds));
    }

    #[test]
    fn subarray_2d() {
        let a = iota(vec![4, 5], ElemType::U16);
        let s = a.subarray(&[1, 2], &[2, 3]).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.get(&[0, 0]).unwrap(), 7); // (1,2) of 4x5 = 1*5+2
        assert_eq!(s.get(&[1, 2]).unwrap(), 14); // (2,4) = 2*5+4
    }

    #[test]
    fn subarray_1d_and_3d() {
        let a = iota(vec![10], ElemType::U8);
        let s = a.subarray(&[3], &[4]).unwrap();
        assert_eq!(s.data(), &[3, 4, 5, 6]);

        let b = iota(vec![2, 3, 4], ElemType::U8);
        let t = b.subarray(&[1, 1, 1], &[1, 2, 2]).unwrap();
        // (1,1,1) = 12+4+1 = 17; (1,1,2)=18; (1,2,1)=21; (1,2,2)=22
        assert_eq!(t.data(), &[17, 18, 21, 22]);
    }

    #[test]
    fn subarray_full_is_identity() {
        let a = iota(vec![3, 3], ElemType::U24);
        let s = a.subarray(&[0, 0], &[3, 3]).unwrap();
        assert_eq!(s, a);
    }

    #[test]
    fn subarray_out_of_bounds() {
        let a = iota(vec![4, 4], ElemType::U8);
        assert!(a.subarray(&[2, 2], &[3, 1]).is_err());
        assert!(a.subarray(&[0, 0], &[0, 1]).is_err());
    }

    #[test]
    fn write_subarray_roundtrip() {
        let mut a = NdArray::zeros(vec![4, 4], ElemType::U8).unwrap();
        let patch = iota(vec![2, 2], ElemType::U8); // [[0,1],[2,3]]
        a.write_subarray(&[1, 1], &patch).unwrap();
        assert_eq!(a.get(&[1, 1]).unwrap(), 0);
        assert_eq!(a.get(&[1, 2]).unwrap(), 1);
        assert_eq!(a.get(&[2, 1]).unwrap(), 2);
        assert_eq!(a.get(&[2, 2]).unwrap(), 3);
        assert_eq!(a.get(&[0, 0]).unwrap(), 0);
        let back = a.subarray(&[1, 1], &[2, 2]).unwrap();
        assert_eq!(back.data(), patch.data());
    }

    #[test]
    fn is_large_threshold() {
        // 70% of an 8192-byte page = 5734.4
        let small = NdArray::zeros(vec![5734], ElemType::U8).unwrap();
        let large = NdArray::zeros(vec![5735], ElemType::U8).unwrap();
        assert!(!small.is_large(8192));
        assert!(large.is_large(8192));
    }
}
