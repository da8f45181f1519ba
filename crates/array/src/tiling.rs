//! Array tiling: chunking large arrays into ~128 KB tiles (Figure 2.3).
//!
//! Paper §2.5.1: *"For very large arrays the array ADT code chunks the array
//! into subarrays called tiles such that the size of each tile is
//! approximately 128 Kbytes. Each tile is stored as a separate SHORE object
//! as is a mapping table that keeps track of the objects used to store the
//! subarrays. Each subarray has the same dimensionality as the original
//! array and the size of each dimension is proportional to the size of each
//! dimension in the original array"* (the Sarawagi \[Suni94\] scheme).
//!
//! The decomposition lets Paradise *"fetch only those portions that are
//! required to execute an operation. For example, when clipping a satellite
//! image by one or more polygons only the relevant tiles will be read from
//! disk or tape."*
//!
//! [`TilingScheme`] is the only code that knows this layout. The execution
//! engine stores each tile as its own object and keeps the mapping table in
//! the tuple; it rebuilds the scheme from the tile shape recorded there.

use crate::ndarray::ElemType;
use crate::{ArrayError, Result};

/// How an array of a given shape is cut into tiles: the one place that
/// knows the tile layout (tile indexes, tile regions and the tile pieces
/// a region read touches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilingScheme {
    dims: Vec<usize>,
    /// Tile extent along each dimension.
    tile_shape: Vec<usize>,
    /// Number of tiles along each dimension: `ceil(dims[i] / tile_shape[i])`.
    tiles_per_dim: Vec<usize>,
}

/// The part of one tile that a region read covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePiece {
    /// Linear index of the tile.
    pub tile: usize,
    /// Extent of the whole tile (edge tiles are smaller).
    pub tile_shape: Vec<usize>,
    /// Origin of the piece within the tile.
    pub in_tile: Vec<usize>,
    /// Origin of the piece within the region.
    pub in_region: Vec<usize>,
    /// Extent of the piece.
    pub shape: Vec<usize>,
}

impl TilingScheme {
    /// Computes a proportional chunking of `dims` targeting roughly
    /// `target_bytes` per tile.
    ///
    /// Every dimension's tile extent is proportional to the dimension's
    /// size: `t_i ≈ d_i · (target_elems / total_elems)^(1/N)`, clamped to
    /// `1..=d_i`.
    pub fn new(dims: &[usize], elem: ElemType, target_bytes: usize) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(ArrayError::BadShape(dims.to_vec()));
        }
        let total_elems: usize = dims.iter().product();
        let target_elems = (target_bytes.max(1) / elem.size()).max(1);
        let scale = if target_elems >= total_elems {
            1.0
        } else {
            (target_elems as f64 / total_elems as f64).powf(1.0 / dims.len() as f64)
        };
        let tile_shape: Vec<usize> =
            dims.iter().map(|&d| (((d as f64) * scale).round() as usize).clamp(1, d)).collect();
        Self::with_tile_shape(dims, &tile_shape)
    }

    /// The scheme of an array already cut into tiles of `tile_shape` (a
    /// stored raster's mapping table records the shape, not the target).
    pub fn with_tile_shape(dims: &[usize], tile_shape: &[usize]) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(ArrayError::BadShape(dims.to_vec()));
        }
        if tile_shape.len() != dims.len() || tile_shape.contains(&0) {
            return Err(ArrayError::BadShape(tile_shape.to_vec()));
        }
        let tiles_per_dim = dims.iter().zip(tile_shape).map(|(&d, &t)| d.div_ceil(t)).collect();
        Ok(TilingScheme { dims: dims.to_vec(), tile_shape: tile_shape.to_vec(), tiles_per_dim })
    }

    /// Array shape being tiled.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The per-dimension tile extents.
    pub fn tile_shape(&self) -> &[usize] {
        &self.tile_shape
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles_per_dim.iter().product()
    }

    /// Converts a per-dimension tile coordinate to a linear tile index
    /// (row-major over tile coordinates).
    pub fn tile_index(&self, coord: &[usize]) -> Result<usize> {
        if coord.len() != self.dims.len() {
            return Err(ArrayError::OutOfBounds);
        }
        let mut lin = 0;
        for (&c, &n) in coord.iter().zip(&self.tiles_per_dim) {
            if c >= n {
                return Err(ArrayError::OutOfBounds);
            }
            lin = lin * n + c;
        }
        Ok(lin)
    }

    /// Inverse of [`TilingScheme::tile_index`].
    pub fn tile_coord(&self, mut index: usize) -> Vec<usize> {
        let mut coord = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            coord[d] = index % self.tiles_per_dim[d];
            index /= self.tiles_per_dim[d];
        }
        coord
    }

    /// The element-space origin and shape of tile `index` (edge tiles are
    /// smaller when the dimension is not divisible).
    pub fn tile_region(&self, index: usize) -> (Vec<usize>, Vec<usize>) {
        let coord = self.tile_coord(index);
        let lo: Vec<usize> = coord.iter().zip(&self.tile_shape).map(|(&c, &t)| c * t).collect();
        let shape: Vec<usize> = lo
            .iter()
            .zip(&self.tile_shape)
            .zip(&self.dims)
            .map(|((&l, &t), &d)| t.min(d - l))
            .collect();
        (lo, shape)
    }

    /// Linear indices of all tiles whose region intersects
    /// `[lo, lo+shape)`. This is the tile filter a `clip` uses to read only
    /// the relevant tiles.
    pub fn tiles_overlapping(&self, lo: &[usize], shape: &[usize]) -> Result<Vec<usize>> {
        if lo.len() != self.dims.len() || shape.len() != self.dims.len() {
            return Err(ArrayError::OutOfBounds);
        }
        // Clamp the query region to the array bounds.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(self.dims.len());
        for ((&l, &s), (&d, &t)) in lo.iter().zip(shape).zip(self.dims.iter().zip(&self.tile_shape))
        {
            if s == 0 || l >= d {
                return Ok(Vec::new());
            }
            let hi = (l + s).min(d); // exclusive
            ranges.push((l / t, (hi - 1) / t));
        }
        // Cartesian product of per-dim tile ranges, in row-major order.
        let mut out = Vec::new();
        let mut coord: Vec<usize> = ranges.iter().map(|&(a, _)| a).collect();
        loop {
            out.push(self.tile_index(&coord)?);
            let mut d = self.dims.len();
            loop {
                if d == 0 {
                    return Ok(out);
                }
                d -= 1;
                coord[d] += 1;
                if coord[d] <= ranges[d].1 {
                    break;
                }
                coord[d] = ranges[d].0;
            }
        }
    }

    /// The tile pieces a read of `[lo, lo+shape)` assembles, one per tile
    /// of [`TilingScheme::tiles_overlapping`] and in its order: each is the
    /// intersection of the region with one tile.
    pub fn pieces(&self, lo: &[usize], shape: &[usize]) -> Result<Vec<TilePiece>> {
        let tiles = self.tiles_overlapping(lo, shape)?;
        Ok(tiles
            .into_iter()
            .map(|tile| {
                let (tlo, tile_shape) = self.tile_region(tile);
                let mut piece = TilePiece {
                    tile,
                    tile_shape,
                    in_tile: Vec::with_capacity(lo.len()),
                    in_region: Vec::with_capacity(lo.len()),
                    shape: Vec::with_capacity(lo.len()),
                };
                for d in 0..lo.len() {
                    let a = lo[d].max(tlo[d]);
                    let b = (lo[d] + shape[d]).min(tlo[d] + piece.tile_shape[d]);
                    piece.in_tile.push(a - tlo[d]);
                    piece.in_region.push(a - lo[d]);
                    piece.shape.push(b - a);
                }
                piece
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lzw;
    use crate::ndarray::NdArray;

    /// The paper's tile target (§2.5.1).
    const PAPER_TILE_BYTES: usize = 128 * 1024;

    fn iota(dims: Vec<usize>) -> NdArray {
        let mut a = NdArray::zeros(dims, ElemType::U16).unwrap();
        for i in 0..a.num_elems() {
            a.set_linear(i, (i % 65_536) as u64);
        }
        a
    }

    /// Cuts `a` into the scheme's tiles, then reads `[lo, lo+shape)` back
    /// from its pieces, as the raster store does with stored tiles.
    /// Returns the region and the number of tiles read.
    fn read_via_pieces(
        a: &NdArray,
        s: &TilingScheme,
        lo: &[usize],
        shape: &[usize],
    ) -> (NdArray, usize) {
        let mut out = NdArray::zeros(shape.to_vec(), a.elem_type()).unwrap();
        let pieces = s.pieces(lo, shape).unwrap();
        for p in &pieces {
            let (tlo, tshape) = s.tile_region(p.tile);
            assert_eq!(tshape, p.tile_shape);
            let tile = a.subarray(&tlo, &tshape).unwrap();
            out.write_subarray(&p.in_region, &tile.subarray(&p.in_tile, &p.shape).unwrap())
                .unwrap();
        }
        (out, pieces.len())
    }

    #[test]
    fn scheme_respects_target_size() {
        // 1000x1000 u16 = 2 MB; 128 KB target => ~16 tiles
        let s = TilingScheme::new(&[1000, 1000], ElemType::U16, PAPER_TILE_BYTES).unwrap();
        let tile_elems: usize = s.tile_shape().iter().product();
        let tile_bytes = tile_elems * 2;
        assert!(
            (PAPER_TILE_BYTES / 2..=PAPER_TILE_BYTES * 2).contains(&tile_bytes),
            "tile_bytes = {tile_bytes}"
        );
        // proportional: square array gets square tiles
        assert_eq!(s.tile_shape()[0], s.tile_shape()[1]);
    }

    #[test]
    fn scheme_proportional_for_skewed_dims() {
        let s = TilingScheme::new(&[4000, 250], ElemType::U8, 64 * 1024).unwrap();
        let ratio = s.tile_shape()[0] as f64 / s.tile_shape()[1] as f64;
        assert!((ratio - 16.0).abs() < 4.0, "ratio = {ratio}");
    }

    #[test]
    fn small_array_is_one_tile() {
        let s = TilingScheme::new(&[10, 10], ElemType::U8, PAPER_TILE_BYTES).unwrap();
        assert_eq!(s.num_tiles(), 1);
        assert_eq!(s.tile_shape(), &[10, 10]);
    }

    #[test]
    fn with_tile_shape_rebuilds_the_computed_scheme() {
        let s = TilingScheme::new(&[300, 170], ElemType::U16, 4096).unwrap();
        assert_eq!(TilingScheme::with_tile_shape(s.dims(), s.tile_shape()).unwrap(), s);
        assert!(TilingScheme::with_tile_shape(&[10, 10], &[0, 5]).is_err());
        assert!(TilingScheme::with_tile_shape(&[10, 10], &[5]).is_err());
        assert!(TilingScheme::with_tile_shape(&[0, 10], &[5, 5]).is_err());
    }

    #[test]
    fn tile_index_roundtrip() {
        let s = TilingScheme::new(&[100, 90, 80], ElemType::U8, 1024).unwrap();
        for i in 0..s.num_tiles() {
            assert_eq!(s.tile_index(&s.tile_coord(i)).unwrap(), i);
        }
    }

    #[test]
    fn tile_regions_partition_the_array() {
        let s = TilingScheme::new(&[37, 23], ElemType::U8, 64).unwrap();
        let mut covered = vec![false; 37 * 23];
        for i in 0..s.num_tiles() {
            let (lo, shape) = s.tile_region(i);
            for r in lo[0]..lo[0] + shape[0] {
                for c in lo[1]..lo[1] + shape[1] {
                    let cell = &mut covered[r * 23 + c];
                    assert!(!*cell, "cell ({r},{c}) covered twice");
                    *cell = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b), "some cells uncovered");
    }

    #[test]
    fn build_and_assemble_roundtrip() {
        let a = iota(vec![120, 75]);
        let s = TilingScheme::new(a.dims(), a.elem_type(), 1024).unwrap();
        assert!(s.num_tiles() > 1);
        let (whole, read) = read_via_pieces(&a, &s, &[0, 0], a.dims());
        assert_eq!(whole, a);
        assert_eq!(read, s.num_tiles());
    }

    #[test]
    fn read_region_touches_only_needed_tiles() {
        let a = iota(vec![100, 100]); // 20 KB
        let s = TilingScheme::new(a.dims(), a.elem_type(), 1000).unwrap(); // ~500 elems per tile
        let total = s.num_tiles();
        assert!(total >= 16, "want many tiles, got {total}");
        // A small corner region must touch far fewer tiles than the total.
        let (region, read) = read_via_pieces(&a, &s, &[5, 5], &[10, 10]);
        assert!(read < total / 2, "read {read} of {total}");
        assert_eq!(region, a.subarray(&[5, 5], &[10, 10]).unwrap());
    }

    #[test]
    fn read_region_across_tile_boundaries() {
        let a = iota(vec![64, 64]);
        let s = TilingScheme::new(a.dims(), a.elem_type(), 512).unwrap();
        let (region, read) = read_via_pieces(&a, &s, &[10, 10], &[40, 40]);
        assert_eq!(region, a.subarray(&[10, 10], &[40, 40]).unwrap());
        assert!(read > 1);
    }

    #[test]
    fn smooth_tiles_compress_noisy_tiles_do_not() {
        // Left half constant (compressible), right half noise.
        let mut a = NdArray::zeros(vec![64, 64], ElemType::U8).unwrap();
        let mut x: u32 = 7;
        for r in 0..64 {
            for c in 32..64 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                a.set(&[r, c], u64::from(x >> 24)).unwrap();
            }
        }
        let s = TilingScheme::new(a.dims(), a.elem_type(), 512).unwrap();
        let mut compressed = 0;
        let mut stored = 0;
        for i in 0..s.num_tiles() {
            let (lo, shape) = s.tile_region(i);
            let tile = a.subarray(&lo, &shape).unwrap();
            let (bytes, flag) = lzw::maybe_compress(tile.data());
            assert_eq!(lzw::maybe_decompress(&bytes, flag).unwrap(), tile.data());
            compressed += usize::from(flag);
            stored += bytes.len();
        }
        assert!(compressed > 0, "no tiles compressed");
        assert!(compressed < s.num_tiles(), "all tiles compressed");
        assert!(stored < a.byte_len());
    }

    #[test]
    fn tiles_overlapping_empty_and_oob() {
        let s = TilingScheme::new(&[10, 10], ElemType::U8, 16).unwrap();
        assert!(s.tiles_overlapping(&[0, 0], &[0, 5]).unwrap().is_empty());
        assert!(s.tiles_overlapping(&[20, 0], &[5, 5]).unwrap().is_empty());
        // Region poking past the edge is clamped, not an error.
        let ids = s.tiles_overlapping(&[8, 8], &[10, 10]).unwrap();
        assert!(!ids.is_empty());
        let pieces = s.pieces(&[8, 8], &[10, 10]).unwrap();
        assert_eq!(pieces.iter().map(|p| p.tile).collect::<Vec<_>>(), ids);
        assert!(pieces.iter().all(|p| p.in_region[0] + p.shape[0] <= 2));
    }

    #[test]
    fn one_dimensional_tiling() {
        let a = iota(vec![5000]);
        let s = TilingScheme::new(a.dims(), a.elem_type(), 1024).unwrap();
        assert!(s.num_tiles() >= 5);
        assert_eq!(read_via_pieces(&a, &s, &[0], &[5000]).0, a);
        let (r, _) = read_via_pieces(&a, &s, &[100], &[200]);
        assert_eq!(r, a.subarray(&[100], &[200]).unwrap());
    }
}
