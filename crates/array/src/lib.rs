//! # paradise-array
//!
//! The array and raster-image ADTs of the Paradise geo-spatial DBMS
//! (paper §2.5, "Dealing with Large Satellite Images").
//!
//! Paradise stores satellite images *inside* the database. This crate
//! provides, from scratch:
//!
//! * [`ndarray::NdArray`] — an N-dimensional array ADT;
//! * [`tiling`] — decomposition of large arrays into ~128 KB *tiles* with
//!   proportional per-dimension chunking (after Sarawagi \[Suni94\]): the one
//!   tile layout behind the stored mapping table (Figure 2.3);
//! * [`lzw`] — the LZW lossless compressor \[Welch 84\] applied per tile, with
//!   the paper's adaptive "store uncompressed if compression doesn't help"
//!   flag;
//! * [`raster`] — geo-located 2-D raster images (8-, 16-, and 24-bit pixels)
//!   derived from the array ADT, with the `clip(polygon)`, `lower_res(f)` and
//!   `average()` methods the benchmark queries call.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lzw;
pub mod ndarray;
pub mod raster;
pub mod tiling;

pub use ndarray::{ElemType, NdArray};
pub use raster::{BitDepth, PixelWindow, Raster};
pub use tiling::{TilePiece, TilingScheme};

/// Errors for array construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// Dimension list empty or a dimension is zero.
    BadShape(
        /// The offending dimensions.
        Vec<usize>,
    ),
    /// Data length does not match the product of dimensions × element size.
    DataSizeMismatch {
        /// Expected byte length.
        expected: usize,
        /// Supplied byte length.
        got: usize,
    },
    /// Index outside the array bounds.
    OutOfBounds,
    /// LZW stream was corrupt.
    CorruptStream(
        /// Human-readable reason.
        &'static str,
    ),
    /// Raster operation got an empty clip region.
    EmptyClip,
    /// Lower-resolution factor must be >= 1.
    BadFactor(
        /// The offending factor.
        usize,
    ),
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::BadShape(d) => write!(f, "invalid array shape {d:?}"),
            ArrayError::DataSizeMismatch { expected, got } => {
                write!(f, "data size mismatch: expected {expected} bytes, got {got}")
            }
            ArrayError::OutOfBounds => write!(f, "array index out of bounds"),
            ArrayError::CorruptStream(why) => write!(f, "corrupt LZW stream: {why}"),
            ArrayError::EmptyClip => write!(f, "clip region does not overlap the raster"),
            ArrayError::BadFactor(k) => write!(f, "lower_res factor must be >= 1, got {k}"),
        }
    }
}

impl std::error::Error for ArrayError {}

/// Result alias for array operations.
pub type Result<T> = std::result::Result<T, ArrayError>;
