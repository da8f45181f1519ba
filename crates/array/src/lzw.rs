//! LZW lossless compression (Welch 1984).
//!
//! Paper §2.5.1: *"when a tile is written to disk it is compressed using a
//! lossless compression algorithm (LZW). To handle the unpredictability of
//! the compression algorithm, the array ADT examines the size reduction
//! achieved by compression. If compression does not reduce the size of the
//! tile significantly, the tile is stored in its uncompressed form."*
//!
//! This is a from-scratch variable-width LZW (TIFF/GIF style): codes start
//! at 9 bits, the dictionary holds 256 literals plus `CLEAR` (256) and
//! `END` (257); the width grows to 12 bits, after which the encoder emits
//! `CLEAR` and resets. [`maybe_compress`] implements the adaptive flag.

use crate::{ArrayError, Result};

const CLEAR: u16 = 256;
const END: u16 = 257;
const FIRST_FREE: u16 = 258;
const MAX_WIDTH: u32 = 12;
const MAX_CODES: usize = 1 << MAX_WIDTH;

/// Bit-level writer packing codes MSB-first.
struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, nbits: 0 }
    }

    fn put(&mut self, code: u16, width: u32) {
        self.acc = (self.acc << width) | u32::from(code);
        self.nbits += width;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.out
    }
}

/// Bit-level reader yielding codes MSB-first.
struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0, acc: 0, nbits: 0 }
    }

    fn get(&mut self, width: u32) -> Option<u16> {
        while self.nbits < width {
            let byte = *self.input.get(self.pos)?;
            self.pos += 1;
            self.acc = (self.acc << 8) | u32::from(byte);
            self.nbits += 8;
        }
        self.nbits -= width;
        Some(((self.acc >> self.nbits) & ((1 << width) - 1)) as u16)
    }
}

/// Encoder dictionary: maps (prefix code, next byte) -> code using a flat
/// hash-free table keyed by `prefix * 256 + byte` in a sorted-probe vector
/// would be slow; instead use an array of per-prefix first-child plus
/// sibling links (the classic trie encoding, O(1) amortised).
struct EncDict {
    /// first_child[code] = code of (code, some byte) chain head or u16::MAX
    first_child: Vec<u16>,
    /// sibling[code] = next entry with the same prefix or u16::MAX
    sibling: Vec<u16>,
    /// suffix byte of each code
    suffix: Vec<u8>,
    next_code: u16,
}

impl EncDict {
    fn new() -> Self {
        let mut d = EncDict {
            first_child: Vec::with_capacity(MAX_CODES),
            sibling: Vec::with_capacity(MAX_CODES),
            suffix: Vec::with_capacity(MAX_CODES),
            next_code: FIRST_FREE,
        };
        d.reset();
        d
    }

    fn reset(&mut self) {
        self.first_child.clear();
        self.sibling.clear();
        self.suffix.clear();
        self.first_child.resize(MAX_CODES, u16::MAX);
        self.sibling.resize(MAX_CODES, u16::MAX);
        self.suffix.resize(MAX_CODES, 0);
        self.next_code = FIRST_FREE;
    }

    /// Looks up (prefix, byte); returns its code if present.
    fn find(&self, prefix: u16, byte: u8) -> Option<u16> {
        let mut c = self.first_child[prefix as usize];
        while c != u16::MAX {
            if self.suffix[c as usize] == byte {
                return Some(c);
            }
            c = self.sibling[c as usize];
        }
        None
    }

    /// Inserts (prefix, byte) as the next free code. Returns false when full.
    fn insert(&mut self, prefix: u16, byte: u8) -> bool {
        if (self.next_code as usize) >= MAX_CODES {
            return false;
        }
        let code = self.next_code;
        self.next_code += 1;
        self.suffix[code as usize] = byte;
        self.sibling[code as usize] = self.first_child[prefix as usize];
        self.first_child[prefix as usize] = code;
        true
    }

    fn code_width(&self) -> u32 {
        // Width must cover next_code (the decoder is one entry behind).
        let mut w = 9;
        while (1u32 << w) < u32::from(self.next_code) + 1 {
            w += 1;
        }
        w.min(MAX_WIDTH)
    }
}

/// Compresses `data` with LZW. Empty input yields an empty stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut dict = EncDict::new();
    let mut w = BitWriter::new();
    w.put(CLEAR, dict.code_width());
    let mut prefix = u16::from(data[0]);
    for &byte in &data[1..] {
        match dict.find(prefix, byte) {
            Some(code) => prefix = code,
            None => {
                w.put(prefix, dict.code_width());
                if !dict.insert(prefix, byte) {
                    w.put(CLEAR, dict.code_width());
                    dict.reset();
                }
                prefix = u16::from(byte);
            }
        }
    }
    w.put(prefix, dict.code_width());
    w.put(END, dict.code_width());
    w.finish()
}

/// Decompresses an LZW stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>> {
    if stream.is_empty() {
        return Ok(Vec::new());
    }
    // Decoder dictionary: prefix link + suffix byte per code.
    let mut prefix_of = vec![u16::MAX; MAX_CODES];
    let mut suffix_of = vec![0u8; MAX_CODES];
    let mut next_code: u16 = FIRST_FREE;
    let mut width: u32 = 9;

    let mut r = BitReader::new(stream);
    let mut out = Vec::with_capacity(stream.len() * 3);
    let mut prev: Option<u16> = None;
    let mut entry_buf = Vec::with_capacity(64);

    loop {
        let code = match r.get(width) {
            Some(c) => c,
            None => return Err(ArrayError::CorruptStream("truncated stream")),
        };
        if code == END {
            return Ok(out);
        }
        if code == CLEAR {
            next_code = FIRST_FREE;
            width = 9;
            prev = None;
            continue;
        }
        if code > next_code || (code == next_code && prev.is_none()) {
            return Err(ArrayError::CorruptStream("code beyond dictionary"));
        }

        // Expand `code` (or the KwKwK special case) into entry_buf.
        entry_buf.clear();
        let expand = |c: u16, buf: &mut Vec<u8>, prefix_of: &[u16], suffix_of: &[u8]| {
            let mut c = c;
            loop {
                if c < 256 {
                    buf.push(c as u8);
                    break;
                }
                buf.push(suffix_of[c as usize]);
                c = prefix_of[c as usize];
            }
            buf.reverse();
        };
        if code == next_code {
            // KwKwK: entry = prev expansion + its first byte.
            let p = prev.expect("checked above");
            expand(p, &mut entry_buf, &prefix_of, &suffix_of);
            let first = entry_buf[0];
            entry_buf.push(first);
        } else {
            expand(code, &mut entry_buf, &prefix_of, &suffix_of);
        }
        out.extend_from_slice(&entry_buf);

        if let Some(p) = prev {
            if (next_code as usize) < MAX_CODES {
                prefix_of[next_code as usize] = p;
                suffix_of[next_code as usize] = entry_buf[0];
                next_code += 1;
            }
        }
        prev = Some(code);
        // Grow width exactly as the encoder does: it must cover next_code+1.
        while width < MAX_WIDTH && (1u32 << width) < u32::from(next_code) + 2 {
            width += 1;
        }
    }
}

/// Minimum fraction of the original a compressed tile must shave off to be
/// stored compressed (paper: "if compression does not reduce the size of
/// the tile significantly, the tile is stored in its uncompressed form").
pub const MIN_SAVINGS: f64 = 0.10;

/// Compresses `data`; returns `(bytes, compressed_flag)` — the flag records
/// whether the bytes are LZW or raw, mirroring the mapping-table flag bit.
pub fn maybe_compress(data: &[u8]) -> (Vec<u8>, bool) {
    let packed = compress(data);
    if (packed.len() as f64) <= (data.len() as f64) * (1.0 - MIN_SAVINGS) {
        (packed, true)
    } else {
        (data.to_vec(), false)
    }
}

/// Inverse of [`maybe_compress`].
pub fn maybe_decompress(bytes: &[u8], compressed: bool) -> Result<Vec<u8>> {
    if compressed {
        decompress(bytes)
    } else {
        Ok(bytes.to_vec())
    }
}

/// [`maybe_compress`] over a batch of tiles on a worker pool, one tile per
/// morsel (a tile is already thousands of bytes of codec work). Outputs
/// are returned in input order regardless of the pool size — the codec is
/// a pure per-tile function, so the batch is trivially deterministic.
pub fn maybe_compress_batch(
    pool: &paradise_util::workers::WorkerPool,
    tiles: &[Vec<u8>],
) -> Vec<(Vec<u8>, bool)> {
    // BLOB_MORSEL is 1: each morsel range holds exactly one tile.
    let morsels = pool.run(tiles.len(), paradise_util::workers::BLOB_MORSEL, |r| {
        Ok::<_, std::convert::Infallible>(maybe_compress(&tiles[r.start]))
    });
    morsels.unwrap_or_else(|e| match e {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed).expect("valid stream");
        assert_eq!(unpacked, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_roundtrip() {
        roundtrip(&[]);
        assert!(compress(&[]).is_empty());
        assert_eq!(decompress(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_byte() {
        roundtrip(&[42]);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = vec![7u8; 10_000];
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 4, "{} vs {}", packed.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn kwkwk_case() {
        // "ababab..." exercises the code == next_code special case.
        let data: Vec<u8> = (0..1000).map(|i| if i % 2 == 0 { b'a' } else { b'b' }).collect();
        roundtrip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn pseudo_random_data_roundtrips() {
        // xorshift-ish deterministic noise — incompressible but must roundtrip.
        let mut x: u32 = 0x1234_5678;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn dictionary_overflow_resets() {
        // Long sequence with enough variety to fill the 12-bit dictionary.
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn maybe_compress_flags() {
        let smooth = vec![0u8; 4096];
        let (bytes, flag) = maybe_compress(&smooth);
        assert!(flag);
        assert!(bytes.len() < smooth.len());
        assert_eq!(maybe_decompress(&bytes, flag).unwrap(), smooth);

        let mut x: u32 = 99;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let (bytes, flag) = maybe_compress(&noise);
        assert!(!flag, "noise should be stored raw");
        assert_eq!(bytes, noise);
        assert_eq!(maybe_decompress(&bytes, flag).unwrap(), noise);
    }

    #[test]
    fn corrupt_stream_detected() {
        let packed = compress(b"hello hello hello");
        // Truncate mid-stream: should error, not panic.
        let cut = &packed[..packed.len() / 2];
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn text_compresses() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let packed = compress(&text);
        assert!(packed.len() < text.len() / 2);
        roundtrip(&text);
    }
}
