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
//! `CLEAR` and resets. [`maybe_compress`] implements the adaptive flag,
//! abandoning a tile's encoding once its stream passes the savings budget.

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

/// Slots in the encoder's code table: a power of two a little over twice
/// the 3,838 codes one dictionary generation assigns, so probes stay short.
const TABLE_BITS: u32 = 13;
const TABLE_SLOTS: usize = 1 << TABLE_BITS;

/// The encoder's dictionary: an open-addressing hash table (linear probing)
/// from the key `(prefix << 8) | byte` to its code. A slot packs
/// `key << 12 | code` into one `u32` — a key has at most 20 bits and a code
/// 12. Assigned codes start at [`FIRST_FREE`], so a live slot is never 0
/// and 0 marks an empty one.
struct CodeTable {
    slots: Vec<u32>,
    next_code: u16,
    /// Width of the next code written. It covers `next_code` itself, because
    /// the decoder adds each entry one code later than the encoder.
    width: u32,
}

impl CodeTable {
    fn new() -> Self {
        CodeTable { slots: vec![0; TABLE_SLOTS], next_code: FIRST_FREE, width: 9 }
    }

    fn reset(&mut self) {
        self.slots.fill(0);
        self.next_code = FIRST_FREE;
        self.width = 9;
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: u32) -> usize {
        let mut i = (key.wrapping_mul(0x9E37_79B1) >> (32 - TABLE_BITS)) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 || slot >> 12 == key {
                return i;
            }
            i = (i + 1) & (TABLE_SLOTS - 1);
        }
    }

    /// Assigns the next free code to `key` at its empty `slot`. Returns
    /// false, assigning nothing, when all 4,096 codes are taken.
    fn insert(&mut self, slot: usize, key: u32) -> bool {
        if usize::from(self.next_code) >= MAX_CODES {
            return false;
        }
        self.slots[slot] = key << 12 | u32::from(self.next_code);
        self.next_code += 1;
        if self.width < MAX_WIDTH && (1u32 << self.width) < u32::from(self.next_code) + 1 {
            self.width += 1;
        }
        true
    }
}

/// Compresses `data` with LZW. Empty input yields an empty stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_within(data, usize::MAX).expect("an unbounded budget always fits")
}

/// [`compress`], giving up with `None` as soon as the stream written so far
/// is longer than `budget` bytes. The stream only grows, so `None` means
/// exactly that `compress(data)` is longer than `budget`; otherwise the
/// bytes are `compress(data)`'s.
pub fn compress_within(data: &[u8], budget: usize) -> Option<Vec<u8>> {
    let Some((&first, rest)) = data.split_first() else {
        return Some(Vec::new());
    };
    let mut dict = CodeTable::new();
    let mut w = BitWriter { out: Vec::with_capacity(budget.min(data.len())), acc: 0, nbits: 0 };
    w.put(CLEAR, dict.width);
    let mut prefix = u32::from(first);
    for &byte in rest {
        let key = prefix << 8 | u32::from(byte);
        let slot = dict.probe(key);
        let entry = dict.slots[slot];
        if entry != 0 {
            prefix = entry & 0xFFF;
            continue;
        }
        w.put(prefix as u16, dict.width);
        if w.out.len() > budget {
            return None;
        }
        if !dict.insert(slot, key) {
            w.put(CLEAR, dict.width);
            dict.reset();
        }
        prefix = u32::from(byte);
    }
    w.put(prefix as u16, dict.width);
    w.put(END, dict.width);
    let out = w.finish();
    (out.len() <= budget).then_some(out)
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

/// The longest stream a tile of `len` bytes may compress to and still be
/// stored compressed: `floor(len × (1 − MIN_SAVINGS))`.
fn savings_budget(len: usize) -> usize {
    ((len as f64) * (1.0 - MIN_SAVINGS)) as usize
}

/// Compresses `data`; returns `(bytes, compressed_flag)` — the flag records
/// whether the bytes are LZW or raw, mirroring the mapping-table flag bit.
/// A tile that does not shrink enough is handed back as it came, uncopied.
pub fn maybe_compress(data: Vec<u8>) -> (Vec<u8>, bool) {
    match compress_within(&data, savings_budget(data.len())) {
        Some(packed) => (packed, true),
        None => (data, false),
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

/// [`maybe_compress`] over a batch of tiles, one morsel per tile on `exec`
/// (a tile is already thousands of bytes of codec work). Outputs are
/// returned in input order whichever thread compressed each tile — the
/// codec is a pure per-tile function, so the batch is deterministic.
pub fn maybe_compress_batch(
    exec: &paradise_util::workers::Executor,
    tiles: Vec<Vec<u8>>,
) -> Vec<(Vec<u8>, bool)> {
    let tiles = std::sync::Arc::new(tiles);
    let shared = tiles.clone();
    let packed = exec.run(tiles.len(), move |i| {
        let tile = &shared[i];
        compress_within(tile, savings_budget(tile.len()))
    });
    // The executor has dropped the morsel closure: the tiles are ours again.
    let tiles = std::sync::Arc::try_unwrap(tiles).expect("morsels hold no tile");
    tiles
        .into_iter()
        .zip(packed)
        .map(|(raw, p)| match p.out {
            Ok(p) => p.map_or((raw, false), |p| (p, true)),
            Err(panic) => panic!("LZW morsel panicked: {panic}"),
        })
        .collect()
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
        let (bytes, flag) = maybe_compress(smooth.clone());
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
        let (bytes, flag) = maybe_compress(noise.clone());
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

    /// FNV-1a over a byte stream: a fixed, dependency-free digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    fn xorshift_bytes(len: usize, mut x: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect()
    }

    /// A `w`×`h` 16-bit raster laid out like the generated benchmark
    /// imagery: a latitude gradient plus uniform noise of ±`noise` counts.
    fn raster16(w: usize, h: usize, noise: f64, seed: u64) -> Vec<u8> {
        use crate::BitDepth;
        use paradise_geom::{Point, Rect};
        let geo = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
        let mut r = crate::Raster::new(w, h, BitDepth::Sixteen, geo).unwrap();
        let mut rng = paradise_util::rng::Rng::seed_from_u64(seed);
        for row in 0..h {
            let lat = 90.0 - (row as f64 + 0.5) * 180.0 / h as f64;
            let base = 20_000.0 + 15_000.0 * lat.to_radians().cos();
            for col in 0..w {
                let jitter = if noise > 0.0 { rng.gen_range(-noise..noise) } else { 0.0 };
                r.set_pixel(col, row, (base + jitter).max(0.0) as u32).unwrap();
            }
        }
        r.array().data().to_vec()
    }

    /// The fixed inputs whose encoded streams are pinned by digest.
    fn golden_inputs() -> Vec<(&'static str, Vec<u8>)> {
        vec![
            ("empty", Vec::new()),
            ("one_byte", vec![42]),
            ("kwkwk", (0..1000).map(|i| if i % 2 == 0 { b'a' } else { b'b' }).collect()),
            ("run", vec![7u8; 10_000]),
            ("all_bytes", (0..=255u8).cycle().take(4096).collect()),
            ("reset", (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect()),
            ("noise", xorshift_bytes(20_000, 0x1234_5678)),
            ("ramp", (0..128 * 1024).map(|i| ((i / 64) % 251) as u8).collect()),
            ("text", b"the quick brown fox jumps over the lazy dog. ".repeat(100)),
            ("raster16_smooth", raster16(64, 32, 0.0, 1)),
            ("raster16_noisy", raster16(64, 32, 300.0, 1)),
            ("raster16_noisy_big", raster16(256, 128, 300.0, 7)),
        ]
    }

    /// Length and FNV-1a digest of each golden input's stream, recorded
    /// from the first-child/sibling-list encoder this hashed table replaced:
    /// code assignment, widths and resets must not change a single bit.
    const GOLDEN: [(&str, usize, u64); 12] = [
        ("empty", 0, 0xcbf29ce484222325),
        ("one_byte", 4, 0xf522ccaa88b162c7),
        ("kwkwk", 74, 0x4f2cb86d759e0ad8),
        ("run", 161, 0x261617acf3149584),
        ("all_bytes", 1695, 0x22c1b82815782eef),
        ("reset", 18333, 0xcb7326384d0530f4),
        ("noise", 27313, 0x1f171dbe6863d96f),
        ("ramp", 24290, 0x57d9aa805b727c9b),
        ("text", 726, 0x966855384c935825),
        ("raster16_smooth", 599, 0xdb9b15d3916f7a48),
        ("raster16_noisy", 5220, 0x99e9cb3901fa001f),
        ("raster16_noisy_big", 69207, 0x8160742e7531471a),
    ];

    #[test]
    fn streams_match_golden_digests() {
        let inputs = golden_inputs();
        assert_eq!(inputs.len(), GOLDEN.len());
        for ((name, data), (gname, len, digest)) in inputs.iter().zip(GOLDEN) {
            assert_eq!(*name, gname);
            let packed = compress(data);
            assert_eq!((packed.len(), fnv1a(&packed)), (len, digest), "{name}");
            roundtrip(data);
        }
    }

    /// The stored form as the encoder decided it before the savings budget:
    /// compress the whole tile, then compare against the threshold.
    fn reference_maybe_compress(data: &[u8]) -> (Vec<u8>, bool) {
        let packed = compress(data);
        if (packed.len() as f64) <= (data.len() as f64) * (1.0 - MIN_SAVINGS) {
            (packed, true)
        } else {
            (data.to_vec(), false)
        }
    }

    /// Bytes from a four-symbol alphabet with probability `p`, uniform
    /// noise otherwise: `p` near 0.5 compresses to about the 90% budget.
    fn mixed_bytes(rng: &mut paradise_util::rng::Rng, len: usize, p: f64) -> Vec<u8> {
        (0..len)
            .map(|_| if rng.gen_bool(p) { rng.gen_range(0u8..4) } else { rng.gen_range(0u8..=255) })
            .collect()
    }

    #[test]
    fn budget_matches_whole_stream_threshold() {
        let mut rng = paradise_util::rng::Rng::seed_from_u64(14);
        let mut near_budget = 0;
        for case in 0..16 {
            let p = rng.gen_range(0.0..1.0);
            let base = mixed_bytes(&mut rng, 1 + case * 50, p);
            // Every prefix length: somewhere along it the threshold flips,
            // so some streams cross the budget only on their last code.
            for n in 0..=base.len() {
                let data = &base[..n];
                let packed = compress(data);
                assert_eq!(
                    maybe_compress(data.to_vec()),
                    reference_maybe_compress(data),
                    "{case}/{n}"
                );
                // The give-up test is exact: a budget one byte short of the
                // stream is crossed only by its last byte, on the final code.
                assert_eq!(compress_within(data, packed.len()).as_ref(), Some(&packed));
                if let Some(tight) = packed.len().checked_sub(1) {
                    assert_eq!(compress_within(data, tight), None, "{case}/{n}");
                }
                let budget = savings_budget(n);
                near_budget += usize::from(packed.len().abs_diff(budget) <= 1);
            }
        }
        assert!(near_budget > 0, "no input landed on the savings budget");
    }

    #[test]
    fn batch_matches_per_tile_decision() {
        let mut rng = paradise_util::rng::Rng::seed_from_u64(3);
        let tiles: Vec<Vec<u8>> =
            (0..9).map(|i| mixed_bytes(&mut rng, 4096, f64::from(i) / 8.0)).collect();
        let expect: Vec<_> = tiles.iter().map(|t| reference_maybe_compress(t)).collect();
        for helpers in [0, 1, 2] {
            let exec = paradise_util::workers::Executor::new(helpers).unwrap();
            assert_eq!(maybe_compress_batch(&exec, tiles.clone()), expect, "{helpers} helpers");
        }
    }

    #[test]
    fn text_compresses() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let packed = compress(&text);
        assert!(packed.len() < text.len() / 2);
        roundtrip(&text);
    }
}
