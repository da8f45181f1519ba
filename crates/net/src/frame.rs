//! The wire protocol: length-prefixed binary frames.
//!
//! Every message on a QC/DS connection is one frame:
//!
//! ```text
//! +----------------+-----------+------------------+
//! | len: u32 (LE)  | tag: u8   | payload (len-1 B)|
//! +----------------+-----------+------------------+
//! ```
//!
//! `len` counts the tag byte plus the payload, so an empty frame has
//! `len == 1`. Tuples travel in the engine's own self-describing tuple
//! encoding ([`paradise_exec::Tuple::encode`]), which already ships large
//! attributes (stored rasters) by reference — the mapping table crosses
//! the wire, the pixels do not (§2.5.2).

use paradise_obs::{MetricSample, SampleKind};

use paradise_exec::{ExecError, Result};
use std::io::{Read, Write};

/// Upper bound on a single frame's payload; a peer announcing more is
/// treated as corrupt rather than allocated for.
pub const MAX_FRAME: usize = 64 << 20;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: bind this connection to tuple stream `stream`,
    /// whose flow-control window is `window` tuples. The sender starts
    /// with `window` credits.
    OpenStream {
        /// Stream id (allocated by the transport).
        stream: u64,
        /// Flow-control window in tuples.
        window: u32,
    },
    /// One encoded tuple ([`paradise_exec::Tuple::encode`] bytes).
    Tuple(Vec<u8>),
    /// The sending operator finished; no more tuples follow.
    Eos,
    /// Receiver → sender: `n` tuples were consumed, send `n` more.
    Credit(u32),
    /// Pull the raw stored bytes of one raster tile object (§2.5.2).
    /// The 10 bytes are the storage `Oid` encoding.
    PullTile([u8; 10]),
    /// Successful pull response: the raw (possibly compressed) tile bytes.
    TileData(Vec<u8>),
    /// Request failed on the serving side.
    Error(String),
    /// QC → DS: send back a snapshot of this node's metrics registry
    /// (the monitoring plane's stats-pull, DESIGN §8.5).
    StatsPull,
    /// DS → QC: the node's registry snapshot as flattened samples.
    StatsReply(Vec<MetricSample>),
}

const TAG_OPEN: u8 = 1;
const TAG_TUPLE: u8 = 2;
const TAG_EOS: u8 = 3;
const TAG_CREDIT: u8 = 4;
const TAG_PULL: u8 = 5;
const TAG_TILE: u8 = 6;
// Tag 7 is retired (it carried a removed request); do not reuse it.
const TAG_ERROR: u8 = 8;
const TAG_STATS_PULL: u8 = 9;
const TAG_STATS_REPLY: u8 = 10;

const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;

/// Serialises a sample list: `count: u32 LE`, then per sample
/// `kind: u8 | name_len: u16 LE | name | value: u64 LE`.
fn encode_samples(samples: &[MetricSample], out: &mut Vec<u8>) {
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    for s in samples {
        out.push(match s.kind {
            SampleKind::Counter => KIND_COUNTER,
            SampleKind::Gauge => KIND_GAUGE,
        });
        let name = s.name.as_bytes();
        let len = name.len().min(u16::MAX as usize);
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&name[..len]);
        out.extend_from_slice(&s.value.to_le_bytes());
    }
}

/// Parses a sample list written by [`encode_samples`].
fn decode_samples(mut payload: &[u8]) -> Result<Vec<MetricSample>> {
    let bad = || ExecError::Codec("bad StatsReply payload");
    if payload.len() < 4 {
        return Err(bad());
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    payload = &payload[4..];
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if payload.len() < 3 {
            return Err(bad());
        }
        let kind = match payload[0] {
            KIND_COUNTER => SampleKind::Counter,
            KIND_GAUGE => SampleKind::Gauge,
            _ => return Err(bad()),
        };
        let name_len = u16::from_le_bytes(payload[1..3].try_into().unwrap()) as usize;
        payload = &payload[3..];
        if payload.len() < name_len + 8 {
            return Err(bad());
        }
        let name = String::from_utf8(payload[..name_len].to_vec()).map_err(|_| bad())?;
        let value = u64::from_le_bytes(payload[name_len..name_len + 8].try_into().unwrap());
        payload = &payload[name_len + 8..];
        out.push(MetricSample { name, kind, value });
    }
    if !payload.is_empty() {
        return Err(bad());
    }
    Ok(out)
}

fn io_err(ctx: &str, e: std::io::Error) -> ExecError {
    ExecError::Other(format!("net {ctx}: {e}"))
}

impl Frame {
    /// Serialises the frame (header + tag + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(16);
        match self {
            Frame::OpenStream { stream, window } => {
                body.push(TAG_OPEN);
                body.extend_from_slice(&stream.to_le_bytes());
                body.extend_from_slice(&window.to_le_bytes());
            }
            Frame::Tuple(bytes) => {
                body.reserve(1 + bytes.len());
                body.push(TAG_TUPLE);
                body.extend_from_slice(bytes);
            }
            Frame::Eos => body.push(TAG_EOS),
            Frame::Credit(n) => {
                body.push(TAG_CREDIT);
                body.extend_from_slice(&n.to_le_bytes());
            }
            Frame::PullTile(oid) => {
                body.push(TAG_PULL);
                body.extend_from_slice(oid);
            }
            Frame::TileData(bytes) => {
                body.reserve(1 + bytes.len());
                body.push(TAG_TILE);
                body.extend_from_slice(bytes);
            }
            Frame::Error(msg) => {
                body.push(TAG_ERROR);
                body.extend_from_slice(msg.as_bytes());
            }
            Frame::StatsPull => body.push(TAG_STATS_PULL),
            Frame::StatsReply(samples) => {
                body.push(TAG_STATS_REPLY);
                encode_samples(samples, &mut body);
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses a frame body (tag + payload, header already stripped).
    pub fn from_body(body: &[u8]) -> Result<Frame> {
        let (&tag, payload) = body.split_first().ok_or(ExecError::Codec("empty frame body"))?;
        Ok(match tag {
            TAG_OPEN => {
                if payload.len() != 12 {
                    return Err(ExecError::Codec("bad OpenStream payload"));
                }
                Frame::OpenStream {
                    stream: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
                    window: u32::from_le_bytes(payload[8..12].try_into().unwrap()),
                }
            }
            TAG_TUPLE => Frame::Tuple(payload.to_vec()),
            TAG_EOS => Frame::Eos,
            TAG_CREDIT => {
                if payload.len() != 4 {
                    return Err(ExecError::Codec("bad Credit payload"));
                }
                Frame::Credit(u32::from_le_bytes(payload.try_into().unwrap()))
            }
            TAG_PULL => {
                let oid: [u8; 10] =
                    payload.try_into().map_err(|_| ExecError::Codec("bad PullTile payload"))?;
                Frame::PullTile(oid)
            }
            TAG_TILE => Frame::TileData(payload.to_vec()),
            TAG_ERROR => Frame::Error(String::from_utf8_lossy(payload).into_owned()),
            TAG_STATS_PULL => {
                if !payload.is_empty() {
                    return Err(ExecError::Codec("bad StatsPull payload"));
                }
                Frame::StatsPull
            }
            TAG_STATS_REPLY => Frame::StatsReply(decode_samples(payload)?),
            _ => return Err(ExecError::Codec("unknown frame tag")),
        })
    }
}

/// Writes one frame. Returns the number of bytes put on the wire.
///
/// The `net.write_frame` failpoint injects wire faults here: `error`
/// aborts the write (a reset connection), `drop` reports success without
/// touching the wire (a lost frame), `corrupt` flips the last body byte
/// before sending (a damaged frame the peer must reject cleanly).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize> {
    let mut bytes = frame.to_bytes();
    match paradise_util::failpoint::trigger("net.write_frame") {
        None => {}
        Some(paradise_util::failpoint::Trigger::Error(msg)) => {
            return Err(ExecError::Other(format!("net write: injected fault: {msg}")))
        }
        Some(paradise_util::failpoint::Trigger::Drop) => return Ok(bytes.len()),
        Some(paradise_util::failpoint::Trigger::Corrupt) => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xA5;
        }
    }
    w.write_all(&bytes).map_err(|e| io_err("write", e))?;
    w.flush().map_err(|e| io_err("flush", e))?;
    Ok(bytes.len())
}

/// Outcome of a read attempt that tolerates read-timeouts between frames.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The read timed out before the first byte of a frame arrived —
    /// the connection is merely idle, not broken.
    Idle,
    /// Clean EOF at a frame boundary (peer closed after a whole frame).
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Accumulates exactly `buf.len()` bytes. `started` says whether earlier
/// bytes of the same frame were already consumed: mid-frame timeouts keep
/// trying (abandoning would desynchronise the stream). Returns
/// `Ok(Some(true))` when filled, `Ok(Some(false))` on an idle timeout
/// before the first byte, `Ok(None)` on clean EOF at a frame boundary,
/// and `Err` on mid-frame EOF or socket errors.
fn read_exact_idle(r: &mut impl Read, buf: &mut [u8], mut started: bool) -> Result<Option<bool>> {
    // A peer that stops mid-frame (as opposed to between frames) is broken,
    // not idle — but transient timeouts while a large frame drains are
    // normal. Tolerate a bounded number before declaring the link dead.
    const MAX_MIDFRAME_STALLS: u32 = 50;
    let mut stalls = 0;
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && !started {
                    return Ok(None); // clean EOF at boundary
                }
                return Err(ExecError::Other("net read: connection closed mid-frame".into()));
            }
            Ok(n) => {
                filled += n;
                started = true;
                stalls = 0;
            }
            Err(e) if is_timeout(&e) => {
                if !started {
                    return Ok(Some(false)); // idle
                }
                stalls += 1;
                if stalls > MAX_MIDFRAME_STALLS {
                    return Err(ExecError::Other("net read: peer stalled mid-frame".into()));
                }
            }
            Err(e) => return Err(io_err("read", e)),
        }
    }
    Ok(Some(true))
}

/// Reads one frame, distinguishing idle timeouts and clean closes from
/// protocol errors.
///
/// The `net.read_frame` failpoint injects receive faults: `error` fails
/// the read (a reset connection), `drop` reports the connection closed,
/// `corrupt` flips the last body byte of the received frame before
/// decoding.
pub fn read_frame(r: &mut impl Read) -> Result<ReadOutcome> {
    let mut corrupt = false;
    match paradise_util::failpoint::trigger("net.read_frame") {
        None => {}
        Some(paradise_util::failpoint::Trigger::Error(msg)) => {
            return Err(ExecError::Other(format!("net read: injected fault: {msg}")))
        }
        Some(paradise_util::failpoint::Trigger::Drop) => return Ok(ReadOutcome::Closed),
        Some(paradise_util::failpoint::Trigger::Corrupt) => corrupt = true,
    }
    let mut header = [0u8; 4];
    match read_exact_idle(r, &mut header, false)? {
        None => return Ok(ReadOutcome::Closed),
        Some(false) => return Ok(ReadOutcome::Idle),
        Some(true) => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(ExecError::Codec("bad frame length"));
    }
    let mut body = vec![0u8; len];
    match read_exact_idle(r, &mut body, true)? {
        Some(true) => {
            if corrupt {
                let last = body.len() - 1;
                body[last] ^= 0xA5;
            }
            Frame::from_body(&body).map(ReadOutcome::Frame)
        }
        _ => Err(ExecError::Other("net read: connection closed mid-frame".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.to_bytes();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(Frame::from_body(&bytes[4..]).unwrap(), f);
    }

    #[test]
    fn frame_roundtrips() {
        roundtrip(Frame::OpenStream { stream: 712, window: 256 });
        roundtrip(Frame::Tuple(vec![1, 2, 3, 255]));
        roundtrip(Frame::Tuple(Vec::new()));
        roundtrip(Frame::Eos);
        roundtrip(Frame::Credit(9000));
        roundtrip(Frame::PullTile([7; 10]));
        roundtrip(Frame::TileData(vec![0; 4096]));
        roundtrip(Frame::Error("tile file missing".into()));
        roundtrip(Frame::StatsPull);
        roundtrip(Frame::StatsReply(Vec::new()));
        roundtrip(Frame::StatsReply(vec![
            MetricSample::new("wal.commits", SampleKind::Counter, 42),
            MetricSample::new("buffer.frames_cached", SampleKind::Gauge, 7),
            MetricSample::new("", SampleKind::Counter, u64::MAX),
        ]));
    }

    #[test]
    fn stats_frames_reject_malformed_payloads() {
        // StatsPull carries no payload.
        assert!(Frame::from_body(&[TAG_STATS_PULL, 0]).is_err());
        // Truncated count header.
        assert!(Frame::from_body(&[TAG_STATS_REPLY, 1, 0]).is_err());
        // Count says one sample, body empty.
        let mut body = vec![TAG_STATS_REPLY];
        body.extend_from_slice(&1u32.to_le_bytes());
        assert!(Frame::from_body(&body).is_err());
        // Unknown sample kind.
        let mut body = vec![TAG_STATS_REPLY];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(9); // bad kind
        body.extend_from_slice(&0u16.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        assert!(Frame::from_body(&body).is_err());
        // Trailing junk after the declared samples.
        let mut ok =
            Frame::StatsReply(vec![MetricSample::new("x", SampleKind::Counter, 1)]).to_bytes();
        ok.push(0xFF);
        assert!(Frame::from_body(&ok[4..]).is_err());
    }

    #[test]
    fn stream_of_frames_parses_in_order() {
        let frames = vec![
            Frame::OpenStream { stream: 1, window: 4 },
            Frame::Tuple(vec![42; 17]),
            Frame::Credit(2),
            Frame::Eos,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            match read_frame(&mut r).unwrap() {
                ReadOutcome::Frame(got) => assert_eq!(&got, f),
                _ => panic!("expected frame"),
            }
        }
        assert!(matches!(read_frame(&mut r).unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Frame::from_body(&[]).is_err());
        assert!(Frame::from_body(&[99]).is_err());
        assert!(Frame::from_body(&[TAG_CREDIT, 1]).is_err());
        // Oversized length header.
        let mut wire = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        wire.push(TAG_EOS);
        assert!(read_frame(&mut &wire[..]).is_err());
    }
}
