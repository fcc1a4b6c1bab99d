//! The length-prefixed binary frame codec of the fleet wire protocol.
//!
//! A frame is a little-endian `u32` body length followed by the body: one
//! tag byte and the payload. The body length counts the tag, so it is at
//! least 1; frames above the size cap are rejected *before* their body is
//! buffered, which keeps a malicious or corrupted peer from ballooning the
//! input buffer. Halo payloads carry f64 values as raw little-endian bit
//! patterns — the wire must be bit-transparent, or the fleet's
//! bitwise-identity invariant (see `nestwx_miniwrf::report`) dies in the
//! codec.

use std::fmt;

/// Bytes of the length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Cap on one frame's body (tag + payload). A boundary ring of the
/// largest plausible nest is a few hundred KiB; 16 MiB leaves two orders
/// of magnitude of headroom while still bounding a corrupt length prefix.
/// A constant, so no setting can raise it for untrusted socket input.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// One halo cell as carried in a Boundary/Feedback payload:
/// `(i, j, h, hu, hv)` relative to the receiving grid.
pub(crate) type HaloCell = (isize, isize, f64, f64, f64);

/// One decoded frame: its tag, payload slice, and total bytes consumed
/// from the input buffer (header included).
pub(crate) type DecodedFrame<'a> = (Tag, &'a [u8], usize);

/// Bytes one halo cell occupies in a Boundary/Feedback payload:
/// `(i64, i64, f64, f64, f64)` little-endian.
pub const CELL_BYTES: usize = 40;

/// Fixed prefix of a Boundary/Feedback payload: `u64` iteration,
/// `u32` nest, `u32` cell count.
pub const CELLS_PREFIX_BYTES: usize = 16;

/// Frame kinds, in handshake-to-teardown order. The discriminants are the
/// wire tag bytes and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Worker → coordinator: protocol version check.
    Hello = 1,
    /// Coordinator → worker: scenario, slot, owned nests, iterations.
    Assign = 2,
    /// Coordinator → worker: one nest's boundary ring for one iteration.
    Boundary = 3,
    /// Worker → coordinator: one nest's feedback cells for one iteration.
    Feedback = 4,
    /// Worker → coordinator: per-nest reports + observability, run over.
    Done = 5,
    /// Coordinator → worker: stop now (a peer was lost); no reply expected.
    Abort = 6,
    /// Either direction: fatal error description, connection is dead.
    Error = 7,
}

impl Tag {
    /// Decodes a wire tag byte.
    pub(crate) fn from_u8(b: u8) -> Option<Tag> {
        match b {
            1 => Some(Tag::Hello),
            2 => Some(Tag::Assign),
            3 => Some(Tag::Boundary),
            4 => Some(Tag::Feedback),
            5 => Some(Tag::Done),
            6 => Some(Tag::Abort),
            7 => Some(Tag::Error),
            _ => None,
        }
    }
}

/// A codec-level rejection. Every variant is terminal for the connection:
/// after a framing error the byte stream has no recoverable structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Body length 0 — a frame must at least carry its tag.
    Empty,
    /// Declared body length exceeds the cap.
    Oversized {
        /// Declared body length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// Unknown tag byte.
    UnknownTag(u8),
    /// Payload structure invalid for its tag.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Empty => write!(f, "empty frame body"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            FrameError::UnknownTag(b) => write!(f, "unknown frame tag {b}"),
            FrameError::Malformed(d) => write!(f, "malformed payload: {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one encoded frame to `out`.
pub fn encode_frame(tag: Tag, payload: &[u8], out: &mut Vec<u8>) {
    let body_len = payload.len() + 1;
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(tag as u8);
    out.extend_from_slice(payload);
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only an incomplete frame (read more
/// bytes and retry), `Ok(Some((tag, payload, consumed)))` on success with
/// the total bytes consumed, and `Err` on a terminal framing violation.
/// Oversized and empty lengths are rejected from the 4-byte prefix alone,
/// before any body bytes exist.
pub fn decode_frame(buf: &[u8], max: usize) -> Result<Option<DecodedFrame<'_>>, FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len == 0 {
        return Err(FrameError::Empty);
    }
    if body_len > max {
        return Err(FrameError::Oversized { len: body_len, max });
    }
    if buf.len() < FRAME_HEADER_BYTES + body_len {
        return Ok(None);
    }
    let tag = Tag::from_u8(buf[FRAME_HEADER_BYTES]).ok_or(FrameError::UnknownTag(buf[4]))?;
    let payload = &buf[FRAME_HEADER_BYTES + 1..FRAME_HEADER_BYTES + body_len];
    Ok(Some((tag, payload, FRAME_HEADER_BYTES + body_len)))
}

/// Encodes a halo-cell payload (`Boundary`/`Feedback`): iteration, nest
/// index, then each cell's `(i, j, h, hu, hv)` as little-endian bits.
pub fn encode_cells(nest: u32, iteration: u64, cells: &[HaloCell]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CELLS_PREFIX_BYTES + cells.len() * CELL_BYTES);
    out.extend_from_slice(&iteration.to_le_bytes());
    out.extend_from_slice(&nest.to_le_bytes());
    out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    for &(i, j, h, hu, hv) in cells {
        out.extend_from_slice(&(i as i64).to_le_bytes());
        out.extend_from_slice(&(j as i64).to_le_bytes());
        out.extend_from_slice(&h.to_bits().to_le_bytes());
        out.extend_from_slice(&hu.to_bits().to_le_bytes());
        out.extend_from_slice(&hv.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a halo-cell payload, returning `(nest, iteration, cells)`.
/// The declared cell count must match the payload length exactly — a
/// trailing or missing byte means the stream is corrupt.
pub fn decode_cells(payload: &[u8]) -> Result<(u32, u64, Vec<HaloCell>), FrameError> {
    let short = || {
        FrameError::Malformed(format!(
            "cell payload of {} bytes is shorter than its {CELLS_PREFIX_BYTES}-byte prefix",
            payload.len()
        ))
    };
    let (iteration, rest) = payload.split_first_chunk::<8>().ok_or_else(short)?;
    let (nest, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
    let (count, body) = rest.split_first_chunk::<4>().ok_or_else(short)?;
    let count = u32::from_le_bytes(*count) as usize;
    let expected = CELLS_PREFIX_BYTES + count * CELL_BYTES;
    if payload.len() != expected {
        return Err(FrameError::Malformed(format!(
            "cell payload declares {count} cells ({expected} bytes) but carries {}",
            payload.len()
        )));
    }
    let cells = body
        .chunks_exact(CELL_BYTES)
        .map(|cell| {
            let word = |k: usize| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&cell[8 * k..8 * k + 8]);
                u64::from_le_bytes(bytes)
            };
            (
                word(0) as i64 as isize,
                word(1) as i64 as isize,
                f64::from_bits(word(2)),
                f64::from_bits(word(3)),
                f64::from_bits(word(4)),
            )
        })
        .collect();
    Ok((
        u32::from_le_bytes(*nest),
        u64::from_le_bytes(*iteration),
        cells,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        encode_frame(Tag::Assign, b"payload", &mut buf);
        let (tag, payload, used) = decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(tag, Tag::Assign);
        assert_eq!(payload, b"payload");
        assert_eq!(used, buf.len());
    }

    #[test]
    fn incomplete_prefix_and_body_return_none() {
        let mut buf = Vec::new();
        encode_frame(Tag::Done, &[9; 32], &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut], DEFAULT_MAX_FRAME_BYTES).unwrap(),
                None,
                "truncation at {cut} must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn oversized_and_empty_rejected_from_prefix() {
        let big = (DEFAULT_MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(matches!(
            decode_frame(&big, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Oversized { .. })
        ));
        let zero = 0u32.to_le_bytes();
        assert_eq!(
            decode_frame(&zero, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Empty)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(99);
        assert_eq!(
            decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::UnknownTag(99))
        );
    }

    #[test]
    fn cells_preserve_f64_bits() {
        let cells = vec![
            (-1isize, 4isize, -0.0f64, f64::MIN_POSITIVE, 1.0 / 3.0),
            (7, -1, 1e300, -1e-300, f64::MAX),
        ];
        let payload = encode_cells(3, 42, &cells);
        let (nest, iter, back) = decode_cells(&payload).unwrap();
        assert_eq!((nest, iter), (3, 42));
        assert_eq!(back.len(), cells.len());
        for (a, b) in cells.iter().zip(&back) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "h bits");
            assert_eq!(a.3.to_bits(), b.3.to_bits(), "hu bits");
            assert_eq!(a.4.to_bits(), b.4.to_bits(), "hv bits");
        }
    }

    #[test]
    fn cells_length_mismatch_rejected() {
        let mut payload = encode_cells(0, 0, &[(0, 0, 1.0, 2.0, 3.0)]);
        payload.push(0);
        assert!(matches!(
            decode_cells(&payload),
            Err(FrameError::Malformed(_))
        ));
        let short = &payload[..CELLS_PREFIX_BYTES + CELL_BYTES - 1];
        assert!(matches!(decode_cells(short), Err(FrameError::Malformed(_))));
    }
}
