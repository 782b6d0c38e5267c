//! Wire format for combined messages: framing, sequencing, integrity.
//!
//! The paper's message combining means that everything a node forwards in
//! one step travels as **one** message. A frame has one canonical byte
//! layout (below), but two in-memory representations, both carried by
//! [`WireFrame`]:
//!
//! * **contiguous** — the canonical layout materialized into a single
//!   [`Bytes`] buffer ([`encode_message`]). Fault injection (corrupt /
//!   truncate) and the recovery layer's retained resend copies operate on
//!   this form, because mutating "the frame's bytes" only makes sense
//!   when the frame *is* bytes;
//! * **gathered** — scatter-gather: all framing (message header plus the
//!   block headers, back to back) in one small reused [`BytesMut`], and
//!   the blocks' payloads as shared [`Bytes`] segments
//!   ([`encode_gathered`]). Combining then costs a header write per
//!   block, never a payload copy — the payload bytes seeded at the start
//!   of a run travel every hop by reference count.
//!
//! The two forms are interchangeable: a gathered frame's CRC is computed
//! over the canonical layout (streamed across the segments without
//! concatenating), so [`WireFrame::to_bytes`] materializes a frame that
//! [`decode_message`] round-trips exactly. Decoding is zero-copy in both
//! directions: contiguous frames are split into [`Bytes::slice`] views,
//! gathered frames hand their payload segments straight to the receiver
//! ([`decode_gathered`]).
//!
//! Since the fault-tolerance layer (see [`crate::fault`]) the frame header
//! also carries a **sequence number** (the global step the frame belongs
//! to, so receivers can discard stale or duplicated frames) and a
//! **CRC32** over the rest of the frame (so corruption in flight is
//! *detected* rather than silently delivered — detection is what turns a
//! corrupted wire into a recoverable retry).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame   := seq:u32 , crc:u32 , count:u32 , block*count
//! block   := src:u32 , dst:u32 , shifts:[u8; MAX_DIMS] , len:u32 , payload:[u8; len]
//! crc     := CRC32/IEEE over seq , count , block*count   (everything but the crc field)
//! ```
//!
//! Empty frames (`count = 0`) are legal — the paper explicitly allows
//! idle nodes to "send empty messages" in short-dimension scatter steps.
//!
//! The CRC is the standard reflected CRC32/IEEE (zlib's `crc32`);
//! [`crc32_update`] says how it is computed.

use alltoall_core::Block;
use bytes::{BufMut, Bytes, BytesMut};
use torus_topology::MAX_DIMS;

/// Fixed bytes of framing per message (`seq + crc + count`).
pub const MESSAGE_HEADER_BYTES: usize = 4 + 4 + 4;

/// Fixed bytes of framing per block (`src + dst + shifts + len`).
pub const BLOCK_HEADER_BYTES: usize = 4 + 4 + MAX_DIMS + 4;

/// Byte offset of the `crc` field inside a frame.
const CRC_OFFSET: usize = 4;

/// A wire-integrity failure, precise enough to drive recovery decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ends before its framing says it should.
    Truncated {
        /// Actual frame length in bytes.
        len: usize,
        /// Bytes the framing requires.
        need: usize,
    },
    /// The stored CRC32 does not match the frame contents.
    Crc {
        /// Checksum carried in the frame header.
        stored: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// Bytes remain after the last framed block.
    Trailing {
        /// Number of unclaimed trailing bytes.
        extra: usize,
        /// Block count the header declared.
        count: usize,
    },
    /// A gathered frame's payload segment count does not match the block
    /// count its framing declares.
    Segments {
        /// Payload segments actually present.
        got: usize,
        /// Block count the framing declared.
        want: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { len, need } => {
                write!(f, "frame truncated: {len} bytes, need {need}")
            }
            WireError::Crc { stored, computed } => write!(
                f,
                "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Trailing { extra, count } => {
                write!(f, "frame has {extra} trailing bytes after {count} blocks")
            }
            WireError::Segments { got, want } => {
                write!(
                    f,
                    "gathered frame has {got} payload segments, framing declares {want}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC32/IEEE (reflected polynomial `0xEDB8_8320`) slicing-by-8 tables.
/// `table[0]` is the classic byte-at-a-time table; `table[k][b]` is
/// byte `b`'s contribution pushed through `k` further zero bytes, so
/// eight lookups fold eight input bytes in one step.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = table[t - 1][i];
            table[t][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    table
}

/// The slicing-by-8 tables, evaluated at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Portable CRC32 update: eight bytes per step through [`CRC_TABLES`],
/// then a byte-wise tail.
fn crc32_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Carry-less-multiply CRC32 for x86_64 (PCLMULQDQ): the bit-reflected
/// form of Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction" (Intel, 2009). [`super::crc32_update`]
/// lists its steps.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the fold takes: one 64-byte stride. It already
    /// beats the table walk there (~15 vs ~48 ns at 64 bytes on a
    /// 2-vCPU x86_64 container), so shorter inputs take the table walk
    /// only because the fold needs a whole stride.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants: `(x^n mod P(x))`, bit-reflected and shifted
    // left one, for the `n` noted; `P_X` and `MU` are `P(x)` and
    // `floor(x^64 / P(x))`, bit-reflected (33 bits each).
    const K1: i64 = 0x1_5444_2bd4; // n = 4*128 + 32
    const K2: i64 = 0x1_c6e4_1596; // n = 4*128 - 32
    const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    const K4: i64 = 0x0_ccaa_009e; // n = 128 - 32
    const K5: i64 = 0x1_63cd_6124; // n = 64
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Same contract as [`super::crc32_update`]; inputs shorter than
    /// [`MIN_LEN`] go straight to the table walk.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        if data.len() < MIN_LEN {
            return super::crc32_slice8(crc, data);
        }
        let mut strides = data.chunks_exact(64);
        let first = strides.next().expect("input holds at least one stride");
        let mut x = [0, 1, 2, 3].map(|i| load(&first[16 * i..16 * (i + 1)]));
        // The running state enters as the low 32 bits of the first lane.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for s in &mut strides {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = fold(*lane, load(&s[16 * i..16 * (i + 1)]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut chunks = strides.remainder().chunks_exact(16);
        for c in &mut chunks {
            acc = fold(acc, load(c), k3k4);
        }

        // 128 → 64 bits: the low half times x^(128-32), then the low 32
        // bits of that times x^64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction, 64 → 32 bits; the reflected result sits in
        // the upper half of the low qword.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::crc32_slice8(crc, chunks.remainder())
    }

    /// `next ^ lane * k`: the lane's low and high halves multiplied by
    /// `k`'s low and high constants, folded onto the next 16 bytes.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128(lane, k, 0x00)),
            _mm_clmulepi64_si128(lane, k, 0x11),
        )
    }

    fn load(chunk: &[u8]) -> __m128i {
        assert_eq!(chunk.len(), 16);
        // SAFETY: `chunk` holds the 16 bytes read, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }
}

/// Folds `data` into a running CRC32/IEEE state: start from `!0`,
/// finish by inverting. Chained calls over consecutive slices equal one
/// call over their concatenation, so multi-slice frames and records are
/// checksummed without concatenating.
///
/// Two paths compute the same value, picked per call by the CPU alone:
///
/// * on x86_64 CPUs with PCLMULQDQ, inputs of 64 bytes or more are
///   folded by carry-less multiplication: four 128-bit lanes across
///   64-byte strides, merged into one lane that folds the remaining
///   16-byte chunks, reduced 128 → 64 bits, then Barrett-reduced to
///   the 32-bit state; the byte tail goes to the table walk;
/// * every other input and CPU takes slicing-by-8: eight 256-entry
///   tables built at compile time, 8 bytes per step, then a byte-wise
///   tail.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` checked that this CPU has the features
        // `clmul::update` is compiled for.
        return unsafe { clmul::update(crc, data) };
    }
    crc32_slice8(crc, data)
}

/// CRC32/IEEE of `data` (the classic zlib `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// CRC a frame carries: over the `seq` field and everything after the
/// `crc` field.
fn frame_crc(seq: u32, tail: &[u8]) -> u32 {
    let crc = crc32_update(!0, &seq.to_le_bytes());
    !crc32_update(crc, tail)
}

/// Assembles one combined wire frame, materialized into the canonical
/// contiguous layout. `seq` is the global step number; block order is
/// preserved.
///
/// The frame is written once with a CRC placeholder, checksummed in a
/// single sequential pass over the assembled buffer, and patched — each
/// payload byte is touched exactly once per concern (one copy, one CRC
/// read of the contiguous buffer) instead of the old scattered
/// pre-assembly CRC walk followed by the copy pass.
pub fn encode_message(seq: u32, blocks: &[Block<Bytes>]) -> Bytes {
    let payload_total: usize = blocks.iter().map(|b| b.payload.len()).sum();
    let mut buf = BytesMut::with_capacity(
        MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES + payload_total,
    );
    buf.put_u32_le(seq);
    buf.put_u32_le(0); // CRC placeholder, patched below.
    buf.put_u32_le(blocks.len() as u32);
    for b in blocks {
        buf.put_u32_le(b.src);
        buf.put_u32_le(b.dst);
        buf.put_slice(&b.shifts);
        buf.put_u32_le(b.payload.len() as u32);
        buf.put_slice(&b.payload);
    }
    let crc = frame_crc(seq, &buf[MESSAGE_HEADER_BYTES - 4..]);
    buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    buf.freeze()
}

/// A frame as handed to the transport: one canonical byte layout, two
/// in-memory shapes (see the module docs for when each is used).
#[derive(Clone, Debug)]
pub enum WireFrame {
    /// The canonical layout in a single buffer.
    Contiguous(Bytes),
    /// Scatter-gather: all framing packed into one small buffer, payloads
    /// shared.
    Gathered {
        /// `seq, crc, count` plus `count` block headers, back to back.
        framing: BytesMut,
        /// One shared payload segment per block, in header order.
        payloads: Vec<Bytes>,
    },
}

impl WireFrame {
    /// Bytes this frame occupies on the wire (identical for both shapes
    /// of the same logical frame).
    pub fn wire_len(&self) -> usize {
        match self {
            WireFrame::Contiguous(b) => b.len(),
            WireFrame::Gathered { framing, payloads } => {
                framing.len() + payloads.iter().map(Bytes::len).sum::<usize>()
            }
        }
    }

    /// Materializes the canonical contiguous layout. For gathered frames
    /// this is the one place payload bytes are copied — the fault layer
    /// and recovery path call it to get mutable, well-defined frame
    /// bytes; the fault-free hot path never does.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            WireFrame::Contiguous(b) => b.clone(),
            WireFrame::Gathered { framing, payloads } => {
                let mut buf = BytesMut::with_capacity(self.wire_len());
                buf.put_slice(&framing[..MESSAGE_HEADER_BYTES]);
                let mut off = MESSAGE_HEADER_BYTES;
                for p in payloads {
                    buf.put_slice(&framing[off..off + BLOCK_HEADER_BYTES]);
                    buf.put_slice(p);
                    off += BLOCK_HEADER_BYTES;
                }
                buf.freeze()
            }
        }
    }

    /// Decodes either shape into `(seq, blocks)`.
    #[allow(clippy::missing_errors_doc)]
    pub fn decode(&self) -> Result<(u32, Vec<Block<Bytes>>), WireError> {
        match self {
            WireFrame::Contiguous(b) => decode_message(b),
            WireFrame::Gathered { framing, payloads } => {
                let mut segments = payloads.clone();
                let mut blocks = Vec::new();
                let seq = decode_gathered(framing, &mut segments, &mut blocks)?;
                Ok((seq, blocks))
            }
        }
    }
}

/// CRC of the canonical layout, streamed across the framing buffer and
/// the payload segments without materializing the frame. `framing` must
/// hold exactly `payloads.len()` block headers.
fn gathered_crc(framing: &[u8], payloads: &[Bytes]) -> u32 {
    let mut crc = crc32_update(!0, &framing[..CRC_OFFSET]);
    crc = crc32_update(crc, &framing[CRC_OFFSET + 4..MESSAGE_HEADER_BYTES]);
    let mut off = MESSAGE_HEADER_BYTES;
    for p in payloads {
        crc = crc32_update(crc, &framing[off..off + BLOCK_HEADER_BYTES]);
        crc = crc32_update(crc, p);
        off += BLOCK_HEADER_BYTES;
    }
    !crc
}

/// Assembles one combined wire frame in scatter-gather form: headers are
/// written into `framing` (recycled: cleared and reused), payloads are
/// shared by cloning each block's [`Bytes`] handle into `payloads`. No
/// payload byte is copied; the CRC (identical to the one
/// [`encode_message`] would stamp) is streamed across the segments.
pub fn encode_gathered(
    seq: u32,
    blocks: &[Block<Bytes>],
    mut framing: BytesMut,
    mut payloads: Vec<Bytes>,
) -> WireFrame {
    framing.clear();
    payloads.clear();
    framing.reserve(MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES);
    payloads.reserve(blocks.len());
    framing.put_u32_le(seq);
    framing.put_u32_le(0); // CRC placeholder, patched below.
    framing.put_u32_le(blocks.len() as u32);
    for b in blocks {
        framing.put_u32_le(b.src);
        framing.put_u32_le(b.dst);
        framing.put_slice(&b.shifts);
        framing.put_u32_le(b.payload.len() as u32);
        payloads.push(b.payload.clone());
    }
    let crc = gathered_crc(&framing, &payloads);
    framing[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    WireFrame::Gathered { framing, payloads }
}

/// Reads a `u32` from a slice already known to be long enough.
fn read_u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("length checked"))
}

/// Validates and splits a gathered frame: framing structure first, then
/// segment count and per-segment lengths, then the CRC over the
/// canonical layout — only a fully validated frame appends anything.
/// On success the segments are drained into `out` as blocks (zero-copy)
/// and the (now empty) `payloads` vec is left for recycling; returns the
/// frame's sequence number.
///
/// Errors mirror [`decode_message`]: `len`/`need` in [`WireError::Truncated`]
/// are total wire lengths, so a truncated gathered frame reports the same
/// coordinates its contiguous materialization would.
#[allow(clippy::missing_errors_doc)]
pub fn decode_gathered(
    framing: &[u8],
    payloads: &mut Vec<Bytes>,
    out: &mut Vec<Block<Bytes>>,
) -> Result<u32, WireError> {
    let segment_total: usize = payloads.iter().map(Bytes::len).sum();
    let wire_len = framing.len() + segment_total;
    if framing.len() < MESSAGE_HEADER_BYTES {
        return Err(WireError::Truncated {
            len: wire_len,
            need: MESSAGE_HEADER_BYTES,
        });
    }
    let seq = read_u32_at(framing, 0);
    let stored = read_u32_at(framing, CRC_OFFSET);
    let count = read_u32_at(framing, CRC_OFFSET + 4) as usize;
    let Some(framing_need) = count
        .checked_mul(BLOCK_HEADER_BYTES)
        .and_then(|n| n.checked_add(MESSAGE_HEADER_BYTES))
    else {
        return Err(WireError::Truncated {
            len: wire_len,
            need: usize::MAX,
        });
    };
    if framing.len() < framing_need {
        return Err(WireError::Truncated {
            len: wire_len,
            need: framing_need + segment_total,
        });
    }
    if framing.len() > framing_need {
        return Err(WireError::Trailing {
            extra: framing.len() - framing_need,
            count,
        });
    }
    if payloads.len() != count {
        return Err(WireError::Segments {
            got: payloads.len(),
            want: count,
        });
    }
    let mut declared_total = 0usize;
    let mut mismatch = false;
    for (i, p) in payloads.iter().enumerate() {
        let declared = read_u32_at(
            framing,
            MESSAGE_HEADER_BYTES + i * BLOCK_HEADER_BYTES + 8 + MAX_DIMS,
        ) as usize;
        declared_total += declared;
        mismatch |= declared != p.len();
    }
    if mismatch {
        return Err(WireError::Truncated {
            len: wire_len,
            need: framing.len() + declared_total,
        });
    }
    let computed = gathered_crc(framing, payloads);
    if stored != computed {
        return Err(WireError::Crc { stored, computed });
    }
    out.reserve(payloads.len());
    let mut off = MESSAGE_HEADER_BYTES;
    for p in payloads.drain(..) {
        let src = read_u32_at(framing, off);
        let dst = read_u32_at(framing, off + 4);
        let shifts: [u8; MAX_DIMS] = framing[off + 8..off + 8 + MAX_DIMS]
            .try_into()
            .expect("length checked");
        let mut b = Block::with_payload(src, dst, p);
        b.shifts = shifts;
        out.push(b);
        off += BLOCK_HEADER_BYTES;
    }
    Ok(seq)
}

fn read_u32(msg: &Bytes, off: usize) -> Result<u32, WireError> {
    let end = off + 4;
    let raw: [u8; 4] =
        msg.get(off..end)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated {
                len: msg.len(),
                need: end,
            })?;
    Ok(u32::from_le_bytes(raw))
}

/// Splits a combined wire frame back into `(seq, blocks)`. Payloads are
/// zero-copy slices of `msg`. Rejects truncated frames, CRC mismatches,
/// and over-long framing — every corruption mode the fault layer can
/// inject is *detected* here, never silently delivered.
pub fn decode_message(msg: &Bytes) -> Result<(u32, Vec<Block<Bytes>>), WireError> {
    let seq = read_u32(msg, 0)?;
    let stored = read_u32(msg, CRC_OFFSET)?;
    let count = read_u32(msg, CRC_OFFSET + 4)? as usize;
    let computed = frame_crc(seq, &msg[CRC_OFFSET + 4..]);
    if stored != computed {
        return Err(WireError::Crc { stored, computed });
    }
    let mut off = MESSAGE_HEADER_BYTES;
    // `count` is only as trustworthy as the CRC, which a frame built to
    // pass it can satisfy: reserve no more blocks than the bytes could
    // hold, so an absurd count fails as `Truncated`, not as an abort.
    let mut blocks =
        Vec::with_capacity(count.min((msg.len() - MESSAGE_HEADER_BYTES) / BLOCK_HEADER_BYTES));
    for _ in 0..count {
        let src = read_u32(msg, off)?;
        let dst = read_u32(msg, off + 4)?;
        let shifts_end = off + 8 + MAX_DIMS;
        let shifts: [u8; MAX_DIMS] = msg
            .get(off + 8..shifts_end)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated {
                len: msg.len(),
                need: shifts_end,
            })?;
        let len = read_u32(msg, shifts_end)? as usize;
        let start = shifts_end + 4;
        let end = start + len;
        if end > msg.len() {
            return Err(WireError::Truncated {
                len: msg.len(),
                need: end,
            });
        }
        let mut b = Block::with_payload(src, dst, msg.slice(start..end));
        b.shifts = shifts;
        blocks.push(b);
        off = end;
    }
    if off != msg.len() {
        return Err(WireError::Trailing {
            extra: msg.len() - off,
            count,
        });
    }
    Ok((seq, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::pattern_payload;
    use proptest::prelude::*;

    fn sample_blocks() -> Vec<Block<Bytes>> {
        let mut blocks = Vec::new();
        for (s, d, len) in [(0u32, 5u32, 16usize), (0, 9, 0), (0, 2, 33)] {
            let mut b = Block::with_payload(s, d, pattern_payload(s, d, len));
            b.shifts[0] = (d % 3) as u8;
            b.shifts[1] = 1;
            blocks.push(b);
        }
        blocks
    }

    #[test]
    fn roundtrip_preserves_blocks_and_seq() {
        let blocks = sample_blocks();
        let msg = encode_message(7, &blocks);
        let expected_len = MESSAGE_HEADER_BYTES
            + blocks.len() * BLOCK_HEADER_BYTES
            + blocks.iter().map(|b| b.payload.len()).sum::<usize>();
        assert_eq!(msg.len(), expected_len);
        let (seq, back) = decode_message(&msg).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, blocks);
    }

    #[test]
    fn empty_message_roundtrips() {
        let msg = encode_message(0, &[]);
        assert_eq!(msg.len(), MESSAGE_HEADER_BYTES);
        let (seq, blocks) = decode_message(&msg).unwrap();
        assert_eq!(seq, 0);
        assert!(blocks.is_empty());
    }

    #[test]
    fn decoded_payloads_are_zero_copy() {
        let blocks = sample_blocks();
        let msg = encode_message(3, &blocks);
        let (_, back) = decode_message(&msg).unwrap();
        // A Bytes slice of `msg` shares its allocation: the slice's
        // pointer lies inside the message buffer.
        let msg_range = msg.as_ptr() as usize..msg.as_ptr() as usize + msg.len();
        for b in &back {
            if !b.payload.is_empty() {
                assert!(msg_range.contains(&(b.payload.as_ptr() as usize)));
            }
        }
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let msg = encode_message(1, &sample_blocks());
        for cut in [0, 2, MESSAGE_HEADER_BYTES + 3, msg.len() - 1] {
            let short = msg.slice(..cut);
            assert!(
                matches!(
                    decode_message(&short),
                    Err(WireError::Truncated { .. } | WireError::Crc { .. })
                ),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let msg = encode_message(5, &sample_blocks());
        for i in 0..msg.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = msg.to_vec();
                bad[i] ^= flip;
                let bad = Bytes::from(bad);
                assert!(
                    decode_message(&bad).is_err(),
                    "corrupting byte {i} with {flip:#x} must be detected"
                );
            }
        }
    }

    #[test]
    fn crc_mismatch_names_both_checksums() {
        let msg = encode_message(2, &sample_blocks());
        let mut bad = msg.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        match decode_message(&Bytes::from(bad)) {
            Err(WireError::Crc { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Crc error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Extend the frame and re-stamp a valid CRC so the trailing check
        // itself (not the CRC) is what fires.
        let msg = encode_message(4, &sample_blocks());
        let mut long = msg.to_vec();
        long.push(0xAB);
        let crc = {
            let tail = &long[CRC_OFFSET + 4..];
            frame_crc(4, tail)
        };
        long[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        let err = decode_message(&Bytes::from(long)).unwrap_err();
        assert!(matches!(err, WireError::Trailing { extra: 1, .. }), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic zlib check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(!crc32_slice8(!0, b"123456789"), 0xCBF4_3926);
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` checked the CPU features.
            assert_eq!(!unsafe { clmul::update(!0, b"123456789") }, 0xCBF4_3926);
        }
    }

    /// Bit-at-a-time CRC32/IEEE update: the definition both fast paths
    /// are checked against.
    fn reference_update(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    /// Checks `update` against [`reference_update`] for every length
    /// 0..=1100, at start offsets 0..16 (every alignment) and from three
    /// initial states.
    fn crc_cross_check(path: &str, update: impl Fn(u32, &[u8]) -> u32) {
        const MAX_LEN: usize = 1100;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..MAX_LEN + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for offset in 0..16 {
            for init in [!0u32, 0, 0x5EED_1234] {
                let mut want = init;
                for len in 0..=MAX_LEN {
                    if len > 0 {
                        want = reference_update(want, &data[offset + len - 1..offset + len]);
                    }
                    let got = update(init, &data[offset..offset + len]);
                    assert_eq!(
                        got, want,
                        "{path}: len {len}, offset {offset}, init {init:#010x}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc_slicing_by_8_matches_reference() {
        crc_cross_check("slicing-by-8", crc32_slice8);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc_pclmul_matches_reference() {
        if !clmul::available() {
            eprintln!("no PCLMULQDQ on this CPU: only the table walk is checked");
            return;
        }
        // SAFETY: `available` checked the CPU features.
        crc_cross_check("pclmul", |crc, data| unsafe { clmul::update(crc, data) });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The streaming property `gathered_crc` relies on: any split of
        /// the input into chained `crc32_update` calls gives the one-shot
        /// CRC, whichever path each piece takes.
        #[test]
        fn crc_streaming_split_matches_one_shot(
            data in prop::collection::vec(any::<u8>(), 0..2048),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = !0;
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc = crc32_update(crc, &data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(!crc, crc32(&data));
            prop_assert_eq!(!crc, !reference_update(!0, &data));
        }
    }

    /// `encode_message(7, &sample_blocks())`, CRC included: the wire
    /// format pinned byte for byte. Rows: `seq crc count`, then per block
    /// `src dst shifts len` and its payload (block 0 -> 9 has none).
    const GOLDEN_FRAME: &str = "\
        07000000 31a176f8 03000000 \
        00000000 05000000 0201000000000000 10000000 \
        3542257146e2d6fa756f4dddaba111a7 \
        00000000 09000000 0001000000000000 00000000 \
        00000000 02000000 0201000000000000 21000000 \
        b484d70f4f4c686495ec75a2d1ec5619cf0ab4553bcba590d8488a7464a9d57b1c";

    #[test]
    fn golden_frame_bytes_are_pinned_for_both_shapes() {
        let golden: Vec<u8> = GOLDEN_FRAME
            .split_whitespace()
            .flat_map(|field| {
                (0..field.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&field[i..i + 2], 16).unwrap())
            })
            .collect();
        let blocks = sample_blocks();
        assert_eq!(encode_message(7, &blocks)[..], golden[..]);
        assert_eq!(gather(7, &blocks).to_bytes()[..], golden[..]);
    }

    #[test]
    fn crc_valid_frame_with_absurd_count_is_truncated_not_an_abort() {
        // A bare header claiming u32::MAX blocks, with a CRC that matches:
        // only the length checks stand between it and a huge reservation.
        let count = u32::MAX.to_le_bytes();
        let mut frame = vec![0u8; MESSAGE_HEADER_BYTES];
        frame[CRC_OFFSET + 4..].copy_from_slice(&count);
        frame[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&frame_crc(0, &count).to_le_bytes());
        assert_eq!(
            decode_message(&Bytes::from(frame)),
            Err(WireError::Truncated {
                len: MESSAGE_HEADER_BYTES,
                need: MESSAGE_HEADER_BYTES + 4,
            })
        );
    }

    fn gather(seq: u32, blocks: &[Block<Bytes>]) -> WireFrame {
        encode_gathered(seq, blocks, BytesMut::new(), Vec::new())
    }

    #[test]
    fn gathered_materializes_to_identical_canonical_bytes() {
        let blocks = sample_blocks();
        let contiguous = encode_message(9, &blocks);
        let gathered = gather(9, &blocks);
        assert_eq!(gathered.wire_len(), contiguous.len());
        assert_eq!(gathered.to_bytes(), contiguous);
        // And the materialization decodes through the contiguous path.
        let (seq, back) = decode_message(&gathered.to_bytes()).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(back, blocks);
    }

    #[test]
    fn gathered_shares_payloads_without_copying() {
        let blocks = sample_blocks();
        let WireFrame::Gathered { framing, payloads } = gather(1, &blocks) else {
            panic!("encode_gathered must produce a gathered frame");
        };
        assert_eq!(
            framing.len(),
            MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES
        );
        for (p, b) in payloads.iter().zip(&blocks) {
            // Same allocation, not a copy.
            assert_eq!(p.as_ptr(), b.payload.as_ptr());
            assert_eq!(p.len(), b.payload.len());
        }
    }

    #[test]
    fn decode_gathered_round_trips_and_recycles_the_vec() {
        let blocks = sample_blocks();
        let WireFrame::Gathered {
            framing,
            mut payloads,
        } = gather(6, &blocks)
        else {
            panic!("expected gathered");
        };
        let mut out = Vec::new();
        let seq = decode_gathered(&framing, &mut payloads, &mut out).unwrap();
        assert_eq!(seq, 6);
        assert_eq!(out, blocks);
        assert!(payloads.is_empty(), "segments are drained for recycling");
    }

    #[test]
    fn gathered_buffers_are_recycled_across_encodes() {
        let blocks = sample_blocks();
        let WireFrame::Gathered { framing, payloads } = gather(1, &blocks) else {
            panic!("expected gathered");
        };
        let cap_before = framing.capacity();
        // Re-encoding into the recycled buffers must not grow them.
        let WireFrame::Gathered { framing, .. } = encode_gathered(2, &blocks, framing, payloads)
        else {
            panic!("expected gathered");
        };
        assert_eq!(framing.capacity(), cap_before);
    }

    #[test]
    fn gathered_structural_damage_is_rejected_not_panicking() {
        let blocks = sample_blocks();
        let frame = gather(3, &blocks);
        let WireFrame::Gathered { framing, payloads } = frame else {
            panic!("expected gathered");
        };

        // Truncated framing at every cut point.
        for cut in 0..framing.len() {
            let mut segs = payloads.clone();
            let mut out = Vec::new();
            let r = decode_gathered(&framing[..cut], &mut segs, &mut out);
            assert!(r.is_err(), "framing cut at {cut} must fail");
            assert!(out.is_empty(), "nothing may be delivered on error");
        }

        // A dropped payload segment.
        let mut segs = payloads.clone();
        segs.pop();
        let mut out = Vec::new();
        assert_eq!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Segments {
                got: payloads.len() - 1,
                want: payloads.len(),
            })
        );

        // A shrunken segment (declared length no longer matches).
        let mut segs = payloads.clone();
        let full = segs[0].clone();
        segs[0] = full.slice(..full.len() - 1);
        let mut out = Vec::new();
        assert!(matches!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Truncated { .. })
        ));

        // A corrupted payload byte trips the CRC.
        let mut segs = payloads.clone();
        let mut bad = segs[0].to_vec();
        bad[0] ^= 0x01;
        segs[0] = Bytes::from(bad);
        let mut out = Vec::new();
        assert!(matches!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Crc { .. })
        ));
    }

    #[test]
    fn wireframe_decode_handles_both_shapes() {
        let blocks = sample_blocks();
        let g = gather(4, &blocks);
        let c = WireFrame::Contiguous(encode_message(4, &blocks));
        let (gs, gb) = g.decode().unwrap();
        let (cs, cb) = c.decode().unwrap();
        assert_eq!(gs, cs);
        assert_eq!(gb, cb);
        assert_eq!(g.wire_len(), c.wire_len());
    }

    #[test]
    fn stale_seq_is_distinguishable() {
        let a = encode_message(1, &[]);
        let b = encode_message(2, &[]);
        assert_ne!(a, b);
        assert_eq!(decode_message(&a).unwrap().0, 1);
        assert_eq!(decode_message(&b).unwrap().0, 2);
    }
}
