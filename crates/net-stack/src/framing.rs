//! Length-prefixed message framing over byte streams: the 8-byte header
//! (shared with the device's offload engine, so re-exported from
//! [`dpdk_sim::wire::framing`]) and the host's decoder over received
//! chunks. Extraction is zero-copy when a message lies within one chunk;
//! [`FramingStats`] exposes the reassembly copies and the *partial
//! inspections* a stream interface forces (experiment E3's "Redis inspects
//! the pipe and finds its read incomplete" scenario).

use std::collections::VecDeque;

use demi_memory::{counters, DemiBuffer};

use dpdk_sim::wire::framing::{parse_header, FRAME_HEADER_LEN};

use crate::types::NetError;

/// Decoder-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FramingStats {
    /// Complete messages extracted.
    pub messages: u64,
    /// Extractions served zero-copy (message within one chunk).
    pub zero_copy_extractions: u64,
    /// Extractions that had to copy across chunk boundaries.
    pub reassembly_copies: u64,
    /// `next_message` calls that found only part of a message buffered —
    /// the wasted inspections a stream abstraction forces on the app.
    pub partial_inspections: u64,
}

/// Reassembles messages from a stream of received chunks.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    chunks: VecDeque<DemiBuffer>,
    buffered: usize,
    stats: FramingStats,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received stream chunk (zero-copy handle).
    pub fn push_chunk(&mut self, chunk: DemiBuffer) {
        if chunk.is_empty() {
            return;
        }
        self.buffered += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Total bytes buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Attempts to extract the next complete message.
    ///
    /// Returns `Ok(None)` when the buffered bytes do not yet contain a full
    /// message (counted as a partial inspection when non-empty), and an
    /// error if the stream desynchronized (bad magic or absurd length).
    pub fn next_message(&mut self) -> Result<Option<DemiBuffer>, NetError> {
        // Gathered onto the stack: an inspection never touches the heap.
        let mut header = [0u8; FRAME_HEADER_LEN];
        let bytes = self.chunks.iter().flat_map(|chunk| chunk.as_slice());
        let have = header.iter_mut().zip(bytes).map(|(h, &b)| *h = b).count();
        let len = match parse_header(&header[..have])? {
            Some(len) if self.buffered >= FRAME_HEADER_LEN + len => len,
            _ => {
                if self.buffered > 0 {
                    self.stats.partial_inspections += 1;
                }
                return Ok(None);
            }
        };
        self.discard(FRAME_HEADER_LEN);
        let msg = self.extract(len);
        self.stats.messages += 1;
        Ok(Some(msg))
    }

    /// Decoder counters.
    pub fn stats(&self) -> FramingStats {
        self.stats
    }

    fn discard(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("enough buffered");
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                front.advance(n);
                n = 0;
            }
        }
    }

    fn extract(&mut self, len: usize) -> DemiBuffer {
        if len == 0 {
            return DemiBuffer::empty();
        }
        self.buffered -= len;
        let front = self.chunks.front_mut().expect("enough buffered");
        if front.len() >= len {
            // Fast path: the whole message lives in one chunk — zero-copy.
            self.stats.zero_copy_extractions += 1;
            let msg = front.slice(0, len);
            front.advance(len);
            if front.is_empty() {
                self.chunks.pop_front();
            }
            return msg;
        }
        // Slow path: the message spans chunks; reassemble into one buffer.
        self.stats.reassembly_copies += 1;
        counters::note_copy(len);
        let mut out = DemiBuffer::zeroed(len);
        let dst = out.try_mut().expect("fresh buffer is exclusive");
        let mut filled = 0;
        while filled < len {
            let front = self.chunks.front_mut().expect("enough buffered");
            let take = front.len().min(len - filled);
            dst[filled..filled + take].copy_from_slice(&front.as_slice()[..take]);
            front.advance(take);
            if front.is_empty() {
                self.chunks.pop_front();
            }
            filled += take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::wire::framing::{encode_header, encode_message, MAX_FRAME_LEN};

    #[test]
    fn single_chunk_message_is_zero_copy() {
        let mut dec = FrameDecoder::new();
        let wire = encode_message(b"atomic unit");
        assert_eq!(wire.len(), b"atomic unit".len() + 8, "E9: 8 B a message");
        dec.push_chunk(DemiBuffer::from_slice(&wire));
        let msg = dec.next_message().unwrap().expect("complete");
        assert_eq!(msg.as_slice(), b"atomic unit");
        let s = dec.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.zero_copy_extractions, 1);
        assert_eq!(s.reassembly_copies, 0);
    }

    #[test]
    fn fragmented_message_reassembles_with_one_copy() {
        let mut dec = FrameDecoder::new();
        let wire = encode_message(b"split across many chunks");
        for piece in wire.chunks(5) {
            dec.push_chunk(DemiBuffer::from_slice(piece));
        }
        let msg = dec.next_message().unwrap().expect("complete");
        assert_eq!(msg.as_slice(), b"split across many chunks");
        assert_eq!(dec.stats().reassembly_copies, 1);
    }

    #[test]
    fn partial_inspections_are_counted() {
        let mut dec = FrameDecoder::new();
        let wire = encode_message(&[7u8; 100]);
        dec.push_chunk(DemiBuffer::from_slice(&wire[..50]));
        assert!(dec.next_message().unwrap().is_none());
        assert!(dec.next_message().unwrap().is_none());
        assert_eq!(dec.stats().partial_inspections, 2);
        dec.push_chunk(DemiBuffer::from_slice(&wire[50..]));
        assert!(dec.next_message().unwrap().is_some());
    }

    #[test]
    fn back_to_back_messages_in_one_chunk() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_message(b"first");
        wire.extend_from_slice(&encode_message(b"second"));
        dec.push_chunk(DemiBuffer::from_slice(&wire));
        assert_eq!(dec.next_message().unwrap().unwrap().as_slice(), b"first");
        assert_eq!(dec.next_message().unwrap().unwrap().as_slice(), b"second");
        assert!(dec.next_message().unwrap().is_none());
        assert_eq!(dec.buffered_bytes(), 0);
    }

    #[test]
    fn empty_message_round_trips() {
        let mut dec = FrameDecoder::new();
        dec.push_chunk(DemiBuffer::from_slice(&encode_message(b"")));
        let msg = dec.next_message().unwrap().expect("complete");
        assert!(msg.is_empty());
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_message(b"x");
        wire[0] = b'X';
        dec.push_chunk(DemiBuffer::from_slice(&wire));
        assert_eq!(dec.next_message(), Err(NetError::Malformed("frame magic")));
    }

    #[test]
    fn absurd_length_is_rejected() {
        let mut dec = FrameDecoder::new();
        let mut h = encode_header(0).to_vec();
        h[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        dec.push_chunk(DemiBuffer::from_slice(&h));
        assert_eq!(dec.next_message(), Err(NetError::Malformed("frame length")));
    }

    /// Host half of the device ⊆ host differential (`dpdk-sim`'s
    /// `tests/device_subset_of_host.rs` has the device half): however a
    /// spliced header is cut into chunks, the decoder rejects exactly what
    /// `parse_header` rejects, for the same reason, and never earlier than
    /// the byte that gives it away.
    #[test]
    fn decoder_rejects_exactly_the_headers_parse_header_rejects() {
        const CASES: u32 = if cfg!(debug_assertions) {
            2_000
        } else {
            50_000
        };
        let mut rng = sim_fabric::SimRng::new(0xF4A3E);
        for case in 0..CASES {
            let len = match rng.next_u64() % 5 {
                0 => 0,
                1 => MAX_FRAME_LEN,
                2 => MAX_FRAME_LEN + 1,
                3 => u32::MAX as usize,
                _ => rng.next_u64() as u32 as usize,
            };
            let mut header = encode_header(len);
            if rng.chance(0.25) {
                header[(rng.next_u64() % 4) as usize] ^= 1 << (rng.next_u64() % 8);
            }
            // A header with no body behind it: only the empty message is
            // complete.
            let verdict = |bytes: &[u8]| {
                let len = parse_header(bytes).map_err(NetError::from);
                len.map(|len| len.filter(|&len| len == 0))
            };
            let pop = |dec: &mut FrameDecoder| dec.next_message().map(|m| m.map(|m| m.len()));
            let cut = (rng.next_u64() % 9) as usize;
            let mut dec = FrameDecoder::new();
            dec.push_chunk(DemiBuffer::from_slice(&header[..cut]));
            assert_eq!(pop(&mut dec), verdict(&header[..cut]), "{case}");
            if cut < FRAME_HEADER_LEN && verdict(&header[..cut]).is_ok() {
                dec.push_chunk(DemiBuffer::from_slice(&header[cut..]));
                assert_eq!(pop(&mut dec), verdict(&header), "{case}");
            }
        }
    }

    #[test]
    fn header_split_across_chunks() {
        let mut dec = FrameDecoder::new();
        let wire = encode_message(b"payload");
        dec.push_chunk(DemiBuffer::from_slice(&wire[..3]));
        assert!(dec.next_message().unwrap().is_none());
        dec.push_chunk(DemiBuffer::from_slice(&wire[3..]));
        assert_eq!(dec.next_message().unwrap().unwrap().as_slice(), b"payload");
    }
}
