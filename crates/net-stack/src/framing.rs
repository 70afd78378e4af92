//! Length-prefixed message framing over byte streams.
//!
//! Demikernel queues carry *atomic data units*: a scatter-gather array
//! pushed on one end pops out as a single element on the other (paper
//! §4.2). UDP and RDMA preserve message boundaries natively, but TCP is a
//! byte stream, so the libOS "inserts the needed framing itself (e.g., atop
//! a TCP stream)" — the first option paper §5.2 discusses. This module is
//! that framing: a fixed 8-byte header (magic + length) ahead of each
//! message.
//!
//! The decoder is deliberately honest about the costs the paper talks
//! about: extraction is zero-copy when a message lies within one received
//! chunk, and the [`FramingStats`] counters expose both reassembly copies
//! and the *partial inspections* a stream interface forces (experiment E3's
//! "Redis inspects the pipe and finds its read incomplete" scenario).

use std::collections::VecDeque;

use demi_memory::{counters, DemiBuffer};

use crate::types::NetError;

/// Frame header: 4-byte magic + 4-byte big-endian length.
pub const FRAME_HEADER_LEN: usize = 8;

/// Magic tag guarding against desynchronization ("DEMI").
pub const FRAME_MAGIC: [u8; 4] = *b"DEMI";

/// Largest message the framing accepts (guards against corrupt lengths).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

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

/// Encodes one message: returns the 8-byte header to send ahead of the
/// payload (the payload itself travels zero-copy).
pub fn encode_header(payload_len: usize) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0..4].copy_from_slice(&FRAME_MAGIC);
    h[4..8].copy_from_slice(&(payload_len as u32).to_be_bytes());
    h
}

/// Convenience: header + payload in one buffer (copies; used by tests and
/// the POSIX baseline, which copies anyway).
pub fn encode_message(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&encode_header(payload.len()));
    out.extend_from_slice(payload);
    out
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
        if self.buffered < FRAME_HEADER_LEN {
            if self.buffered > 0 {
                self.stats.partial_inspections += 1;
            }
            return Ok(None);
        }
        let header = self.peek(FRAME_HEADER_LEN);
        if header[0..4] != FRAME_MAGIC {
            return Err(NetError::Malformed("frame magic"));
        }
        let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(NetError::Malformed("frame length"));
        }
        if self.buffered < FRAME_HEADER_LEN + len {
            self.stats.partial_inspections += 1;
            return Ok(None);
        }
        self.discard(FRAME_HEADER_LEN);
        let msg = self.extract(len);
        self.stats.messages += 1;
        Ok(Some(msg))
    }

    /// Decoder counters.
    pub fn stats(&self) -> FramingStats {
        self.stats
    }

    fn peek(&self, n: usize) -> Vec<u8> {
        debug_assert!(self.buffered >= n);
        let mut out = Vec::with_capacity(n);
        for chunk in &self.chunks {
            let take = chunk.len().min(n - out.len());
            out.extend_from_slice(&chunk.as_slice()[..take]);
            if out.len() == n {
                break;
            }
        }
        out
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
