//! Length-prefixed message framing over byte streams: the 8-byte header
//! (shared with the device's offload engine, so re-exported from
//! [`dpdk_sim::wire::framing`]) and the host's decoder over received
//! chunks, which it holds in a [`ByteStream`]. Extraction is zero-copy
//! when a message lies within one chunk; [`FramingStats`] exposes the
//! reassembly copies and the *partial inspections* a stream interface
//! forces (experiment E3's "Redis inspects the pipe and finds its read
//! incomplete" scenario).

use demi_memory::{ByteStream, DemiBuffer};

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
    stream: ByteStream,
    stats: FramingStats,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received stream chunk (zero-copy handle).
    pub fn push_chunk(&mut self, chunk: DemiBuffer) {
        self.stream.push(chunk);
    }

    /// Total bytes buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.stream.len()
    }

    /// Attempts to extract the next complete message.
    ///
    /// Returns `Ok(None)` when the buffered bytes do not yet contain a full
    /// message (counted as a partial inspection when non-empty), and an
    /// error if the stream desynchronized (bad magic or absurd length).
    pub fn next_message(&mut self) -> Result<Option<DemiBuffer>, NetError> {
        // Peeked onto the stack: an inspection never touches the heap.
        let mut header = [0u8; FRAME_HEADER_LEN];
        let have = self.stream.peek(&mut header);
        let taken = match parse_header(&header[..have])? {
            Some(len) if self.stream.len() >= FRAME_HEADER_LEN + len => {
                self.stream.advance(FRAME_HEADER_LEN);
                self.stream.take(len)
            }
            _ => None,
        };
        let Some((msg, gathered)) = taken else {
            if !self.stream.is_empty() {
                self.stats.partial_inspections += 1;
            }
            return Ok(None);
        };
        if gathered {
            self.stats.reassembly_copies += 1;
        } else if !msg.is_empty() {
            self.stats.zero_copy_extractions += 1;
        }
        self.stats.messages += 1;
        Ok(Some(msg))
    }

    /// Decoder counters.
    pub fn stats(&self) -> FramingStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::wire::framing::{encode_header, encode_message, MAX_FRAME_LEN};
    use sim_fabric::SimRng;

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

    const SEED: u64 = 0xF4A3E;

    /// Names the failing case whether it failed by assertion or by a panic
    /// inside the decoder.
    struct Repro(u32);

    impl Drop for Repro {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("reproduce with: seed={SEED:#x} case={}", self.0);
            }
        }
    }

    fn below(rng: &mut SimRng, n: usize) -> usize {
        (rng.next_u64() % n.max(1) as u64) as usize
    }

    /// One to six framed messages, then up to three mutations: a bit flip
    /// anywhere or inside a header, a header's length spliced to a small,
    /// bounding or absurd value, a truncation, or an inserted byte.
    fn mutated_stream(rng: &mut SimRng) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut headers = Vec::new();
        for _ in 0..1 + below(rng, 6) {
            headers.push(wire.len());
            let body: Vec<u8> = (0..below(rng, 64)).map(|_| rng.next_u64() as u8).collect();
            wire.extend_from_slice(&encode_message(&body));
        }
        for _ in 0..below(rng, 4) {
            let header = headers[below(rng, headers.len())];
            match below(rng, 5) {
                0 if !wire.is_empty() => {
                    let at = below(rng, wire.len());
                    wire[at] ^= 1 << below(rng, 8);
                }
                1 if header + FRAME_HEADER_LEN <= wire.len() => {
                    wire[header + below(rng, FRAME_HEADER_LEN)] ^= 1 << below(rng, 8);
                }
                2 if header + FRAME_HEADER_LEN <= wire.len() => {
                    let len = match below(rng, 4) {
                        0 => MAX_FRAME_LEN,
                        1 => MAX_FRAME_LEN + 1,
                        2 => u32::MAX as usize,
                        _ => below(rng, 96),
                    };
                    wire[header + 4..header + 8].copy_from_slice(&(len as u32).to_be_bytes());
                }
                3 => wire.truncate(below(rng, wire.len() + 1)),
                _ => wire.insert(below(rng, wire.len() + 1), rng.next_u64() as u8),
            }
        }
        wire
    }

    /// A decode: the messages before the first error, that error (`Ok` if
    /// the stream just ends) and the bytes left undecoded.
    type Decoded = (Vec<Vec<u8>>, Result<(), NetError>, usize);

    /// The oracle: a `parse_header` loop over the contiguous stream.
    fn reference_decode(wire: &[u8]) -> Decoded {
        let mut messages = Vec::new();
        let mut rest = wire;
        loop {
            let header = &rest[..rest.len().min(FRAME_HEADER_LEN)];
            match parse_header(header).map_err(NetError::from) {
                Ok(Some(len)) if rest.len() >= FRAME_HEADER_LEN + len => {
                    messages.push(rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec());
                    rest = &rest[FRAME_HEADER_LEN + len..];
                }
                Ok(_) => return (messages, Ok(()), rest.len()),
                Err(e) => return (messages, Err(e), rest.len()),
            }
        }
    }

    /// The decoder fed `wire` in random chunks (1 byte, up to 24, or up to
    /// 300 at a time), drained after every push as a libOS pop would.
    fn decode_rechunked(wire: &[u8], rng: &mut SimRng) -> Decoded {
        let most = [1, 24, 300][below(rng, 3)];
        let mut dec = FrameDecoder::new();
        let mut messages = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let take = (1 + below(rng, most)).min(wire.len() - pos);
            dec.push_chunk(DemiBuffer::from_slice(&wire[pos..pos + take]));
            pos += take;
            loop {
                match dec.next_message() {
                    Ok(Some(msg)) => messages.push(msg.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (messages, Err(e), wire.len() - pos + dec.buffered_bytes()),
                }
            }
        }
        (messages, Ok(()), dec.buffered_bytes())
    }

    /// Host half of the device ⊆ host differential (`dpdk-sim`'s
    /// `tests/device_subset_of_host.rs` has the device half): however a
    /// spliced header is cut into chunks, the decoder rejects exactly what
    /// `parse_header` rejects, for the same reason, and never earlier than
    /// the byte that gives it away. Then whole streams: messages with
    /// mutated headers and bodies, re-chunked at random, decode to exactly
    /// the messages, the error and the leftover a contiguous `parse_header`
    /// loop finds. A failure prints `seed=… case=…`.
    #[test]
    fn decoder_rejects_exactly_the_headers_parse_header_rejects() {
        const CASES: u32 = if cfg!(debug_assertions) {
            2_000
        } else {
            50_000
        };
        let mut rng = SimRng::new(SEED);
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
        for case in CASES..CASES + CASES / 4 {
            let _repro = Repro(case);
            let wire = mutated_stream(&mut rng);
            assert_eq!(decode_rechunked(&wire, &mut rng), reference_decode(&wire));
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
