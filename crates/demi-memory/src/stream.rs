//! The received half of a byte stream: what a connection has received and
//! not yet consumed, as the zero-copy [`DemiBuffer`] views it arrived in.
//! Protocol headers are peeked onto the reader's stack; a payload is taken
//! as a view of the front chunk when that chunk holds all of it, else as
//! one counted gather. net-stack's `FrameDecoder` and demi-kv's RESP
//! parser both read their received bytes through this one rule.

use std::collections::VecDeque;

use crate::DemiBuffer;

/// Received, unconsumed bytes: the chunks in arrival order, the front one
/// advanced in place as bytes are consumed, and their total length.
#[derive(Debug, Default)]
pub struct ByteStream {
    chunks: VecDeque<DemiBuffer>,
    len: usize,
}

impl ByteStream {
    /// Appends one received chunk: the handle is kept, not the bytes. An
    /// empty chunk is dropped.
    pub fn push(&mut self, chunk: DemiBuffer) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Bytes buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the first `out.len()` buffered bytes (all of them, if fewer
    /// are buffered) into `out` and returns how many it copied. Consumes
    /// nothing.
    pub fn peek(&self, out: &mut [u8]) -> usize {
        let mut n = 0;
        for piece in self.prefix(out.len()) {
            out[n..n + piece.len()].copy_from_slice(piece);
            n += piece.len();
        }
        n
    }

    /// Drops the first `n` bytes (every byte, if fewer are buffered) and
    /// releases each chunk that empties.
    pub fn advance(&mut self, n: usize) {
        let mut left = n.min(self.len);
        self.len -= left;
        while let Some(front) = self.chunks.front_mut().filter(|_| left > 0) {
            if left < front.len() {
                front.advance(left);
                return;
            }
            left -= front.len();
            self.chunks.pop_front();
        }
    }

    /// Takes the first `n` bytes and says whether they were gathered: a
    /// view of the front chunk (`false`) when it holds all `n`, else one
    /// [`DemiBuffer::gather`] (`true`) with no headroom, so the copy stays
    /// in the size class of its `n` bytes. `None`, with nothing consumed,
    /// while fewer than `n` bytes are buffered.
    pub fn take(&mut self, n: usize) -> Option<(DemiBuffer, bool)> {
        if n == 0 {
            return Some((DemiBuffer::empty(), false));
        }
        if n > self.len {
            return None;
        }
        if let Some(front) = self.chunks.front().filter(|front| front.len() >= n) {
            let view = front.slice(0, n);
            self.advance(n);
            return Some((view, false));
        }
        let bytes = DemiBuffer::gather(0, n, &self.chunks);
        self.advance(n);
        Some((bytes, true))
    }

    /// The first `n` buffered bytes (fewer, if fewer are buffered), one
    /// slice per chunk they span.
    fn prefix(&self, n: usize) -> impl Iterator<Item = &[u8]> {
        let mut left = n;
        self.chunks.iter().map_while(move |chunk| {
            let piece = &chunk[..chunk.len().min(left)];
            left -= piece.len();
            (!piece.is_empty()).then_some(piece)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counters, TenantId};

    fn stream_of(pieces: &[&[u8]]) -> ByteStream {
        let mut stream = ByteStream::default();
        for piece in pieces {
            stream.push(DemiBuffer::from_slice(piece));
        }
        stream
    }

    #[test]
    fn a_take_inside_the_front_chunk_is_a_view() {
        let chunk = DemiBuffer::from_slice(b"0123456789");
        let mut stream = ByteStream::default();
        stream.push(chunk.clone());
        stream.advance(2);
        let before = counters::snapshot();
        let (view, gathered) = stream.take(5).expect("buffered");
        let delta = counters::snapshot().delta(&before);
        assert!(!gathered);
        assert_eq!(view.as_slice(), b"23456");
        assert!(view.same_storage(&chunk), "the same storage, not a copy");
        assert_eq!((delta.allocs, delta.copies), (0, 0));
        assert_eq!(stream.len(), 3);
    }

    #[test]
    fn a_take_across_chunks_is_one_counted_gather() {
        let mut stream = stream_of(&[b"ab", b"cde", b"fghij"]);
        stream.advance(1);
        let before = counters::snapshot();
        let (bytes, gathered) = stream.take(6).expect("buffered");
        let delta = counters::snapshot().delta(&before);
        assert!(gathered);
        assert_eq!(bytes.as_slice(), b"bcdefg");
        assert_eq!(delta.allocs, 1);
        assert_eq!(delta.copies, 1);
        assert_eq!(delta.bytes_copied, 6);
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.take(3).expect("buffered").0.as_slice(), b"hij");
    }

    /// A reassembled argument is its owner's, as a view of one chunk is:
    /// under the host supervisor, tenant T's message split across two
    /// chunks comes back T-owned, not host-owned (public).
    #[test]
    fn a_take_across_chunks_keeps_the_owners_stamp() {
        let t = TenantId(5);
        let mut stream = demi_tenant::scope(t, || stream_of(&[b"sec", b"ret!"]));
        let (whole, gathered) = stream.take(6).expect("buffered");
        assert!(gathered);
        assert_eq!(whole.as_slice(), b"secret");
        assert_eq!(whole.tenant(), t);
        demi_tenant::scope(TenantId(6), || assert!(whole.try_clone().is_err()));
    }

    #[test]
    fn a_take_beyond_the_buffered_bytes_leaves_the_stream_untouched() {
        let mut stream = stream_of(&[b"abc", b"de"]);
        let before = counters::snapshot();
        assert!(stream.take(6).is_none());
        let delta = counters::snapshot().delta(&before);
        assert_eq!(delta, counters::DatapathSnapshot::ZERO);
        assert_eq!(stream.len(), 5);
        let mut all = [0u8; 8];
        assert_eq!(stream.peek(&mut all), 5);
        assert_eq!(&all[..5], b"abcde");
        let (empty, gathered) = stream.take(0).expect("zero bytes are always there");
        assert!(empty.is_empty() && !gathered);
    }

    #[test]
    fn peek_consumes_nothing() {
        let stream = stream_of(&[b"ab", b"c", b"def"]);
        let mut head = [0u8; 4];
        assert_eq!(stream.peek(&mut head), 4);
        assert_eq!(&head, b"abcd");
        assert_eq!(stream.peek(&mut head), 4, "a second look sees the same");
        assert_eq!(&head, b"abcd");
        assert_eq!(stream.len(), 6);
        assert_eq!(stream.peek(&mut []), 0);
    }

    #[test]
    fn advance_across_chunks_releases_the_emptied_ones() {
        let first = DemiBuffer::from_slice(b"abc");
        let second = DemiBuffer::from_slice(b"defg");
        let mut stream = ByteStream::default();
        stream.push(first.clone());
        stream.push(second.clone());
        assert_eq!((first.handle_count(), second.handle_count()), (2, 2));
        stream.advance(5);
        assert_eq!(first.handle_count(), 1, "the stream let go of `abc`");
        assert_eq!(second.handle_count(), 2, "`fg` is still buffered");
        let mut rest = [0u8; 2];
        assert_eq!(stream.peek(&mut rest), 2);
        assert_eq!(&rest, b"fg");
        stream.advance(10);
        assert!(stream.is_empty());
        assert_eq!(second.handle_count(), 1, "the last chunk is released too");
    }

    #[test]
    fn empty_pushes_are_ignored() {
        let mut stream = ByteStream::default();
        stream.push(DemiBuffer::empty());
        stream.push(DemiBuffer::from_slice(b""));
        assert!(stream.is_empty());
        assert!(stream.chunks.is_empty(), "no empty chunk is queued");
        stream.push(DemiBuffer::from_slice(b"x"));
        stream.push(DemiBuffer::empty());
        assert_eq!((stream.len(), stream.chunks.len()), (1, 1));
        assert!(!stream.take(1).expect("buffered").1, "one chunk, a view");
    }
}
