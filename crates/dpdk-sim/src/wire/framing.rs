//! The DEMI stream-framing header.
//!
//! Demikernel queues carry *atomic data units* (paper §4.2), but TCP is a
//! byte stream, so the libOS "inserts the needed framing itself (e.g., atop
//! a TCP stream)" — the first option paper §5.2 discusses: a fixed 8-byte
//! header (magic + length) ahead of each message. The host's
//! `FrameDecoder`, the offload engine's serve path and its invalidation
//! scanner all read it through [`parse_header`], so none of them follows a
//! length the others reject.

use super::Malformed;

/// Frame header: 4-byte magic + 4-byte big-endian length.
pub const FRAME_HEADER_LEN: usize = 8;

/// Magic tag guarding against desynchronization ("DEMI").
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"DEMI";

/// Largest message the framing accepts (guards against corrupt lengths).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

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
    [&encode_header(payload.len())[..], payload].concat()
}

/// Reads the framing header at the front of `stream` (bytes past it are
/// ignored): the length of the message it announces, or `None` while the
/// header is incomplete. The stream has desynchronized — an error — on
/// wrong magic, reported at the first wrong byte without waiting for the
/// rest of the header, and on an absurd length.
pub fn parse_header(stream: &[u8]) -> Result<Option<usize>, Malformed> {
    let magic = &stream[..stream.len().min(FRAME_MAGIC.len())];
    if !FRAME_MAGIC.starts_with(magic) {
        return Err(Malformed("frame magic"));
    }
    let Some(len) = stream.get(4..FRAME_HEADER_LEN) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Malformed("frame length"));
    }
    Ok(Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_classifies_every_prefix_of_a_message() {
        let wire = encode_message(b"atomic unit");
        for cut in 0..FRAME_HEADER_LEN {
            assert_eq!(parse_header(&wire[..cut]), Ok(None), "{cut}");
        }
        for cut in FRAME_HEADER_LEN..=wire.len() {
            assert_eq!(parse_header(&wire[..cut]), Ok(Some(11)));
        }
    }

    #[test]
    fn wrong_magic_is_bad_from_its_first_byte() {
        for at in 0..FRAME_MAGIC.len() {
            let mut wire = encode_message(b"x");
            wire[at] ^= 0x20;
            for cut in 0..=wire.len() {
                let want = if cut > at {
                    Err(Malformed("frame magic"))
                } else {
                    Ok(None)
                };
                assert_eq!(parse_header(&wire[..cut]), want, "byte {at}, cut {cut}");
            }
        }
    }

    #[test]
    fn length_bound_is_inclusive() {
        let header = |len: usize| parse_header(&encode_header(len));
        assert_eq!(header(0), Ok(Some(0)));
        assert_eq!(header(MAX_FRAME_LEN), Ok(Some(MAX_FRAME_LEN)));
        assert_eq!(header(MAX_FRAME_LEN + 1), Err(Malformed("frame length")));
        assert_eq!(header(u32::MAX as usize), Err(Malformed("frame length")));
    }
}
