//! The internet checksum (RFC 1071).

/// Computes the 16-bit one's-complement internet checksum over `data`.
///
/// Used by IPv4 headers, ICMP, UDP, and TCP (the latter two over a
/// pseudo-header; see their modules).
pub fn internet_checksum(data: &[u8]) -> u16 {
    finish(sum_words(data, 0))
}

/// Accumulates 16-bit words of `data` into `acc` without folding, so callers
/// can checksum a pseudo-header followed by a payload.
#[inline]
pub fn sum_words(data: &[u8], mut acc: u32) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        acc += (*last as u32) << 8;
    }
    acc
}

/// Folds the carries and complements, producing the final checksum.
pub fn finish(mut acc: u32) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Verifies data that *includes* its checksum field: the folded sum must be
/// zero.
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

/// A streaming checksum over a sequence of byte fragments (iovecs) —
/// pseudo-header, transport header, payload — without ever copying them
/// into one contiguous buffer.
///
/// Unlike chaining [`sum_words`] calls, the accumulator tracks byte
/// *parity* across fragments: an odd-length middle fragment carries its
/// dangling byte into the next fragment instead of being zero-padded in
/// place, so the result matches the checksum of the concatenated bytes
/// exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChecksumAccumulator {
    acc: u32,
    /// High byte of a word whose low byte arrives with the next fragment.
    pending: Option<u8>,
}

impl ChecksumAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one fragment. Fragments may have any length, including zero.
    #[inline]
    pub fn push(&mut self, data: &[u8]) {
        let data = match self.pending.take() {
            Some(hi) => {
                let Some((&lo, rest)) = data.split_first() else {
                    self.pending = Some(hi);
                    return;
                };
                self.acc += u16::from_be_bytes([hi, lo]) as u32;
                rest
            }
            None => data,
        };
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.acc += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Folds and complements, zero-padding any dangling odd byte.
    #[inline]
    pub fn finish(self) -> u16 {
        let mut acc = self.acc;
        if let Some(hi) = self.pending {
            acc += (hi as u32) << 8;
        }
        finish(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accumulator's checksum over `fragments`, as if concatenated.
    fn checksum_iovec(fragments: &[&[u8]]) -> u16 {
        let mut acc = ChecksumAccumulator::new();
        fragments.iter().for_each(|f| acc.push(f));
        acc.finish()
    }

    #[test]
    fn rfc1071_reference_vector() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 → checksum 0x220d.
        let data = [0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7];
        assert_eq!(internet_checksum(&data), 0x220D);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // Same as appending a 0x00 byte.
        let odd = [0x01, 0x02, 0x03];
        let even = [0x01, 0x02, 0x03, 0x00];
        assert_eq!(internet_checksum(&odd), internet_checksum(&even));
    }

    #[test]
    fn verify_round_trip() {
        let mut packet = vec![0x45, 0x00, 0x00, 0x1C, 0xAB, 0xCD, 0x00, 0x00, 0x40, 0x11];
        packet.extend_from_slice(&[0u8; 10]);
        let ck = internet_checksum(&packet);
        // Install the checksum at a word boundary and verify.
        packet.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&packet));
        // Corrupt a byte: verification must fail.
        packet[0] ^= 0xFF;
        assert!(!verify(&packet));
    }

    #[test]
    fn empty_data_checksums_to_all_ones() {
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn incremental_equals_whole() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let whole = internet_checksum(&data);
        let acc = sum_words(&data[..4], 0);
        let acc = sum_words(&data[4..], acc);
        assert_eq!(finish(acc), whole);
    }

    #[test]
    fn iovec_matches_contiguous_for_even_splits() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(
            checksum_iovec(&[&data[..2], &data[2..6], &data[6..]]),
            internet_checksum(&data)
        );
    }

    #[test]
    fn iovec_carries_odd_fragment_boundaries() {
        // An odd-length *middle* fragment must not be zero-padded: the next
        // fragment's first byte completes the word. `sum_words` chaining
        // gets this wrong; the accumulator must not.
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let whole = internet_checksum(&data);
        for split1 in 0..data.len() {
            for split2 in split1..data.len() {
                assert_eq!(
                    checksum_iovec(&[&data[..split1], &data[split1..split2], &data[split2..]]),
                    whole,
                    "splits at {split1}/{split2}"
                );
            }
        }
    }

    #[test]
    fn iovec_empty_fragments_are_identity() {
        let data = [0xABu8, 0xCD, 0xEF];
        assert_eq!(
            checksum_iovec(&[&[], &data[..1], &[], &data[1..], &[]]),
            internet_checksum(&data)
        );
        assert_eq!(checksum_iovec(&[]), 0xFFFF);
    }
}
