//! An in-tree Fx-style hasher for per-packet-path maps.
//!
//! `std`'s default hasher is SipHash-1-3 — keyed, DoS-resistant, and
//! ~1ns-per-byte expensive. That is the right default for maps keyed by
//! attacker-chosen strings, but the stack's per-packet maps (TCP demux,
//! UDP demux, the ARP cache, steering tables) are looked up on *every*
//! segment, and a microsecond-scale datapath cannot afford a keyed hash
//! per packet (the paper's §2 arithmetic: tens of nanoseconds is already
//! a measurable fraction of the per-op budget). Flood-resistance for the
//! demux path comes from structure, not hashing: connection state is
//! bounded per listener (the SYN table), so an attacker gains nothing
//! from colliding keys.
//!
//! The function is the multiply-rotate word hash used by rustc's
//! `FxHasher`: fold each 8-byte word in with a rotate + xor + multiply by
//! a single odd constant. Two to three cycles per word, good avalanche on
//! the low bits (`HashMap` uses the low bits for bucket selection), no
//! external dependency.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// The odd multiply constant from FxHash (a truncation of π's digits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher. One `u64` of state; each written word
/// costs a rotate, a xor, and a multiply.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`] — the shared alias every per-packet-path
/// map in the stack uses instead of the SipHash default.
pub(crate) type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Packs a TCP/UDP flow's demux identity — local port plus remote
/// endpoint — into one `u64` key. The local IP is implicit (one address
/// per peer), so 64 bits hold the whole 4-tuple: hashing and equality are
/// each a single word operation, and the packed key doubles as the
/// single-entry demux-cache tag.
#[inline]
pub(crate) fn flow_key(local_port: u16, remote_ip: Ipv4Addr, remote_port: u16) -> u64 {
    ((u32::from(remote_ip) as u64) << 32) | ((local_port as u64) << 16) | remote_port as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_one<H: std::hash::Hash>(v: H) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn flow_key_is_injective_over_tuple_fields() {
        let k = |lp, a: [u8; 4], rp| flow_key(lp, Ipv4Addr::from(a), rp);
        let base = k(80, [10, 0, 0, 1], 5000);
        assert_ne!(base, k(81, [10, 0, 0, 1], 5000));
        assert_ne!(base, k(80, [10, 0, 0, 2], 5000));
        assert_ne!(base, k(80, [10, 0, 0, 1], 5001));
        // Port bytes must not bleed into each other.
        assert_ne!(k(0x0102, [0; 4], 0x0304), k(0x0304, [0; 4], 0x0102));
    }

    #[test]
    fn low_bits_spread_over_sequential_keys() {
        // HashMap bucket selection uses the low bits; sequential flow keys
        // (one host scanning ports) must not collapse onto few buckets.
        let mut low7 = HashSet::new();
        for port in 0..128u16 {
            low7.insert(hash_one(flow_key(80, Ipv4Addr::new(10, 0, 0, 7), port)) & 127);
        }
        assert!(
            low7.len() > 64,
            "128 sequential keys landed on only {} of 128 buckets",
            low7.len()
        );
    }

    #[test]
    fn fast_map_round_trips() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..1_000u64 {
            m.insert(i.wrapping_mul(0x9E37_79B9), i as u32);
        }
        for i in 0..1_000u64 {
            assert_eq!(m.get(&i.wrapping_mul(0x9E37_79B9)), Some(&(i as u32)));
        }
    }
}
