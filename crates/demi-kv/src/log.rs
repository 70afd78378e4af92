//! Group-commit batch encoding for the append-only mutation log.
//!
//! Durability rides catfs (PR: storage libOS): one **batch** — every
//! mutation drained from one RX pass — is encoded into a single record
//! payload and appended with a single `push`, so an N-deep pipelined
//! burst of SETs costs one storage submission, not N (the same handoff
//! amortization the TX path gets from coalescing, applied to the log).
//! catfs frames, checksums, and block-writes the record; this module
//! only defines the payload layout:
//!
//! ```text
//! [count u32] then count × entry
//! entry: [tag u8][klen u32][vlen u32][expire_at_ns u64][key][value]
//!   tag 0 = SET   (vlen value bytes; expire_at_ns = u64::MAX if none)
//!   tag 1 = DEL   (vlen = 0)
//!   tag 2 = PEXPIRE (vlen = 0; expire_at_ns = absolute deadline)
//! ```
//!
//! Replay applies batches in append order; within a batch, entries in
//! encode order — exactly the order the engine executed them, so the
//! recovered store equals the crashed store's acknowledged state.

use demi_memory::{DemiBuffer, MemoryManager};
use sim_fabric::SimTime;

use crate::resp::pooled;
use crate::store::KvStore;

/// Sentinel for "no expiry" in the wire encoding.
const NO_EXPIRY: u64 = u64::MAX;

/// One mutation awaiting group commit. Key and value are buffer handles
/// (shared with the store — encoding reads through them, no early copy).
#[derive(Debug, Clone)]
pub enum PendingOp {
    /// SET key → value, with an optional absolute deadline.
    Set {
        /// The key bytes.
        key: DemiBuffer,
        /// The value bytes.
        value: DemiBuffer,
        /// Absolute expiry deadline, if any.
        expire_at: Option<SimTime>,
    },
    /// DEL key (logged only when the key was live).
    Del {
        /// The key bytes.
        key: DemiBuffer,
    },
    /// PEXPIRE key → absolute deadline.
    Expire {
        /// The key bytes.
        key: DemiBuffer,
        /// Absolute expiry deadline.
        at: SimTime,
    },
}

/// A decoded log entry (owned — recovery reads from storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// SET key → value.
    Set {
        /// The key bytes.
        key: Vec<u8>,
        /// The value bytes.
        value: Vec<u8>,
        /// Absolute expiry deadline, if any.
        expire_at: Option<SimTime>,
    },
    /// DEL key.
    Del {
        /// The key bytes.
        key: Vec<u8>,
    },
    /// PEXPIRE key at deadline.
    Expire {
        /// The key bytes.
        key: Vec<u8>,
        /// Absolute expiry deadline.
        at: SimTime,
    },
}

/// Encodes one batch into a single record payload, in a fresh vector
/// (replay tests and benchmarks; the engine writes the same bytes into a
/// pool buffer, `encode_pooled`).
pub fn encode_batch(ops: &[PendingOp]) -> Vec<u8> {
    let mut out = vec![0; batch_len(ops)];
    write_batch(ops, &mut out);
    out
}

/// Encodes one batch straight into a buffer from `memory`'s pool: the
/// record a durable drain hands to the log allocates nothing once the
/// pool is warm.
pub(crate) fn encode_pooled(ops: &[PendingOp], memory: &MemoryManager) -> DemiBuffer {
    pooled(memory, batch_len(ops), |out| write_batch(ops, out))
}

/// The encoded length of `ops`.
fn batch_len(ops: &[PendingOp]) -> usize {
    let entry = |op: &PendingOp| {
        17 + match op {
            PendingOp::Set { key, value, .. } => key.len() + value.len(),
            PendingOp::Del { key } | PendingOp::Expire { key, .. } => key.len(),
        }
    };
    4 + ops.iter().map(entry).sum::<usize>()
}

/// Writes `ops`' record into `out`, exactly [`batch_len`] bytes.
fn write_batch(ops: &[PendingOp], mut out: &mut [u8]) {
    let mut put = |bytes: &[u8]| {
        let (head, rest) = std::mem::take(&mut out).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        out = rest;
    };
    put(&(ops.len() as u32).to_be_bytes());
    for op in ops {
        let (tag, key, value, expire): (u8, &DemiBuffer, &[u8], u64) = match op {
            PendingOp::Set {
                key,
                value,
                expire_at,
            } => (
                0,
                key,
                value.as_slice(),
                expire_at.map_or(NO_EXPIRY, |t| t.as_nanos()),
            ),
            PendingOp::Del { key } => (1, key, &[], NO_EXPIRY),
            PendingOp::Expire { key, at } => (2, key, &[], at.as_nanos()),
        };
        put(&[tag]);
        put(&(key.len() as u32).to_be_bytes());
        put(&(value.len() as u32).to_be_bytes());
        put(&expire.to_be_bytes());
        put(key.as_slice());
        put(value);
    }
}

/// Decodes one record payload back into entries.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<LogEntry>, &'static str> {
    let mut pos = 0usize;
    let count = read_u32(bytes, &mut pos)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = *bytes.get(pos).ok_or("truncated entry tag")?;
        pos += 1;
        let klen = read_u32(bytes, &mut pos)? as usize;
        let vlen = read_u32(bytes, &mut pos)? as usize;
        let expire = read_u64(bytes, &mut pos)?;
        let key = read_bytes(bytes, &mut pos, klen)?.to_vec();
        let value = read_bytes(bytes, &mut pos, vlen)?.to_vec();
        out.push(match tag {
            0 => LogEntry::Set {
                key,
                value,
                expire_at: (expire != NO_EXPIRY).then(|| SimTime::from_nanos(expire)),
            },
            1 => LogEntry::Del { key },
            2 => LogEntry::Expire {
                key,
                at: SimTime::from_nanos(expire),
            },
            _ => return Err("unknown entry tag"),
        });
    }
    if pos != bytes.len() {
        return Err("trailing bytes after batch");
    }
    Ok(out)
}

/// Applies one decoded entry to `store` at replay time `now`. Entries
/// whose deadline already passed still apply — the subsequent lazy/wheel
/// expiry path removes them, mirroring the crashed instance's behavior.
pub fn apply(store: &mut KvStore, entry: &LogEntry, now: SimTime) {
    match entry {
        LogEntry::Set {
            key,
            value,
            expire_at,
        } => {
            // An oversized entry was never acknowledged, so it can't be
            // in the log; ignore defensively rather than panic mid-mount.
            let _ = store.set(key, DemiBuffer::from(value.clone()), *expire_at, now);
        }
        LogEntry::Del { key } => {
            store.del(key, now);
        }
        LogEntry::Expire { key, at } => {
            store.expire(key, *at, now);
        }
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, &'static str> {
    let s = bytes
        .get(*pos..)
        .and_then(<[u8]>::first_chunk)
        .ok_or("truncated u32")?;
    *pos += 4;
    Ok(u32::from_be_bytes(*s))
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let s = bytes
        .get(*pos..)
        .and_then(<[u8]>::first_chunk)
        .ok_or("truncated u64")?;
    *pos += 8;
    Ok(u64::from_be_bytes(*s))
}

fn read_bytes<'a>(bytes: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], &'static str> {
    let s = bytes.get(*pos..*pos + len).ok_or("truncated bytes")?;
    *pos += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(data: &[u8]) -> DemiBuffer {
        DemiBuffer::from(data.to_vec())
    }

    #[test]
    fn batch_roundtrips() {
        let ops = vec![
            PendingOp::Set {
                key: buf(b"k1"),
                value: buf(b"value-one"),
                expire_at: None,
            },
            PendingOp::Set {
                key: buf(b"k2"),
                value: buf(b""),
                expire_at: Some(SimTime::from_nanos(12_345)),
            },
            PendingOp::Del { key: buf(b"k1") },
            PendingOp::Expire {
                key: buf(b"k2"),
                at: SimTime::from_nanos(99_999),
            },
        ];
        let bytes = encode_batch(&ops);
        let entries = decode_batch(&bytes).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries[0],
            LogEntry::Set {
                key: b"k1".to_vec(),
                value: b"value-one".to_vec(),
                expire_at: None
            }
        );
        assert_eq!(
            entries[2],
            LogEntry::Del {
                key: b"k1".to_vec()
            }
        );
        assert_eq!(
            entries[3],
            LogEntry::Expire {
                key: b"k2".to_vec(),
                at: SimTime::from_nanos(99_999)
            }
        );
    }

    #[test]
    fn corrupt_batches_are_rejected() {
        let bytes = encode_batch(&[PendingOp::Del { key: buf(b"k") }]);
        assert!(decode_batch(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_batch(&extra).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 9;
        assert!(decode_batch(&bad_tag).is_err());
    }

    #[test]
    fn replay_rebuilds_acknowledged_state() {
        let now = SimTime::from_nanos(1);
        let batches = [
            encode_batch(&[
                PendingOp::Set {
                    key: buf(b"a"),
                    value: buf(b"1"),
                    expire_at: None,
                },
                PendingOp::Set {
                    key: buf(b"b"),
                    value: buf(b"2"),
                    expire_at: None,
                },
            ]),
            encode_batch(&[
                PendingOp::Set {
                    key: buf(b"a"),
                    value: buf(b"override"),
                    expire_at: None,
                },
                PendingOp::Del { key: buf(b"b") },
            ]),
        ];
        let mut store = KvStore::new(1 << 20, SimTime::ZERO);
        for batch in &batches {
            for entry in decode_batch(batch).unwrap() {
                apply(&mut store, &entry, now);
            }
        }
        assert_eq!(store.dump(now), vec![(b"a".to_vec(), b"override".to_vec())]);
    }
}
