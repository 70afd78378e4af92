//! Differential property tests for demi-kv.
//!
//! Two oracles:
//!
//! 1. The incremental zero-copy RESP parser vs [`resp::reference::reference_parse`]
//!    (a naive contiguous-buffer parser) over randomly re-chunked
//!    streams — including pathological 1-byte splits — with the
//!    additional claim that a stream delivered in ONE chunk reassembles
//!    nothing (every argument is a zero-copy sub-view).
//! 2. The live [`KvStore`] vs a HashMap + explicit-LRU + deadline-map
//!    reference model over random GET/SET/DEL/PEXPIRE/PTTL/advance
//!    schedules on synthetic time — checking values, return codes,
//!    resident bytes, eviction/expiration counts, and the timer wheel's
//!    next-deadline ordering at every step.

use std::collections::HashMap;

use crate::resp::{self, RespParser};
use crate::store::{KvStore, SetError, Ttl};
use demi_memory::DemiBuffer;
use proptest::prelude::*;
use sim_fabric::SimTime;

/// Deterministic per-case RNG (the proptest stub hands us seeds; shapes
/// are derived locally so one u64 drives arbitrarily structured input).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

// ---------------------------------------------------------------------
// RESP parser vs reference.
// ---------------------------------------------------------------------

/// A random valid command stream: 1..=10 commands, 1..=4 args each,
/// binary-safe argument bytes (CR/LF included on purpose).
fn random_stream(rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::new();
    let commands = 1 + rng.below(10) as usize;
    for _ in 0..commands {
        let nargs = 1 + rng.below(4) as usize;
        let args: Vec<Vec<u8>> = (0..nargs)
            .map(|_| {
                let len = rng.below(41) as usize;
                (0..len).map(|_| rng.next() as u8).collect()
            })
            .collect();
        let borrowed: Vec<&[u8]> = args.iter().map(|a| a.as_slice()).collect();
        resp::encode_command(&mut out, &borrowed);
    }
    out
}

fn feed_in_chunks(parser: &mut RespParser, stream: &[u8], chunks: &[usize]) {
    let mut pos = 0;
    for &len in chunks {
        parser.push_chunk(DemiBuffer::from(stream[pos..pos + len].to_vec()));
        pos += len;
    }
    assert_eq!(pos, stream.len(), "chunking must cover the stream");
}

fn drain_parser(parser: &mut RespParser) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    while let Some(cmd) = parser.next_command().expect("valid stream") {
        out.push(cmd.args.iter().map(|a| a.as_slice().to_vec()).collect());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resp_parser_matches_reference_under_rechunking(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut stream = random_stream(&mut rng);
        // Half the cases cut mid-stream: the tail must stay buffered.
        if rng.below(2) == 0 && !stream.is_empty() {
            stream.truncate(1 + rng.below(stream.len() as u64) as usize);
        }
        let (expected, consumed) =
            resp::reference::reference_parse(&stream).expect("generator emits valid streams");

        // Three delivery shapes per case: 1-byte splits, random chunks,
        // one whole chunk.
        for mode in 0..3 {
            let chunks: Vec<usize> = match mode {
                0 => vec![1; stream.len()],
                1 => {
                    let mut v = Vec::new();
                    let mut left = stream.len();
                    while left > 0 {
                        let take = (1 + rng.below(16) as usize).min(left);
                        v.push(take);
                        left -= take;
                    }
                    v
                }
                _ => vec![stream.len()],
            };
            let mut parser = RespParser::new();
            feed_in_chunks(&mut parser, &stream, &chunks);
            let got = drain_parser(&mut parser);
            prop_assert_eq!(&got, &expected, "chunking must not change parse results");
            // The parser may have consumed completed header lines of a
            // still-partial trailing command, so its buffer holds at most
            // the reference's unconsumed tail — and exactly none of it
            // when the stream ends on a command boundary.
            let tail = stream.len() - consumed;
            prop_assert!(
                parser.buffered_bytes() <= tail,
                "buffered bytes exceed the unconsumed tail"
            );
            if tail == 0 {
                prop_assert_eq!(parser.buffered_bytes(), 0);
                prop_assert!(!parser.mid_command(), "clean boundary leaves no state");
            } else {
                prop_assert!(
                    parser.mid_command() || parser.buffered_bytes() > 0,
                    "a truncated command must leave visible parser state"
                );
            }
            if mode == 2 {
                // Whole-stream delivery is the happy path: every argument
                // must be a zero-copy sub-view of the chunk, none gathered.
                prop_assert_eq!(parser.stats().reassembled_args, 0);
                // Empty arguments materialize as the shared empty buffer
                // (neither viewed nor copied), and a truncated trailing
                // command may hold extracted-but-unemitted args — so the
                // exact count only holds on a clean command boundary.
                if tail == 0 {
                    let total_args: u64 = expected
                        .iter()
                        .flat_map(|c| c.iter())
                        .filter(|a| !a.is_empty())
                        .count() as u64;
                    prop_assert_eq!(parser.stats().zero_copy_args, total_args);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// KvStore vs reference model.
// ---------------------------------------------------------------------

struct ModelEntry {
    value: Vec<u8>,
    deadline: Option<u64>,
}

/// The executable spec: hash map + explicit MRU-front LRU vector +
/// per-entry absolute deadlines, mirroring the store's documented
/// semantics (lazy expiry on access, wheel expiry on advance, eviction
/// strictly from the LRU tail, SET revives expired entries in place).
struct Model {
    map: HashMap<Vec<u8>, ModelEntry>,
    lru: Vec<Vec<u8>>,
    bytes: usize,
    budget: usize,
    expirations: u64,
    evictions: u64,
}

impl Model {
    fn new(budget: usize) -> Self {
        Model {
            map: HashMap::new(),
            lru: Vec::new(),
            bytes: 0,
            budget,
            expirations: 0,
            evictions: 0,
        }
    }

    fn remove(&mut self, key: &[u8]) {
        let e = self.map.remove(key).expect("caller checked presence");
        self.bytes -= key.len() + e.value.len();
        self.lru.retain(|k| k != key);
    }

    /// Lazy-expiry step shared by GET/DEL/PEXPIRE/PTTL: a present entry
    /// whose deadline passed is removed and counted; returns true if so.
    fn expire_if_due(&mut self, key: &[u8], now: u64) -> bool {
        let due = self
            .map
            .get(key)
            .is_some_and(|e| e.deadline.is_some_and(|d| d <= now));
        if due {
            self.remove(key);
            self.expirations += 1;
        }
        due
    }

    fn touch(&mut self, key: &[u8]) {
        self.lru.retain(|k| k != key);
        self.lru.insert(0, key.to_vec());
    }

    fn get(&mut self, key: &[u8], now: u64) -> Option<Vec<u8>> {
        if self.expire_if_due(key, now) || !self.map.contains_key(key) {
            return None;
        }
        self.touch(key);
        Some(self.map[key].value.clone())
    }

    fn set(&mut self, key: &[u8], value: Vec<u8>, deadline: Option<u64>) -> Result<(), ()> {
        let entry_bytes = key.len() + value.len();
        if entry_bytes > self.budget {
            return Err(());
        }
        // SET overwrites even an expired-but-unremoved entry (revival —
        // no expiration counted), exactly like the store.
        if let Some(e) = self.map.get_mut(key) {
            self.bytes -= key.len() + e.value.len();
            self.bytes += entry_bytes;
            e.value = value;
            e.deadline = deadline;
        } else {
            self.bytes += entry_bytes;
            let _ = self
                .map
                .insert(key.to_vec(), ModelEntry { value, deadline });
        }
        self.touch(key);
        while self.bytes > self.budget {
            let victim = self
                .lru
                .last()
                .expect("over budget implies entries")
                .clone();
            self.remove(&victim);
            self.evictions += 1;
        }
        Ok(())
    }

    fn del(&mut self, key: &[u8], now: u64) -> bool {
        if self.expire_if_due(key, now) || !self.map.contains_key(key) {
            return false;
        }
        self.remove(key);
        true
    }

    fn expire(&mut self, key: &[u8], at: u64, now: u64) -> bool {
        if self.expire_if_due(key, now) || !self.map.contains_key(key) {
            return false;
        }
        self.map.get_mut(key).expect("present").deadline = Some(at);
        true
    }

    fn ttl(&mut self, key: &[u8], now: u64) -> Ttl {
        if self.expire_if_due(key, now) || !self.map.contains_key(key) {
            return Ttl::Missing;
        }
        match self.map[key].deadline {
            None => Ttl::NoExpiry,
            Some(at) => Ttl::RemainingNs(at - now),
        }
    }

    fn advance(&mut self, now: u64) {
        let due: Vec<Vec<u8>> = self
            .map
            .iter()
            .filter(|(_, e)| e.deadline.is_some_and(|d| d <= now))
            .map(|(k, _)| k.clone())
            .collect();
        for key in due {
            self.remove(&key);
            self.expirations += 1;
        }
    }

    /// Earliest pending deadline over present entries — what the store's
    /// timer wheel must report (stale wheel entries filtered out).
    fn next_deadline(&self) -> Option<u64> {
        self.map.values().filter_map(|e| e.deadline).min()
    }

    fn dump(&self, now: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = self
            .map
            .iter()
            .filter(|(_, e)| e.deadline.is_none_or(|d| d > now))
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect();
        out.sort();
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_reference_model(seed in any::<u64>(), budget in 60usize..200) {
        let mut rng = Rng(seed);
        let mut store = KvStore::new(budget, SimTime::ZERO);
        let mut model = Model::new(budget);
        let mut now: u64 = 1;

        for _ in 0..300 {
            now += rng.below(40);
            let t = SimTime::from_nanos(now);
            let key = vec![b'k', rng.below(12) as u8];
            match rng.below(12) {
                // SET: values small enough to fit, occasionally huge
                // enough to be refused, with a TTL a third of the time.
                0..=4 => {
                    let len = if rng.below(12) == 0 {
                        budget as u64 + rng.below(40)
                    } else {
                        rng.below(32)
                    } as usize;
                    let value: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                    let deadline = match rng.below(3) {
                        0 => Some(now + rng.below(120)),
                        _ => None,
                    };
                    let got = store.set(
                        &key,
                        DemiBuffer::from(value.clone()),
                        deadline.map(SimTime::from_nanos),
                        t,
                    );
                    let want = model.set(&key, value, deadline);
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "SET admission must agree");
                    if got.is_err() {
                        prop_assert_eq!(got.unwrap_err(), SetError::TooLarge);
                    }
                }
                5..=7 => {
                    let got = store.get(&key, t).map(|b| b.as_slice().to_vec());
                    prop_assert_eq!(got, model.get(&key, now), "GET must agree");
                }
                8 => {
                    prop_assert_eq!(store.del(&key, t), model.del(&key, now), "DEL must agree");
                }
                9 => {
                    let at = now + rng.below(120);
                    prop_assert_eq!(
                        store.expire(&key, SimTime::from_nanos(at), t),
                        model.expire(&key, at, now),
                        "PEXPIRE must agree"
                    );
                }
                10 => {
                    prop_assert_eq!(store.ttl(&key, t), model.ttl(&key, now), "PTTL must agree");
                }
                // Advance the wheel — fires every due deadline in order.
                _ => {
                    store.advance(t);
                    model.advance(now);
                }
            }

            prop_assert_eq!(store.len(), model.map.len(), "live entry count");
            prop_assert_eq!(store.bytes(), model.bytes, "resident bytes");
            prop_assert!(store.bytes() <= budget, "budget is a hard ceiling");
            prop_assert_eq!(store.stats().expirations, model.expirations, "expirations");
            prop_assert_eq!(store.stats().evictions, model.evictions, "evictions");
            prop_assert_eq!(
                store.next_deadline().map(|d| d.as_nanos()),
                model.next_deadline(),
                "wheel next-deadline must match the model's minimum"
            );
        }

        prop_assert_eq!(store.dump(SimTime::from_nanos(now)), model.dump(now));
    }
}
