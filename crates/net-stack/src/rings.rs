//! Cross-shard message rings.
//!
//! Shards never share protocol state — not an `Rc`, not a `RefCell`. The
//! only things that legitimately cross a shard boundary are the two
//! counted exception paths the sharded stack has always had: a frame that
//! arrived on the wrong queue (a SmartNIC steering override beat RSS) and
//! an ARP binding one shard resolved that the others can use. Both now
//! travel as [`ShardMsg`] values over bounded lock-free SPSC rings
//! ([`demi_sched::spsc`]), drained at poll-loop boundaries — the same
//! mechanism whether the destination shard lives in the same thread
//! (single-thread mode) or on its own core (thread-per-shard mode).
//!
//! A full ring exerts *backpressure by dropping*: frames are the
//! retransmittable kind of traffic (TCP recovers; a lost ARP learn only
//! delays the next retry), so a slow shard costs the sender a counted
//! drop, never an unbounded queue. Both events are counted on the sending
//! endpoint ([`RingStats::backpressure`], [`RingStats::dropped`]) so
//! experiments can assert the path is idle rather than assume it.

use std::net::Ipv4Addr;

use demi_sched::spsc::{self, Consumer, Producer};
use sim_fabric::MacAddress;

/// One message between shards. Everything in here is `Send` by value —
/// a frame crosses the boundary as owned bytes, never as a shared buffer
/// handle (`Rc` never crosses a shard boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// A raw Ethernet frame that belongs to the receiving shard's flow
    /// (steering mismatch handoff). Serialized at the boundary: the copy
    /// is the documented cost of leaving your home shard, paid only on
    /// the exception path.
    Frame(Vec<u8>),
    /// An ARP binding learned by the sending shard; resolution benefits
    /// the whole host.
    ArpLearn(Ipv4Addr, MacAddress),
}

/// Counters for one shard's ring endpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Messages successfully enqueued to peers.
    pub sent: u64,
    /// Messages drained from peers.
    pub received: u64,
    /// Sends that found the destination ring full.
    pub backpressure: u64,
    /// Messages discarded because the destination ring stayed full.
    pub dropped: u64,
}

/// One shard's endpoints in the all-pairs ring mesh: a consumer from
/// every peer and a producer to every peer (SPSC requires one ring per
/// ordered pair).
pub struct ShardRings {
    index: usize,
    inboxes: Vec<Option<Consumer<ShardMsg>>>,
    outboxes: Vec<Option<Producer<ShardMsg>>>,
    stats: RingStats,
}

impl ShardRings {
    /// This endpoint's shard index within the mesh.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of shards in the mesh.
    pub fn num_shards(&self) -> usize {
        self.outboxes.len()
    }

    /// Sends `msg` to shard `to`. A full ring drops the message and
    /// counts it — the caller never blocks and the ring never grows.
    /// Returns `true` when the message was enqueued.
    pub fn send(&mut self, to: usize, msg: ShardMsg) -> bool {
        let Some(producer) = self.outboxes[to].as_mut() else {
            debug_assert!(to == self.index, "no ring to shard {to}");
            return false;
        };
        match producer.try_push(msg) {
            Ok(()) => {
                self.stats.sent += 1;
                true
            }
            Err(_) => {
                self.stats.backpressure += 1;
                self.stats.dropped += 1;
                false
            }
        }
    }

    /// Drains every inbox, invoking `f` per message (peer order is fixed;
    /// per-peer order is FIFO). Returns how many messages were drained.
    pub fn drain(&mut self, mut f: impl FnMut(ShardMsg)) -> usize {
        let mut drained = 0;
        for inbox in self.inboxes.iter_mut().flatten() {
            while let Some(msg) = inbox.try_pop() {
                drained += 1;
                f(msg);
            }
        }
        self.stats.received += drained as u64;
        drained
    }

    /// This endpoint's counters.
    pub(crate) fn stats(&self) -> RingStats {
        self.stats
    }
}

/// Builds an all-pairs mesh of `n` shard endpoints whose rings hold
/// `capacity` messages each. Endpoint `i` of the result is meant to move
/// to shard `i`'s thread (every half is `Send`).
pub fn mesh(n: usize, capacity: usize) -> Vec<ShardRings> {
    let mut inboxes: Vec<Vec<Option<Consumer<ShardMsg>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut outboxes: Vec<Vec<Option<Producer<ShardMsg>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let (p, c) = spsc::channel(capacity);
            outboxes[from][to] = Some(p);
            inboxes[to][from] = Some(c);
        }
    }
    inboxes
        .into_iter()
        .zip(outboxes)
        .enumerate()
        .map(|(index, (inboxes, outboxes))| ShardRings {
            index,
            inboxes,
            outboxes,
            stats: RingStats::default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn learn(n: u8) -> ShardMsg {
        ShardMsg::ArpLearn(Ipv4Addr::new(10, 0, 0, n), MacAddress::new([n; 6]))
    }

    #[test]
    fn mesh_routes_between_all_pairs() {
        let mut m = mesh(3, 8);
        assert!(m[0].send(1, learn(1)));
        assert!(m[0].send(2, learn(2)));
        assert!(m[2].send(1, learn(3)));
        let mut got = Vec::new();
        assert_eq!(m[1].drain(|msg| got.push(msg)), 2);
        assert_eq!(got, vec![learn(1), learn(3)]);
        let mut got = Vec::new();
        assert_eq!(m[2].drain(|msg| got.push(msg)), 1);
        assert_eq!(got, vec![learn(2)]);
        assert_eq!(m[0].drain(|_| {}), 0);
        assert_eq!(m[0].stats().sent, 2);
        assert_eq!(m[1].stats().received, 2);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let mut m = mesh(2, 2);
        assert!(m[0].send(1, learn(1)));
        assert!(m[0].send(1, learn(2)));
        assert!(!m[0].send(1, learn(3))); // capacity 2: dropped
        let s = m[0].stats();
        assert_eq!((s.sent, s.backpressure, s.dropped), (2, 1, 1));
        let mut got = Vec::new();
        m[1].drain(|msg| got.push(msg));
        assert_eq!(got, vec![learn(1), learn(2)]);
        // Ring drained: sends flow again.
        assert!(m[0].send(1, learn(4)));
    }

    #[test]
    fn endpoints_move_across_threads() {
        let mut m = mesh(2, 64);
        let mut far = m.pop().unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..32 {
                while !far.send(0, ShardMsg::Frame(vec![i; 8])) {
                    std::thread::yield_now();
                }
            }
            far
        });
        let mut got = 0;
        while got < 32 {
            got += m[0].drain(|msg| {
                assert!(matches!(msg, ShardMsg::Frame(ref v) if v.len() == 8));
            });
            std::thread::yield_now();
        }
        let far = t.join().unwrap();
        assert_eq!(far.stats().sent, 32);
    }
}
