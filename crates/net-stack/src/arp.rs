//! Address resolution: ARP packets, cache, retries, and pending queues.
//!
//! ARP is one of the quiet pieces of "OS functionality" the paper notes a
//! DPDK application must reimplement: without it, the stack cannot map IP
//! addresses to fabric MAC addresses at all. The implementation keeps a
//! TTL-bounded cache, queues outbound packets while resolution is in
//! flight, retries requests, and fails pending packets over to the caller
//! after the final timeout.

use crate::fasthash::FastHashMap;
use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use sim_fabric::{MacAddress, SimTime};

use crate::types::NetError;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 flavor only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddress,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddress,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// Wire size of an Ethernet/IPv4 ARP packet.
pub(crate) const ARP_LEN: usize = 28;

impl ArpPacket {
    /// Serializes to the 28-byte wire format.
    pub(crate) fn serialize(&self) -> [u8; ARP_LEN] {
        let mut out = [0u8; ARP_LEN];
        out[0..2].copy_from_slice(&1u16.to_be_bytes()); // HTYPE: Ethernet
        out[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // PTYPE: IPv4
        out[4] = 6; // HLEN
        out[5] = 4; // PLEN
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        out[6..8].copy_from_slice(&op.to_be_bytes());
        out[8..14].copy_from_slice(&self.sender_mac.octets());
        out[14..18].copy_from_slice(&self.sender_ip.octets());
        out[18..24].copy_from_slice(&self.target_mac.octets());
        out[24..28].copy_from_slice(&self.target_ip.octets());
        out
    }

    /// Parses from wire format.
    pub fn parse(data: &[u8]) -> Result<ArpPacket, NetError> {
        if data.len() < ARP_LEN {
            return Err(NetError::Malformed("arp packet"));
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(NetError::Malformed("arp opcode")),
        };
        let mut smac = [0u8; 6];
        smac.copy_from_slice(&data[8..14]);
        let mut tmac = [0u8; 6];
        tmac.copy_from_slice(&data[18..24]);
        Ok(ArpPacket {
            op,
            sender_mac: MacAddress::new(smac),
            sender_ip: Ipv4Addr::new(data[14], data[15], data[16], data[17]),
            target_mac: MacAddress::new(tmac),
            target_ip: Ipv4Addr::new(data[24], data[25], data[26], data[27]),
        })
    }
}

/// Resolution state for one IP with requests outstanding.
#[derive(Debug)]
struct InFlight {
    tries_left: u32,
    next_retry: SimTime,
    /// Serialized IP packets waiting for the MAC — buffer handles, so
    /// queueing while resolution is in flight copies nothing.
    pending: Vec<DemiBuffer>,
}

/// What the cache wants the stack to do after a call.
#[derive(Debug, PartialEq)]
pub(crate) enum ArpAction {
    /// Transmit this pending packet to the now-resolved MAC.
    SendPending(MacAddress, DemiBuffer),
    /// Broadcast an ARP request for this IP.
    SendRequest(Ipv4Addr),
    /// Resolution gave up; drop this packet and surface unreachable.
    FailPending(DemiBuffer),
}

/// How long a resolved binding stays cached. Chosen.
const ARP_TTL: SimTime = SimTime::from_secs(60);
/// Interval between ARP requests for one unresolved address. Chosen.
const ARP_RETRY: SimTime = SimTime::from_millis(1);
/// Requests sent before pending packets fail over as unreachable. Chosen.
const ARP_TRIES: u32 = 3;

/// The ARP cache plus resolution machinery.
#[derive(Debug, Default)]
pub(crate) struct ArpCache {
    entries: FastHashMap<Ipv4Addr, (MacAddress, SimTime)>,
    in_flight: FastHashMap<Ipv4Addr, InFlight>,
    /// The earliest `next_retry` in `in_flight`, recomputed by every method
    /// that changes one, so "is a retry due?" is one compare.
    next_retry: Option<SimTime>,
}

impl ArpCache {
    /// Looks up an unexpired entry.
    pub(crate) fn lookup(&self, ip: Ipv4Addr, now: SimTime) -> Option<MacAddress> {
        self.entries
            .get(&ip)
            .filter(|(_, expiry)| *expiry > now)
            .map(|(mac, _)| *mac)
    }

    /// Inserts/refreshes a binding and returns any packets that were waiting
    /// for it, ready to transmit.
    pub(crate) fn insert(&mut self, ip: Ipv4Addr, mac: MacAddress, now: SimTime) -> Vec<ArpAction> {
        self.entries.insert(ip, (mac, now.saturating_add(ARP_TTL)));
        let waiting = self.in_flight.remove(&ip).into_iter();
        self.next_retry = self.earliest_retry();
        let pending = waiting.flat_map(|state| state.pending);
        pending.map(|p| ArpAction::SendPending(mac, p)).collect()
    }

    fn earliest_retry(&self) -> Option<SimTime> {
        self.in_flight.values().map(|s| s.next_retry).min()
    }

    /// Queues `packet` for `ip`; returns the actions to take (usually an
    /// ARP request broadcast on first miss).
    pub(crate) fn enqueue_pending(
        &mut self,
        ip: Ipv4Addr,
        packet: DemiBuffer,
        now: SimTime,
    ) -> Vec<ArpAction> {
        match self.in_flight.get_mut(&ip) {
            Some(state) => {
                state.pending.push(packet);
                Vec::new()
            }
            None => {
                self.in_flight.insert(
                    ip,
                    InFlight {
                        tries_left: ARP_TRIES - 1,
                        next_retry: now.saturating_add(ARP_RETRY),
                        pending: vec![packet],
                    },
                );
                self.next_retry = self.earliest_retry();
                vec![ArpAction::SendRequest(ip)]
            }
        }
    }

    /// Whether [`ArpCache::poll`] at `now` would do anything. O(1).
    pub(crate) fn due(&self, now: SimTime) -> bool {
        self.next_retry.is_some_and(|t| t <= now)
    }

    /// Advances retry timers; returns retransmissions and failures due now.
    pub(crate) fn poll(&mut self, now: SimTime) -> Vec<ArpAction> {
        if !self.due(now) {
            debug_assert!(self.in_flight.values().all(|s| now < s.next_retry));
            return Vec::new();
        }
        let mut actions = Vec::new();
        self.in_flight.retain(|&ip, state| {
            if now < state.next_retry {
                return true;
            }
            if state.tries_left == 0 {
                let pending = std::mem::take(&mut state.pending);
                actions.extend(pending.into_iter().map(ArpAction::FailPending));
                return false;
            }
            state.tries_left -= 1;
            state.next_retry = now.saturating_add(ARP_RETRY);
            actions.push(ArpAction::SendRequest(ip));
            true
        });
        self.next_retry = self.earliest_retry();
        actions
    }

    /// Earliest retry/failure deadline, for runtime clock advancement.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.next_retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimTime = SimTime::from_millis(1);

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn packet_round_trip() {
        let p = ArpPacket {
            op: ArpOp::Request,
            sender_mac: MacAddress::from_last_octet(1),
            sender_ip: ip(1),
            target_mac: MacAddress::new([0; 6]),
            target_ip: ip(2),
        };
        let parsed = ArpPacket::parse(&p.serialize()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn bad_opcode_rejected() {
        let p = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddress::from_last_octet(1),
            sender_ip: ip(1),
            target_mac: MacAddress::from_last_octet(2),
            target_ip: ip(2),
        };
        let mut bytes = p.serialize().to_vec();
        bytes[7] = 9;
        assert_eq!(
            ArpPacket::parse(&bytes),
            Err(NetError::Malformed("arp opcode"))
        );
    }

    #[test]
    fn miss_enqueues_and_requests_once() {
        let mut c = ArpCache::default();
        let a1 = c.enqueue_pending(ip(2), DemiBuffer::from_slice(&[1]), SimTime::ZERO);
        assert_eq!(a1, vec![ArpAction::SendRequest(ip(2))]);
        let a2 = c.enqueue_pending(ip(2), DemiBuffer::from_slice(&[2]), SimTime::ZERO);
        assert!(
            a2.is_empty(),
            "second packet piggybacks on in-flight request"
        );
    }

    #[test]
    fn reply_flushes_pending_in_order() {
        let mut c = ArpCache::default();
        let (p1, p2) = (DemiBuffer::from_slice(&[1]), DemiBuffer::from_slice(&[2]));
        c.enqueue_pending(ip(2), p1.clone(), SimTime::ZERO);
        c.enqueue_pending(ip(2), p2.clone(), SimTime::ZERO);
        let mac = MacAddress::from_last_octet(2);
        let actions = c.insert(ip(2), mac, SimTime::ZERO);
        assert_eq!(
            actions,
            vec![
                ArpAction::SendPending(mac, p1.clone()),
                ArpAction::SendPending(mac, p2.clone()),
            ]
        );
        // Flushing hands back the very same storage that was queued.
        match &actions[0] {
            ArpAction::SendPending(_, flushed) => assert!(flushed.same_storage(&p1)),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(c.lookup(ip(2), SimTime::ZERO), Some(mac));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut c = ArpCache::default();
        let mac = MacAddress::from_last_octet(2);
        c.insert(ip(2), mac, SimTime::ZERO);
        assert!(c.lookup(ip(2), SimTime::from_secs(59)).is_some());
        assert!(c.lookup(ip(2), SimTime::from_secs(61)).is_none());
    }

    #[test]
    fn retries_then_fails_pending() {
        let mut c = ArpCache::default();
        c.enqueue_pending(ip(2), DemiBuffer::from_slice(&[7]), SimTime::ZERO);
        // First retry at 1ms, second at 2ms; failure announced at 3ms.
        assert_eq!(c.poll(MS), vec![ArpAction::SendRequest(ip(2))]);
        assert_eq!(
            c.poll(MS.saturating_mul(2)),
            vec![ArpAction::SendRequest(ip(2))]
        );
        let actions = c.poll(MS.saturating_mul(3));
        assert_eq!(
            actions,
            vec![ArpAction::FailPending(DemiBuffer::from_slice(&[7]))]
        );
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn poll_before_deadline_is_quiet() {
        let mut c = ArpCache::default();
        c.enqueue_pending(ip(2), DemiBuffer::from_slice(&[7]), SimTime::ZERO);
        assert!(c.poll(SimTime::from_micros(500)).is_empty());
        assert_eq!(c.next_deadline(), Some(MS));
    }

    #[test]
    fn refresh_extends_ttl() {
        let mut c = ArpCache::default();
        let mac = MacAddress::from_last_octet(2);
        c.insert(ip(2), mac, SimTime::ZERO);
        c.insert(ip(2), mac, SimTime::from_secs(50));
        assert!(c.lookup(ip(2), SimTime::from_secs(100)).is_some());
    }
}
