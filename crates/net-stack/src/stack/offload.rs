//! Device offload programs (E17): the stack as offload *planner*. It
//! decides which flows are device-eligible (Established, quiescent server
//! connections on the offloaded port), installs the restricted engine
//! into a NIC program slot, keeps host control blocks coherent by
//! applying the engine's sync events, and falls everything back to the
//! pure host path on uninstall. Applications never talk to the device
//! directly; the shard core reaches its `Option<Offload>` only through
//! `drain_events`, `release_conn` and `rearm`.

use std::cell::RefCell;
use std::rc::Rc;

use dpdk_sim::{
    FlowKey, FlowShadow, NicProgram, OffloadEvent, OffloadService, OffloadStats, ProgramSlot,
    TcpOffload,
};
use sim_fabric::SimTime;

use super::NetworkStack;
use crate::fasthash::FastHashMap;
use crate::tcp::{ConnId, TcpPeer};
use crate::types::NetError;

/// The installed device offload program: the engine, the NIC slot it
/// occupies, and the flows currently armed on it. An engine's sync events
/// all belong to the stack that installed it — a second stack on the same
/// port installs its own engine in its own slot.
pub(super) struct Offload {
    engine: Rc<RefCell<TcpOffload>>,
    slot: ProgramSlot,
    /// The offloaded local TCP port.
    port: u16,
    /// Armed flows: device flow key → control block.
    armed: FastHashMap<FlowKey, ConnId>,
    /// Reverse index for the release path (send/close on an armed conn).
    by_conn: FastHashMap<ConnId, FlowKey>,
}

impl Offload {
    /// Applies the device's queued sync events to `tcp`'s control
    /// blocks, in emission order; returns how many were applied.
    pub(super) fn drain_events(&mut self, tcp: &mut TcpPeer, now: SimTime) -> usize {
        let events = self.engine.borrow_mut().take_events();
        let mut applied = 0usize;
        for ev in events {
            let key = match &ev {
                OffloadEvent::AckAdvance { key, .. }
                | OffloadEvent::Served { key, .. }
                | OffloadEvent::Flushed { key, .. }
                | OffloadEvent::FellBack { key } => *key,
            };
            let Some(&conn) = self.armed.get(&key) else {
                continue;
            };
            applied += 1;
            match ev {
                OffloadEvent::AckAdvance { ack, window, .. } => {
                    tcp.offload_ack(conn, ack, window, now);
                }
                OffloadEvent::Served {
                    rx_len,
                    reply,
                    served_at,
                    ..
                } => {
                    if demi_telemetry::enabled() {
                        demi_telemetry::stage::record(
                            demi_telemetry::stage::Stage::DeviceServed,
                            now.saturating_since(served_at).as_nanos(),
                        );
                    }
                    tcp.offload_served(conn, rx_len, reply, now);
                }
                OffloadEvent::Flushed { data, .. } => {
                    tcp.offload_flushed(conn, data, now);
                }
                OffloadEvent::FellBack { .. } => {
                    self.armed.remove(&key);
                    self.by_conn.remove(&conn);
                }
            }
        }
        applied
    }

    /// Takes `conn` back from the device before a host-side mutation
    /// (send, close, abort): disarms the flow, applies the flushed bytes
    /// and any other pending sync events, and forgets the arming. No-op
    /// for unarmed connections. Returns the sync events applied.
    pub(super) fn release_conn(&mut self, tcp: &mut TcpPeer, conn: ConnId, now: SimTime) -> usize {
        let Some(&key) = self.by_conn.get(&conn) else {
            return 0;
        };
        self.engine.borrow_mut().disarm_flow(key);
        // The flushed bytes apply through the normal drain (the key is
        // still in the armed map); dropping the map entries afterwards
        // completes the release.
        let applied = self.drain_events(tcp, now);
        self.armed.remove(&key);
        self.by_conn.remove(&conn);
        applied
    }

    /// Arms every quiescent, not-yet-armed Established connection on the
    /// offloaded port; returns how many it armed. Quiescence (nothing
    /// queued, unacked, or out of order) guarantees the shadow state
    /// handed to the device — next expected sequence number, next
    /// transmit sequence number — is the complete truth about the flow,
    /// so device and host cannot diverge.
    pub(super) fn rearm(&mut self, tcp: &TcpPeer) -> usize {
        let mut armed = 0;
        for (conn, remote) in tcp.conns_on_port(self.port) {
            if self.by_conn.contains_key(&conn) || !tcp.offload_quiescent(conn) {
                continue;
            }
            let Some((rcv_nxt, snd_nxt, window, mss)) = tcp.offload_arm_info(conn) else {
                continue;
            };
            let key: FlowKey = (remote.ip.octets(), remote.port);
            self.engine.borrow_mut().arm_flow(
                key,
                FlowShadow {
                    rcv_nxt,
                    snd_nxt,
                    window,
                    mss,
                },
            );
            self.armed.insert(key, conn);
            self.by_conn.insert(conn, key);
            armed += 1;
        }
        armed
    }
}

impl NetworkStack {
    /// Installs a NIC-side echo short-circuit for TCP connections on
    /// local `port`: complete framed request messages are reflected by
    /// the device without an RX→host→TX crossing.
    pub fn install_echo_offload(&self, port: u16) -> Result<(), NetError> {
        self.install_tcp_offload(port, OffloadService::Echo)
    }

    /// Installs a NIC-resident KV GET cache for TCP connections on local
    /// `port`, bounded to `capacity_bytes` of device memory. GETs hitting
    /// the cache are answered on the device; everything else (misses,
    /// SETs, DELs) falls back to the host, which repopulates the cache
    /// with [`NetworkStack::offload_cache_insert`].
    pub fn install_kv_offload(&self, port: u16, capacity_bytes: usize) -> Result<(), NetError> {
        self.install_tcp_offload(port, OffloadService::KvCache { capacity_bytes })
    }

    fn install_tcp_offload(&self, port: u16, service: OffloadService) -> Result<(), NetError> {
        let mut shard = self.shard.borrow_mut();
        if shard.offload.is_some() {
            return Err(NetError::Unsupported("a TCP offload is already installed"));
        }
        let engine = Rc::new(RefCell::new(TcpOffload::new(port, service)));
        let slot = shard
            .port
            .install_program(NicProgram::TcpOffload {
                engine: Rc::clone(&engine),
            })
            .map_err(|_| NetError::Unsupported("device has no free program slots"))?;
        shard.offload = Some(Offload {
            engine,
            slot,
            port,
            armed: FastHashMap::default(),
            by_conn: FastHashMap::default(),
        });
        // Arm already-established quiescent connections immediately; new
        // ones are picked up at the end of each poll pass.
        shard.rearm_offload();
        Ok(())
    }

    /// Removes the installed TCP offload program, if any: every armed
    /// flow is disarmed, absorbed-but-unserved bytes are handed back to
    /// the host control blocks, and the NIC slot is freed. Connections
    /// continue seamlessly on the pure host path. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        let mut shard = self.shard.borrow_mut();
        let Some(off) = &shard.offload else {
            return;
        };
        off.engine.borrow_mut().disarm_all();
        let now = shard.clock.now();
        shard.drain_offload_events(now);
        shard.flush_tcp();
        let off = shard.offload.take().expect("checked above");
        shard.port.uninstall_program(off.slot);
    }

    /// Write-through populate of the device KV cache (the host calls
    /// this after serving a GET miss). Returns `false` when no KV
    /// offload is installed or the entry exceeds the device-memory bound
    /// — callers need no special-casing either way.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        match &self.shard.borrow().offload {
            Some(off) => off.engine.borrow_mut().cache_insert(key, value),
            None => false,
        }
    }

    /// Host-driven invalidation of one device KV cache entry — for
    /// removals the device cannot see on the wire (host-side LRU
    /// eviction, TTL expiry). Returns `false` when no KV offload is
    /// installed or the key was not cached.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        match &self.shard.borrow().offload {
            Some(off) => off.engine.borrow_mut().cache_invalidate(key),
            None => false,
        }
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        let shard = self.shard.borrow();
        shard
            .offload
            .as_ref()
            .map(|off| off.engine.borrow().stats())
    }
}
