//! Device offload programs (E17): the stack as offload *planner*. It
//! decides which flows are device-eligible (Established, quiescent server
//! connections on the offloaded port), installs the restricted engine
//! into a NIC program slot, keeps host control blocks coherent by
//! applying the engine's sync events, and falls everything back to the
//! pure host path on uninstall. Applications never talk to the device
//! directly; the shard core reaches its `Option<ShardOffload>` only
//! through `drain_events`, `release_conn` and `rearm`.

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

/// Facade-level handle on the installed device offload program: the
/// engine (shared with every shard) and the NIC slot it occupies.
pub(super) struct OffloadCtl {
    engine: Rc<RefCell<TcpOffload>>,
    slot: ProgramSlot,
}

/// A shard's view of the device offload: the shared engine plus the
/// flows *this shard owns* that are currently armed. The engine's sync
/// events are keyed by flow; each shard drains the shared queue, applies
/// the events for its own flows, and restores the rest in order for the
/// owning shard (see [`ShardOffload::drain_events`]).
pub(super) struct ShardOffload {
    engine: Rc<RefCell<TcpOffload>>,
    /// The offloaded local TCP port.
    port: u16,
    /// Armed flows this shard owns: device flow key → control block.
    armed: FastHashMap<FlowKey, ConnId>,
    /// Reverse index for the release path (send/close on an armed conn).
    by_conn: FastHashMap<ConnId, FlowKey>,
}

impl ShardOffload {
    /// Applies the device's queued sync events to `tcp`'s control
    /// blocks, in order; returns how many were applied. The engine is
    /// shared by every shard of the stack, so events for flows another
    /// shard owns are restored to the front of the queue untouched —
    /// each flow's events are applied exactly once, by its owner, in
    /// emission order.
    pub(super) fn drain_events(&mut self, tcp: &mut TcpPeer, now: SimTime) -> usize {
        let events = self.engine.borrow_mut().take_events();
        if events.is_empty() {
            return 0;
        }
        let mut foreign = Vec::new();
        let mut applied = 0usize;
        for ev in events {
            let key = match &ev {
                OffloadEvent::AckAdvance { key, .. }
                | OffloadEvent::Served { key, .. }
                | OffloadEvent::Flushed { key, .. }
                | OffloadEvent::FellBack { key } => *key,
            };
            let Some(&conn) = self.armed.get(&key) else {
                foreign.push(ev);
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
        if !foreign.is_empty() {
            self.engine.borrow_mut().restore_events(foreign);
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
        let mut ctl = self.offload.borrow_mut();
        if ctl.is_some() {
            return Err(NetError::Unsupported("a TCP offload is already installed"));
        }
        let engine = Rc::new(RefCell::new(TcpOffload::new(port, service)));
        let slot = self.shards[0]
            .borrow()
            .port
            .install_program(NicProgram::TcpOffload {
                engine: Rc::clone(&engine),
            })
            .map_err(|_| NetError::Unsupported("device has no free program slots"))?;
        for s in &self.shards {
            let mut shard = s.borrow_mut();
            shard.offload = Some(ShardOffload {
                engine: Rc::clone(&engine),
                port,
                armed: FastHashMap::default(),
                by_conn: FastHashMap::default(),
            });
            // Arm already-established quiescent connections immediately;
            // new ones are picked up at the end of each poll pass.
            shard.rearm_offload();
        }
        *ctl = Some(OffloadCtl { engine, slot });
        Ok(())
    }

    /// Removes the installed TCP offload program, if any: every armed
    /// flow is disarmed, absorbed-but-unserved bytes are handed back to
    /// the host control blocks, and the NIC slot is freed. Connections
    /// continue seamlessly on the pure host path. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        let Some(ctl) = self.offload.borrow_mut().take() else {
            return;
        };
        ctl.engine.borrow_mut().disarm_all();
        for s in &self.shards {
            let mut shard = s.borrow_mut();
            let now = shard.clock.now();
            shard.drain_offload_events(now);
            shard.flush_tcp();
            shard.offload = None;
        }
        self.shards[0].borrow().port.uninstall_program(ctl.slot);
    }

    /// Write-through populate of the device KV cache (the host calls
    /// this after serving a GET miss). Returns `false` when no KV
    /// offload is installed or the entry exceeds the device-memory bound
    /// — callers need no special-casing either way.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        match self.offload.borrow().as_ref() {
            Some(ctl) => ctl.engine.borrow_mut().cache_insert(key, value),
            None => false,
        }
    }

    /// Host-driven invalidation of one device KV cache entry — for
    /// removals the device cannot see on the wire (host-side LRU
    /// eviction, TTL expiry). Returns `false` when no KV offload is
    /// installed or the key was not cached.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        match self.offload.borrow().as_ref() {
            Some(ctl) => ctl.engine.borrow_mut().cache_invalidate(key),
            None => false,
        }
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        self.offload
            .borrow()
            .as_ref()
            .map(|ctl| ctl.engine.borrow().stats())
    }
}
