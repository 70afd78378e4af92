//! Layer rigs: each layer driven alone, with no layer above it, on canned
//! inputs shaped like the workloads' (64 B and MSS-sized frames; the same
//! GET/SET bursts, SET bursts split at the MSS).
//!
//! Every rig reports the best (smallest), over [`ROUNDS`] repetitions, of
//! wall nanoseconds per unit of work — on a shared box noise only ever
//! adds time, so the quickest repetition is the steadiest reading (the
//! same rule as the end-to-end wall-clock metrics; see `measure`). The
//! repetitions are taken round-robin — one of every rig, then the next of
//! every rig — so each rig's samples are spread over the whole budget and
//! a slow phase of the machine cannot cover all of them. Rigs that sit on
//! lower layers subtract
//! those layers' own rigs, so each row is that layer's share alone:
//!
//! * `dpdk-sim.burst_ns` = (port tx_burst → fabric → rx_burst) − fabric rig
//! * `net-stack.stack.*_rt_ns` = (stack → port → fabric and back) −
//!   frames × (device + fabric rigs)
//!
//! A subtraction can come out slightly negative when the lower rig ran
//! hotter than the same code inside the upper one; it is reported as
//! measured, not clamped.

use std::cell::RefCell;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use demi_kv::log::{encode_batch, PendingOp};
use demi_kv::store::KvStore;
use demi_kv::{ReplyWriter, RespParser};
use demi_memory::{DemiBuffer, MemoryManager};
use demi_sched::{Notify, Scheduler};
use demi_telemetry::stage::{self, Stage};
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::testing::{catfs_world, catmem_world, catnip_pair, host_ip, host_mac};
use demikernel::types::{OperationResult, Sga};
use dpdk_sim::{DpdkPort, Mbuf, PortConfig};
use net_stack::checksum::internet_checksum;
use net_stack::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use net_stack::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use net_stack::stack::MAX_HEADER_LEN;
use net_stack::tcp::{SeqNum, TcpConfig, TcpFlags, TcpHeader, TcpPeer, TcpSegmentOut};
use net_stack::types::SocketAddr;
use net_stack::udp::{UdpHeader, UDP_HEADER_LEN};
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{Fabric, SimTime};

use crate::workloads::KEYS;

/// Repetitions per rig; the best is reported.
pub const ROUNDS: usize = 20;
const MSS: usize = 1460;
const SMALL: usize = 64;
const VALUE: usize = 1024;
const DEPTH: usize = 16;

/// One rig's result.
#[derive(Debug, Clone, Copy)]
pub struct Rig {
    /// Metric name (layer-prefixed).
    pub name: &'static str,
    /// Best-of-[`ROUNDS`] nanoseconds per unit.
    pub ns: f64,
}

/// All rig results, plus the per-frame facts the reconciliation needs.
#[derive(Debug, Clone)]
pub struct Rigs {
    /// The rows reported as per-layer metrics.
    pub rows: Vec<Rig>,
    /// Fabric frames one round trip of the hand-driven TCP stack rig sent.
    pub tcp_rt_frames: f64,
}

impl Rigs {
    /// The value of rig `name`.
    ///
    /// # Panics
    ///
    /// Panics if no rig has that name.
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no rig named {name}"))
            .ns
    }
}

/// A rig: does some units of work per call and returns
/// `(units, elapsed)`. It times itself so it can keep set-up (rebuilding
/// a world whose log grew) outside the clock.
type Chunk = Box<dyn FnMut() -> (u64, Duration)>;

/// Wraps a plain closure doing `units` of work per call.
fn timed(units: u64, mut work: impl FnMut() + 'static) -> Chunk {
    Box::new(move || {
        let t = Instant::now();
        work();
        (units, t.elapsed())
    })
}

fn client_ip() -> Ipv4Addr {
    host_ip(1)
}

fn server_ip() -> Ipv4Addr {
    host_ip(2)
}

fn eth_header() -> EthHeader {
    EthHeader {
        dst: host_mac(2),
        src: host_mac(1),
        ethertype: EtherType::Ipv4,
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// A buffer of `len` payload bytes with full header headroom.
fn payload_buffer(len: usize) -> DemiBuffer {
    let mut buf = DemiBuffer::zeroed_with_headroom(MAX_HEADER_LEN, len);
    buf.try_mut()
        .expect("fresh buffer")
        .copy_from_slice(&pattern(len));
    buf
}

const UDP_HEADERS: usize = UDP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN;

/// Prepends UDP + IPv4 + Ethernet headers in place (the stack's TX path).
fn frame_udp(buf: &mut DemiBuffer) {
    let udp = UdpHeader {
        src_port: 9000,
        dst_port: 7,
    };
    udp.prepend_onto(client_ip(), server_ip(), buf)
        .expect("headroom");
    let ip = Ipv4Header {
        src: client_ip(),
        dst: server_ip(),
        protocol: IpProtocol::Udp,
        payload_len: buf.len(),
    };
    ip.prepend_onto(buf).expect("headroom");
    eth_header().prepend_onto(buf).expect("headroom");
}

fn tcp_header() -> TcpHeader {
    TcpHeader {
        src_port: 49152,
        dst_port: 6379,
        seq: SeqNum(1_000),
        ack: SeqNum(2_000),
        flags: TcpFlags {
            ack: true,
            ..TcpFlags::default()
        },
        window: 65535,
        mss: None,
    }
}

/// Prepends TCP + IPv4 + Ethernet headers in place; returns their length.
fn frame_tcp(buf: &mut DemiBuffer) -> usize {
    let before = buf.len();
    tcp_header()
        .prepend_onto(client_ip(), server_ip(), buf)
        .expect("headroom");
    let ip = Ipv4Header {
        src: client_ip(),
        dst: server_ip(),
        protocol: IpProtocol::Tcp,
        payload_len: buf.len(),
    };
    ip.prepend_onto(buf).expect("headroom");
    eth_header().prepend_onto(buf).expect("headroom");
    buf.len() - before
}

/// Eth → IPv4 → UDP parse with checksum verification (the RX path).
fn parse_udp(frame: &[u8]) -> usize {
    let (_, ip) = EthHeader::parse(frame).expect("eth");
    let (h, datagram) = Ipv4Header::parse(ip).expect("ipv4");
    let (_, len) = UdpHeader::parse(h.src, h.dst, datagram).expect("udp");
    len
}

fn parse_tcp(frame: &[u8]) -> usize {
    let (_, ip) = EthHeader::parse(frame).expect("eth");
    let (h, segment) = Ipv4Header::parse(ip).expect("ipv4");
    let (_, off) = TcpHeader::parse(h.src, h.dst, segment).expect("tcp");
    off
}

fn get_burst() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..DEPTH {
        out.extend_from_slice(format!("*2\r\n$3\r\nGET\r\n$10\r\nkey:{i:06}\r\n").as_bytes());
    }
    out
}

fn set_burst() -> Vec<u8> {
    let mut out = Vec::new();
    let value = pattern(VALUE);
    for i in 0..DEPTH {
        out.extend_from_slice(
            format!("*3\r\n$3\r\nSET\r\n$10\r\nkey:{i:06}\r\n${VALUE}\r\n").as_bytes(),
        );
        out.extend_from_slice(&value);
        out.extend_from_slice(b"\r\n");
    }
    out
}

fn drain_commands(parser: &mut RespParser) -> u64 {
    let mut n = 0;
    while let Some(cmd) = parser.next_command().expect("clean stream") {
        black_box(&cmd);
        n += 1;
    }
    n
}

/// Two established `TcpPeer`s and the scratch that shuttles segments
/// between them (the E19 idiom, one flow).
struct PeerPair {
    client: TcpPeer,
    server: TcpPeer,
    conn: net_stack::tcp::ConnId,
    sconn: net_stack::tcp::ConnId,
    scratch: Vec<(Ipv4Addr, TcpSegmentOut)>,
    now: SimTime,
}

impl PeerPair {
    fn new() -> PeerPair {
        let mut server = TcpPeer::new(server_ip(), TcpConfig::default());
        let lid = server.listen(6379, 16).expect("listen");
        let mut client = TcpPeer::new(client_ip(), TcpConfig::default());
        let now = SimTime::from_millis(1);
        let conn = client
            .connect(SocketAddr::new(server_ip(), 6379), now)
            .expect("connect");
        let mut pair = PeerPair {
            client,
            server,
            conn,
            sconn: conn,
            scratch: Vec::new(),
            now,
        };
        pair.shuttle();
        pair.sconn = pair
            .server
            .accept(lid)
            .expect("listener")
            .expect("handshake done");
        pair
    }

    /// Delivers in-flight segments both ways until the wire is quiet.
    fn shuttle(&mut self) {
        loop {
            let mut quiet = true;
            self.client.drain_segments(&mut self.scratch);
            for (_, seg) in self.scratch.drain(..) {
                quiet = false;
                self.server
                    .on_segment(client_ip(), &seg.header, seg.payload, self.now);
            }
            self.server.drain_segments(&mut self.scratch);
            for (_, seg) in self.scratch.drain(..) {
                quiet = false;
                self.client
                    .on_segment(server_ip(), &seg.header, seg.payload, self.now);
            }
            if quiet {
                return;
            }
        }
    }

    /// One data segment client → server, its ACK back, and the receive.
    fn segment(&mut self, payload: DemiBuffer) {
        self.now = self.now.saturating_add(SimTime::from_micros(2));
        self.client
            .send(self.conn, payload, self.now)
            .expect("send");
        self.shuttle();
        while let Ok(Some(chunk)) = self.server.recv(self.sconn) {
            black_box(chunk);
        }
        // Fire whatever the clock made due (delayed ACKs).
        if self.server.next_deadline().is_some_and(|t| t <= self.now) {
            self.server.on_tick(self.now);
            self.shuttle();
        }
    }
}

/// Two `NetworkStack`s over ports and a fabric, polled by hand — no
/// runtime, no scheduler, no API layer.
struct StackPair {
    fabric: Fabric,
    client: NetworkStack,
    server: NetworkStack,
}

impl StackPair {
    fn new() -> StackPair {
        let fabric = Fabric::new(7);
        let stack = |n: u8| {
            NetworkStack::new(
                DpdkPort::new(&fabric, PortConfig::basic(host_mac(n))),
                fabric.clock(),
                StackConfig::new(host_ip(n)),
            )
        };
        let (client, server) = (stack(1), stack(2));
        StackPair {
            fabric,
            client,
            server,
        }
    }

    /// Polls both stacks and advances the fabric until `done` holds.
    fn settle(&self, mut done: impl FnMut(&StackPair) -> bool) {
        for _ in 0..10_000 {
            self.client.poll();
            self.server.poll();
            if done(self) {
                return;
            }
            if self.fabric.advance_to_next_event() {
                continue;
            }
            let deadline = [self.client.next_deadline(), self.server.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match deadline {
                Some(t) => self.fabric.clock().advance_to(t),
                None => continue,
            }
        }
        panic!("stack rig did not settle");
    }
}

/// Builds every rig. Names starting with `raw.` are inputs to the
/// subtractions in [`run`], not reported rows.
fn build() -> (Vec<(&'static str, Chunk)>, f64) {
    let mut rigs: Vec<(&'static str, Chunk)> = Vec::new();
    let mut add = |name: &'static str, chunk: Chunk| rigs.push((name, chunk));

    // ---- sim-fabric: endpoint transmit → advance → receive, per frame.
    {
        let fabric = Fabric::new(1);
        let a = fabric.register_endpoint(host_mac(1));
        let b = fabric.register_endpoint(host_mac(2));
        let mut frame = payload_buffer(SMALL);
        frame_udp(&mut frame);
        add(
            "sim-fabric.deliver_ns",
            timed(256, move || {
                for _ in 0..256 {
                    a.transmit(host_mac(2), frame.clone());
                    fabric.advance_to_next_event();
                    black_box(b.receive());
                }
            }),
        );
    }

    // ---- dpdk-sim: tx_burst + rx_burst of 1 and of 16 frames, per frame
    // (fabric included; `run` subtracts it).
    for (name, frames) in [("raw.dpdk-sim.burst", 1usize), ("raw.dpdk-sim.burst16", 16)] {
        let fabric = Fabric::new(2);
        let tx = DpdkPort::new(&fabric, PortConfig::basic(host_mac(1)));
        let rx = DpdkPort::new(&fabric, PortConfig::basic(host_mac(2)));
        let mut frame = payload_buffer(SMALL);
        frame_udp(&mut frame);
        let burst: Vec<Mbuf> = (0..frames)
            .map(|_| Mbuf::from_data(frame.clone()))
            .collect();
        add(
            name,
            timed(64 * frames as u64, move || {
                for _ in 0..64 {
                    tx.tx_burst(&burst);
                    while fabric.advance_to_next_event() {}
                    black_box(rx.rx_burst(0, 64));
                }
            }),
        );
    }

    // ---- demi-memory.
    {
        let mem = MemoryManager::warmed();
        add(
            "demi-memory.alloc_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    black_box(mem.alloc(SMALL));
                }
            }),
        );
        let mut buf = payload_buffer(SMALL);
        add(
            "demi-memory.prepend_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    black_box(buf.prepend(UDP_HEADERS).expect("headroom"));
                    buf.trim_front(UDP_HEADERS);
                }
            }),
        );
        let buf = payload_buffer(MSS);
        add(
            "demi-memory.slice_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    black_box(buf.slice(black_box(40), 1064));
                }
            }),
        );
    }

    // ---- net-stack.wire: header prepend incl. checksum, and RX parse.
    {
        let mut small = payload_buffer(SMALL);
        add(
            "net-stack.wire.tx_headers_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    frame_udp(&mut small);
                    small.trim_front(UDP_HEADERS);
                }
            }),
        );
        let mut big = payload_buffer(MSS);
        add(
            "net-stack.wire.tx_headers_mss_ns",
            timed(256, move || {
                for _ in 0..256 {
                    let n = frame_tcp(&mut big);
                    big.trim_front(n);
                }
            }),
        );
        let mut small = payload_buffer(SMALL);
        frame_udp(&mut small);
        add(
            "net-stack.wire.rx_parse_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    black_box(parse_udp(black_box(small.as_slice())));
                }
            }),
        );
        let mut big = payload_buffer(MSS);
        frame_tcp(&mut big);
        add(
            "net-stack.wire.rx_parse_mss_ns",
            timed(256, move || {
                for _ in 0..256 {
                    black_box(parse_tcp(black_box(big.as_slice())));
                }
            }),
        );
        let block = pattern(16 * 1024);
        add(
            "net-stack.wire.checksum_ns_per_kib",
            timed(16 * 64, move || {
                for _ in 0..64 {
                    black_box(internet_checksum(black_box(&block)));
                }
            }),
        );
    }

    // ---- net-stack.tcp: two TcpPeers shuttled, per data segment + ACK.
    {
        let mut pair = PeerPair::new();
        let mem = MemoryManager::warmed();
        add(
            "net-stack.tcp.segment_ns",
            timed(256, move || {
                for _ in 0..256 {
                    pair.segment(mem.alloc(SMALL));
                }
            }),
        );
    }

    // ---- net-stack.stack: two stacks over ports + fabric, hand-polled
    // (device and fabric included; `run` subtracts them).
    let tcp_rt_frames = {
        let w = Rc::new(StackPair::new());
        w.server.udp_bind(7).expect("bind");
        w.client.udp_bind(9000).expect("bind");
        let mem = MemoryManager::warmed();
        let udp_round_trip = {
            let mem = mem.clone();
            move |w: &StackPair| {
                w.client
                    .udp_sendto(9000, SocketAddr::new(server_ip(), 7), mem.alloc(SMALL))
                    .expect("send");
                let mut request = None;
                w.settle(|w| {
                    request = w.server.udp_recv_from(7);
                    request.is_some()
                });
                let (from, payload) = request.expect("settled");
                w.server.udp_sendto(7, from, payload).expect("echo");
                w.settle(|w| w.client.udp_recv_from(9000).is_some());
            }
        };
        udp_round_trip(&w); // ARP.
        let world = w.clone();
        add(
            "raw.net-stack.stack.udp_rt",
            timed(64, move || {
                for _ in 0..64 {
                    udp_round_trip(&world);
                }
            }),
        );

        let lid = w.server.tcp_listen(6379, 16).expect("listen");
        let conn = w
            .client
            .tcp_connect(SocketAddr::new(server_ip(), 6379))
            .expect("connect");
        let mut sconn = None;
        w.settle(|w| {
            sconn = w.server.tcp_accept(lid).expect("listener");
            sconn.is_some()
        });
        let sconn = sconn.expect("settled");
        let tcp_round_trip = move |w: &StackPair| {
            w.client.tcp_send(conn, mem.alloc(SMALL)).expect("send");
            w.settle(|w| {
                let mut got = false;
                while let Ok(Some(chunk)) = w.server.tcp_recv(sconn) {
                    w.server.tcp_send(sconn, chunk).expect("echo");
                    got = true;
                }
                got
            });
            w.settle(|w| matches!(w.client.tcp_recv(conn), Ok(Some(_))));
        };
        // Frames per round trip, counted once, outside the clock.
        tcp_round_trip(&w);
        let frames_before = w.fabric.stats().frames_sent;
        for _ in 0..64 {
            tcp_round_trip(&w);
        }
        let frames = (w.fabric.stats().frames_sent - frames_before) as f64 / 64.0;
        let world = w.clone();
        add(
            "raw.net-stack.stack.tcp_rt",
            timed(64, move || {
                for _ in 0..64 {
                    tcp_round_trip(&world);
                }
            }),
        );
        frames
    };

    // ---- demi-sched: wake → poll of a parked task.
    {
        let sched = Scheduler::new();
        let gate = Notify::new();
        let task_gate = gate.clone();
        // Dropping the handle detaches the task; it stays parked.
        let _ = sched.spawn("rig::parked", async move {
            loop {
                task_gate.notified().await;
            }
        });
        sched.run_pass();
        add(
            "demi-sched.wake_poll_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    gate.notify_waiters();
                    black_box(sched.run_pass());
                }
            }),
        );
    }

    // ---- core.runtime: spawn_op of a ready future + wait.
    {
        let rt = Runtime::new();
        add(
            "core.runtime.qtoken_ns",
            timed(256, move || {
                for _ in 0..256 {
                    let qt = rt.spawn_op("rig::ready", async { OperationResult::Push });
                    black_box(rt.wait(qt, None).expect("ready op"));
                }
            }),
        );
    }

    // ---- core.runtime: one pass of the wait loop with nothing to do —
    // fabric check, both hosts' stack pollers, timers, run-queue check.
    // Every `wait` pays this per pass whether or not the pass finds work.
    {
        // The runtime owns the fabric handle and both stacks' pollers.
        let (rt, _fabric, _client, _server) = catnip_pair(3);
        add(
            "core.runtime.idle_pass_ns",
            timed(1024, move || {
                for _ in 0..1024 {
                    black_box(rt.pump());
                }
            }),
        );
    }

    // ---- core.catmem: API + runtime + scheduler, no device underneath.
    {
        let (_rt, libos) = catmem_world();
        let qd = libos.queue().expect("queue");
        let sga = Sga::from_bufs(vec![payload_buffer(SMALL)]);
        add(
            "core.catmem.push_pop_ns",
            timed(256, move || {
                for _ in 0..256 {
                    let qt = libos.push(qd, &sga).expect("push");
                    libos.wait(qt, None).expect("push wait");
                    let qt = libos.pop(qd).expect("pop");
                    black_box(libos.wait(qt, None).expect("pop wait"));
                }
            }),
        );
    }

    // ---- demi-kv.
    {
        let gets = DemiBuffer::from(get_burst());
        let mut parser = RespParser::new();
        add(
            "demi-kv.resp.parse_ns",
            timed((16 * DEPTH) as u64, move || {
                for _ in 0..16 {
                    parser.push_chunk(gets.clone());
                    assert_eq!(drain_commands(&mut parser), DEPTH as u64);
                }
            }),
        );
        let sets = DemiBuffer::from(set_burst());
        let cuts: Vec<(usize, usize)> = (0..sets.len())
            .step_by(MSS)
            .map(|at| (at, (at + MSS).min(sets.len())))
            .collect();
        let mut parser = RespParser::new();
        add(
            "demi-kv.resp.parse_set1k_ns",
            timed((4 * DEPTH) as u64, move || {
                for _ in 0..4 {
                    let mut n = 0;
                    for &(from, to) in &cuts {
                        parser.push_chunk(sets.slice(from, to));
                        n += drain_commands(&mut parser);
                    }
                    assert_eq!(n, DEPTH as u64);
                }
            }),
        );

        let now = SimTime::from_millis(1);
        let mem = MemoryManager::warmed();
        let keys: Rc<Vec<Vec<u8>>> = Rc::new(
            (0..KEYS)
                .map(|i| format!("key:{i:06}").into_bytes())
                .collect(),
        );
        let fresh_value = {
            let mem = mem.clone();
            move || {
                let mut v = mem.alloc(VALUE);
                v.try_mut().expect("fresh").copy_from_slice(&pattern(VALUE));
                v
            }
        };
        let store = Rc::new(RefCell::new(KvStore::new(64 << 20, now)));
        for k in keys.iter() {
            store
                .borrow_mut()
                .set(k, fresh_value(), None, now)
                .expect("fits");
        }
        let (get_store, get_keys) = (store.clone(), keys.clone());
        let mut next = 0usize;
        add(
            "demi-kv.store.get_ns",
            timed(1024, move || {
                let mut store = get_store.borrow_mut();
                for _ in 0..1024 {
                    next = (next + 389) % KEYS;
                    black_box(store.get(&get_keys[next], now));
                }
            }),
        );
        let value = fresh_value();
        let set_keys = keys.clone();
        let mut next = 0usize;
        add(
            "demi-kv.store.set_ns",
            timed(1024, move || {
                let mut store = store.borrow_mut();
                for _ in 0..1024 {
                    next = (next + 389) % KEYS;
                    store
                        .set(&set_keys[next], value.clone(), None, now)
                        .expect("fits");
                }
            }),
        );

        let values: Vec<DemiBuffer> = (0..DEPTH).map(|_| fresh_value()).collect();
        let ops: Vec<PendingOp> = (0..DEPTH)
            .map(|i| PendingOp::Set {
                key: DemiBuffer::from(keys[i].clone()),
                value: values[i].clone(),
                expire_at: None,
            })
            .collect();
        let mut writer = ReplyWriter::new(mem);
        add(
            "demi-kv.reply.bulk_ns",
            timed((16 * DEPTH) as u64, move || {
                for _ in 0..16 {
                    for v in &values {
                        writer.bulk(v);
                    }
                    black_box(writer.take());
                }
            }),
        );
        add(
            "demi-kv.log.encode_ns",
            timed((64 * DEPTH) as u64, move || {
                for _ in 0..64 {
                    black_box(encode_batch(black_box(&ops)));
                }
            }),
        );
    }

    // ---- core.catfs: push + wait of one record. The record is one
    // 1 KiB SET — the batch shape the durable workload actually commits
    // (the engine drains per arriving chunk; see the README's findings).
    {
        let record = Sga::from_bufs(vec![DemiBuffer::from(encode_batch(&[PendingOp::Set {
            key: DemiBuffer::from(b"key:000000".to_vec()),
            value: DemiBuffer::from(pattern(VALUE)),
            expire_at: None,
        }]))]);
        add(
            "core.catfs.commit_ns",
            Box::new(move || {
                // A fresh world per chunk bounds the append-only log;
                // building it stays outside the clock.
                let (_rt, fs, _device) = catfs_world();
                let qd = fs.create("rig.aof").expect("create");
                let t = Instant::now();
                for _ in 0..256 {
                    let qt = fs.push(qd, &record).expect("push");
                    black_box(fs.wait(qt, None).expect("commit"));
                }
                (256, t.elapsed())
            }),
        );
    }

    // ---- demi-telemetry: one histogram sample (recording switched on
    // only inside the chunk, so no other rig pays for it).
    {
        let mut ns = 1u64;
        add(
            "demi-telemetry.record_ns",
            Box::new(move || {
                demi_telemetry::set_enabled(true);
                let t = Instant::now();
                for _ in 0..4096 {
                    ns = ns.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    stage::record(Stage::OpLatency, black_box(ns >> 44));
                }
                let elapsed = t.elapsed();
                demi_telemetry::set_enabled(false);
                (4096, elapsed)
            }),
        );
    }

    (rigs, tcp_rt_frames)
}

/// Runs every rig within roughly `budget` of wall time.
pub fn run(budget: Duration) -> Rigs {
    let (mut rigs, tcp_rt_frames) = build();
    let per_rep = budget / (rigs.len() * (ROUNDS + 1)) as u32;
    let mut best = vec![f64::INFINITY; rigs.len()];
    // Round 0 warms caches, pools and lazy state; it is not scored.
    for round in 0..=ROUNDS {
        for ((_, chunk), best) in rigs.iter_mut().zip(&mut best) {
            let (mut units, mut spent) = (0u64, Duration::ZERO);
            while spent < per_rep {
                let (u, d) = chunk();
                units += u;
                spent += d;
            }
            if round > 0 {
                *best = best.min(spent.as_nanos() as f64 / units as f64);
            }
        }
    }
    stage::reset();

    let raw = |name: &str| {
        let i = rigs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no rig named {name}"));
        best[i]
    };
    let deliver = raw("sim-fabric.deliver_ns");
    let burst = raw("raw.dpdk-sim.burst");
    let mut rows: Vec<Rig> = rigs
        .iter()
        .zip(&best)
        .filter(|((name, _), _)| !name.starts_with("raw."))
        .map(|((name, _), &ns)| Rig { name, ns })
        .collect();
    rows.extend([
        Rig {
            name: "dpdk-sim.burst_ns",
            ns: burst - deliver,
        },
        Rig {
            name: "dpdk-sim.burst16_ns",
            ns: raw("raw.dpdk-sim.burst16") - deliver,
        },
        // One frame each way; `burst` is device + fabric per frame.
        Rig {
            name: "net-stack.stack.udp_rt_ns",
            ns: raw("raw.net-stack.stack.udp_rt") - 2.0 * burst,
        },
        Rig {
            name: "net-stack.stack.tcp_rt_ns",
            ns: raw("raw.net-stack.stack.tcp_rt") - tcp_rt_frames * burst,
        },
    ]);
    Rigs {
        rows,
        tcp_rt_frames,
    }
}
