//! The paper's comparisons against what it argues *against* — the kernel
//! path, POSIX streams, epoll, mTCP, a UNIX file system — as counts and
//! virtual-time quantities (EXPERIMENTS.md E1, E3, E4, E8, E10). The
//! Demikernel side of each is pinned in detail elsewhere; these tests hold
//! the two sides against each other on identical simulated hardware, so
//! every number repeats exactly on any host and build.

mod support;

use demikernel::libos::catfs::Catfs;
use demikernel::libos::catnap::Catnap;
use demikernel::libos::LibOs;
use demikernel::testing::{catnap_pair, catnip_pair, host_mac};
use demikernel::types::{QDesc, Sga};
use demikernel::Runtime;
use net_stack::types::SocketAddr;
use posix_sim::epoll::EpollRegistry;
use posix_sim::{CostModel, Ext4Sim, KernelSockets, SimKernel};
use sim_fabric::{Fabric, SimClock, SimTime};
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};
use support::{host, ip, mtcp_echo_rtt, tcp_pair, udp_echo_rtt, udp_pair};

// ---------------------------------------------------------------------
// E1 — Fig. 1 / §1: "the kernel adds significant overhead to every I/O
// access"; kernel bypass removes it from the data path.
// ---------------------------------------------------------------------

/// Mean RTT of 200 echoes of 1400 B through a kernel charging `cost`.
fn kernel_echo_rtt(cost: CostModel) -> u64 {
    let fabric = Fabric::new(3_001);
    let rt = Runtime::with_fabric(fabric.clone());
    let [client, server] =
        [1, 2].map(|n| Catnap::with_cost_model(&rt, &fabric, host_mac(n), ip(n), cost));
    udp_echo_rtt(&client, &server, 1400, 200)
}

#[test]
fn e1_the_kernel_path_is_slower_by_its_crossings_and_its_copies() {
    for (size, measured) in [
        (64, (2_042, 4_506)),
        (512, (2_220, 5_120)),
        (1400, (2_576, 6_344)),
    ] {
        let (_rt, _f, c, s) = catnip_pair(1_000 + size as u64);
        let bypass = udp_echo_rtt(&c, &s, size, 200);
        let (_rt, _f, c, s) = catnap_pair(2_000 + size as u64);
        let kernel = udp_echo_rtt(&c, &s, size, 200);
        // (bypass, kernel) virtual ns: the kernel path must be slower.
        assert_eq!((bypass, kernel), measured, "{size} B echo RTT");
    }
    // Ablation: zero out one cost class at a time; each lowers the RTT,
    // and what is left with both gone is the bypass path's 2 576 ns.
    let (mut no_crossings, mut no_copies) = (CostModel::default(), CostModel::default());
    no_crossings.syscall = SimTime::ZERO;
    no_copies.copy_per_kib = SimTime::ZERO;
    let (full, free) = (CostModel::default(), CostModel::free());
    let ablation = [full, no_crossings, no_copies, free].map(kernel_echo_rtt);
    assert_eq!(ablation, [6_344, 3_944, 4_976, 2_576], "1 400 B kernel RTT");
}

// ---------------------------------------------------------------------
// E3 — §3.2: "by the time Redis has inspected a pipe and found that its
// read operation is incomplete, it could have processed a request that
// was ready." 8 KiB requests cross several TCP segments.
// ---------------------------------------------------------------------

/// 100 lock-step 8 KiB requests; every pop must return a whole request.
fn requests_8k(client: &dyn LibOs, server: &dyn LibOs, cqd: QDesc, sqd: QDesc) {
    let request = Sga::from_slice(&[7u8; 8192]);
    for _ in 0..100 {
        client.blocking_push(cqd, &request).unwrap();
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.len(), 8192);
    }
}

#[test]
fn e3_a_stream_server_reads_per_fragment_a_queue_server_pops_per_request() {
    let (rt, _fabric, client, server) = catnip_pair(31);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);
    requests_8k(&client, &server, cqd, sqd);
    assert_eq!(rt.metrics().snapshot().pops, 100, "one pop per request");

    let (_rt, _fabric, client, server) = catnap_pair(32);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);
    server.sim_kernel().reset_stats();
    requests_8k(&client, &server, cqd, sqd);
    let reads = server.kernel_stats().unwrap().syscalls;
    // A fragmented request costs more than one read: six per 8 KiB.
    assert_eq!(reads, 600, "reads per 100 fragmented requests");
}

// ---------------------------------------------------------------------
// E4 — §4.4: "wait wakes exactly one thread on each pop completion, so
// there are never wasted wake ups" — vs epoll's level-triggered wake-all
// plus the extra read syscall.
// ---------------------------------------------------------------------

const COMPLETIONS: usize = 50;

/// The epoll herd: `waiters` threads blocked in `epoll_wait` on one
/// socket, [`COMPLETIONS`] datagrams, one consumer wins each. Returns
/// (wakeups, wasted wakeups).
fn epoll_herd(waiters: usize) -> (usize, usize) {
    let fabric = Fabric::new(41);
    let mk = |n| {
        let kernel = SimKernel::new(fabric.clock(), CostModel::default());
        KernelSockets::new(kernel, host(&fabric, n))
    };
    let (mut sender, mut receiver) = (mk(1), mk(2));
    let mut epoll = EpollRegistry::new();
    let tx = sender.udp_socket(1000).unwrap();
    let rx = receiver.udp_socket(2000).unwrap();
    let ep = epoll.create(&mut receiver);
    epoll.add(&mut receiver, ep, rx).unwrap();

    let (mut wakeups, mut wasted) = (0, 0);
    let mut buf = [0u8; 64];
    for m in 0..COMPLETIONS {
        sender
            .sendto(tx, SocketAddr::new(ip(2), 2000), &[m as u8])
            .unwrap();
        for _ in 0..20 {
            sender.poll();
            receiver.poll();
            if !fabric.advance_to_next_event() {
                break;
            }
        }
        // Everyone is blocked when the datagram lands, so everyone
        // observes readiness before anyone consumes...
        let woken = (0..waiters)
            .filter(|_| !epoll.wait(&mut receiver, ep, 8).unwrap().is_empty())
            .count();
        assert_eq!(woken, waiters, "level-triggered: everyone sees ready");
        wakeups += woken;
        // ...then each issues its own recvfrom; one wins, the rest wasted
        // their wakeup (the paper's exact complaint).
        let won = (0..woken)
            .filter(|_| receiver.recvfrom(rx, &mut buf).unwrap().is_some())
            .count();
        assert_eq!(won, 1, "someone must win the race, and only one can");
        wasted += woken - won;
    }
    (wakeups, wasted)
}

/// Demikernel: `waiters` outstanding pop qtokens on one queue; each
/// completion resolves exactly one. Returns (wakeups, wasted wakeups).
fn wait_any_waiters(waiters: usize) -> (u64, u64) {
    let (rt, _fabric, client, server) = catnip_pair(42);
    let (cqd, sqd, to) = udp_pair(&client, &server);
    client.pushto(cqd, &Sga::from_slice(b"w"), to).unwrap();
    let _ = server.blocking_pop(sqd).unwrap();
    let before = rt.metrics().snapshot();

    let mut tokens: Vec<_> = (0..waiters).map(|_| server.pop(sqd).unwrap()).collect();
    for m in 0..COMPLETIONS {
        client
            .pushto(cqd, &Sga::from_slice(&[m as u8]), to)
            .unwrap();
        let (idx, result) = server.wait_any(&tokens, None).unwrap();
        let _ = result.expect_pop();
        tokens[idx] = server.pop(sqd).unwrap(); // Re-arm that waiter.
    }
    let m = rt.metrics().snapshot().delta(&before);
    (m.wakeups, m.wakeups - m.wakeups_with_data)
}

#[test]
fn e4_epoll_wastes_w_minus_one_wakeups_per_completion_wait_any_none() {
    for w in [1, 2, 4, 8, 16] {
        let (epoll_wakeups, epoll_wasted) = epoll_herd(w);
        assert_eq!(epoll_wakeups, w * COMPLETIONS);
        assert_eq!(epoll_wasted, (w - 1) * COMPLETIONS, "wake-all, W = {w}");
        let (wakeups, wasted) = wait_any_waiters(w);
        assert_eq!((wakeups, wasted), (COMPLETIONS as u64, 0), "W = {w}");
    }
}

// ---------------------------------------------------------------------
// E8 — §6: "We explored mTCP but found it to be too expensive; for
// example, its latency was higher than the Linux kernel's."
// ---------------------------------------------------------------------

#[test]
fn e8_latency_orders_demikernel_then_kernel_then_mtcp() {
    let (_rt, _f, c, s) = catnip_pair(81);
    let demi = udp_echo_rtt(&c, &s, 1024, 100);
    let (_rt, _f, c, s) = catnap_pair(82);
    let kernel = udp_echo_rtt(&c, &s, 1024, 100);
    assert_eq!((demi, kernel), (2_426, 5_826), "1 KiB echo RTT (ns)");
    for (epoch_us, measured) in [(10, 29_952), (32, 95_952)] {
        let (mtcp, syscalls, copies) = mtcp_echo_rtt(83, 1024, 100, SimTime::from_micros(epoch_us));
        // User-level batching beats nothing on latency: at either epoch
        // mTCP must be slower than the kernel's 5 826 ns.
        assert_eq!(mtcp, measured, "mTCP RTT, epoch {epoch_us}µs");
        assert_eq!(syscalls, 0, "no syscalls — kernel bypassed");
        assert_eq!(copies, 2 * 100, "POSIX interface keeps the copies");
    }
}

// ---------------------------------------------------------------------
// E10 — §5.3: "Existing disk layouts (e.g., ext4) may impose unnecessary
// overhead since each Demikernel libOS supports only a single
// application, which may not require an entire UNIX file system."
// ---------------------------------------------------------------------

const APPENDS: u64 = 500;

/// [`APPENDS`] appends of `size` bytes through `append` onto `device`;
/// returns (device blocks written, virtual ns per append).
fn layout_cost(device: &NvmeDevice, clock: &SimClock, mut append: impl FnMut(&[u8])) -> (u64, u64) {
    let record = vec![0xCDu8; 4096];
    let (blocks, t0) = (device.stats().blocks_written, clock.now());
    (0..APPENDS).for_each(|_| append(&record));
    let elapsed = clock.now().saturating_since(t0).as_nanos();
    (device.stats().blocks_written - blocks, elapsed / APPENDS)
}

#[test]
fn e10_the_log_layout_writes_fewer_blocks_than_a_unix_file_system() {
    // The log's ns/append: a record that straddles a block boundary is one
    // 2-block command (25 µs), not two 1-block commands (40 µs).
    for (size, log_measured, ext4_measured) in [
        (128, (516, 20_160), (1_022, 52_880)),
        (1024, (626, 21_260), (1_240, 66_140)),
        (4096, (1_001, 25_010), (1_990, 89_360)),
    ] {
        let rt = Runtime::new();
        let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
        let fs = Catfs::new(&rt, device.clone());
        let qd = fs.create("bench").unwrap();
        let log = layout_cost(&device, rt.clock(), |record| {
            let sga = Sga::from_slice(&record[..size]);
            fs.blocking_push(qd, &sga).unwrap();
        });

        let clock = SimClock::new();
        let device = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        let mut fs = Ext4Sim::format(device.clone(), clock.clone(), None);
        let fd = fs.create("bench").unwrap();
        let ext4 = layout_cost(&device, &clock, |record| {
            fs.append(fd, &record[..size]).unwrap();
        });

        // (blocks, ns/append): the general-purpose layout must write more
        // blocks and take longer per append, at every record size.
        let measured = (log_measured, ext4_measured);
        assert_eq!((log, ext4), measured, "{size} B records");
    }
}
