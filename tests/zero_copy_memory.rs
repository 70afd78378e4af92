//! §4.5 end to end: transparent registration and free-protection across
//! the assembled system.

mod support;

use demi_memory::DemiBuffer;
use demikernel::libos::LibOs;
use demikernel::testing::{catnip_pair, host_ip, AllocMeter, CountingAlloc};
use demikernel::types::Sga;
use net_stack::framing::{encode_message, FrameDecoder};
use net_stack::types::SocketAddr;
use support::{tcp_pair, udp_pair};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

mod headroom_properties {
    //! Property coverage for the headroom API the TX path leans on.

    use demi_memory::{DemiBuffer, HeadroomError};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// prepend(n) then trim_front(n) restores the original view, byte
        /// for byte, and hands the headroom back.
        #[test]
        fn prepend_then_trim_front_round_trips(
            headroom in 0usize..96,
            payload in prop::collection::vec(any::<u8>(), 1..256),
            n in 1usize..96,
        ) {
            let mut buf = DemiBuffer::zeroed_with_headroom(headroom, payload.len());
            buf.try_mut().unwrap().copy_from_slice(&payload);
            if n <= headroom {
                let filler: Vec<u8> = (0..n as u8).collect();
                buf.prepend(n).unwrap().copy_from_slice(&filler);
                prop_assert_eq!(buf.len(), n + payload.len());
                prop_assert_eq!(&buf.as_slice()[..n], filler.as_slice());
                prop_assert_eq!(buf.headroom(), headroom - n);
                buf.trim_front(n);
                prop_assert_eq!(buf.as_slice(), payload.as_slice());
                prop_assert_eq!(buf.headroom(), headroom, "trim restores headroom");
            } else {
                // Exhaustion is an error, never a silent reallocation: the
                // view (and its storage) are untouched.
                let cap_before = buf.capacity();
                prop_assert_eq!(
                    buf.prepend(n).unwrap_err(),
                    HeadroomError::Exhausted { needed: n, available: headroom }
                );
                prop_assert_eq!(buf.capacity(), cap_before);
                prop_assert_eq!(buf.headroom(), headroom);
                prop_assert_eq!(buf.as_slice(), payload.as_slice());
            }
        }

        /// split_off partitions the view in the same storage, and the two
        /// halves concatenate back to the original bytes.
        #[test]
        fn split_off_partitions_within_one_storage(
            payload in prop::collection::vec(any::<u8>(), 0..256),
            at_frac in 0usize..=100,
        ) {
            let at = payload.len() * at_frac / 100;
            let mut head = DemiBuffer::from_slice(&payload);
            let tail = head.split_off(at);
            prop_assert_eq!(head.as_slice(), &payload[..at]);
            prop_assert_eq!(tail.as_slice(), &payload[at..]);
            prop_assert!(head.same_storage(&tail), "a split is two views, not two buffers");
            let mut rejoined = head.to_vec();
            rejoined.extend_from_slice(tail.as_slice());
            prop_assert_eq!(rejoined, payload);
        }

        /// A live view below blocks both prepend (Shared, not corruption)
        /// and mutation; dropping it restores both capabilities.
        #[test]
        fn views_below_block_prepend_and_mutation(
            payload in prop::collection::vec(any::<u8>(), 1..128),
            headroom in 2usize..64,
        ) {
            let mut buf = DemiBuffer::zeroed_with_headroom(headroom, payload.len());
            buf.try_mut().unwrap().copy_from_slice(&payload);
            // A clone at the same offset (the app's own handle) does NOT
            // block prepend — but does block mutation.
            let mut framed = buf.clone();
            prop_assert!(buf.try_mut().is_none(), "shared buffer refuses try_mut");
            prop_assert!(buf.can_prepend(1));
            // Once the clone prepends (a "device" framing the packet), its
            // view starts below ours and our prepend must refuse.
            framed.prepend(1).unwrap()[0] = 0xEE;
            prop_assert_eq!(buf.prepend(1).unwrap_err(), HeadroomError::Shared);
            prop_assert!(!buf.can_prepend(1));
            drop(framed);
            prop_assert!(buf.prepend(1).is_ok());
            prop_assert!(buf.try_mut().is_some());
            buf.trim_front(1);
            prop_assert_eq!(buf.as_slice(), payload.as_slice(), "payload never disturbed");
        }
    }
}

#[test]
fn sgaalloc_memory_is_preregistered_and_data_path_registers_nothing() {
    let (_rt, _fabric, client, server) = catnip_pair(501);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    let regs_before = client.memory().region_stats().registrations;
    for _ in 0..200 {
        // The application allocates I/O memory with sgaalloc — it never
        // sees a registration call (the paper's transparent registration).
        let sga = client.sgaalloc(512);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    assert_eq!(
        client.memory().region_stats().registrations,
        regs_before,
        "no registration on the data path"
    );
    assert!(client.memory().region_stats().pinned_bytes > 0);
}

#[test]
fn free_protection_lets_the_app_drop_in_flight_buffers() {
    // §4.5: "Applications can free buffers while they are in use by a
    // device, but the libOS will not deallocate the buffer until the
    // device completes its I/O."
    let (_rt, _fabric, client, server) = catnip_pair(502);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    {
        // Allocate, push, and immediately drop every application handle —
        // the "free" happens while the bytes are still in the TCP stack
        // and the simulated NIC.
        let sga = client.sgaalloc(4096);
        let qt = client.push(cqd, &sga).unwrap();
        drop(sga);
        client.wait(qt, None).unwrap();
    }
    // The data still arrives intact: refcounts kept the storage alive.
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(got.len(), 4096);
}

#[test]
fn shared_buffers_resist_in_place_mutation() {
    // §4.5: no write-protection is offered, but the safe API enforces the
    // allocate-new-buffer discipline: a buffer whose handle is shared
    // (e.g., held by a device queue) refuses `try_mut`.
    let buf = demi_memory::DemiBuffer::from_slice(b"in flight");
    let device_handle = buf.clone();
    let mut app_handle = buf;
    assert!(
        app_handle.try_mut().is_none(),
        "mutation must require exclusive ownership"
    );
    drop(device_handle);
    assert!(app_handle.try_mut().is_some());
}

#[test]
fn pool_recycling_works_through_the_full_stack() {
    // Buffers released after I/O return to the pool; sustained traffic
    // reaches a steady state with no pool growth.
    let (_rt, _fabric, client, server) = catnip_pair(503);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    // Warm up.
    for _ in 0..20 {
        let sga = client.sgaalloc(1024);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let owned_before = client.memory().pool_stats().owned_bytes;
    for _ in 0..200 {
        let sga = client.sgaalloc(1024);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    assert_eq!(
        client.memory().pool_stats().owned_bytes,
        owned_before,
        "steady-state traffic must not grow the pools"
    );
}

#[test]
fn wire_and_peer_see_the_senders_own_storage() {
    // The zero-copy invariant, end to end: the payload the peer pops is
    // byte-identical to what the app pushed AND lives in the *same
    // allocation* — one buffer travels app → UDP → IP → Ethernet → mbuf →
    // fabric → peer mbuf → peer app, headers prepended into its headroom.
    let (_rt, _fabric, client, server) = catnip_pair(505);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    let mut sga = client.sgaalloc(1400);
    let pattern: Vec<u8> = (0..1400u32).map(|i| (i % 251) as u8).collect();
    sga.segments_mut()[0]
        .try_mut()
        .expect("app handle is exclusive")
        .copy_from_slice(&pattern);
    client
        .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
        .unwrap();
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    let popped = &got.segments()[0];
    assert_eq!(popped.as_slice(), pattern.as_slice(), "byte-identical");
    assert!(
        popped.same_storage(&sga.segments()[0]),
        "storage-identical: the peer reads the sender's own allocation"
    );
    // And the view sits past the (trimmed) wire headers — mbuf semantics.
    assert!(
        popped.headroom() >= net_stack::stack::MAX_HEADER_LEN - net_stack::tcp::TCP_MAX_HEADER_LEN
    );
}

#[test]
fn udp_packets_cost_one_alloc_and_zero_copies_each() {
    // E12's claim, asserted rather than printed: after warm-up, each
    // packet on the catnip echo path costs exactly the application's own
    // pool allocation — the stack adds no allocation and moves no payload
    // byte, on TX or RX.
    let (_rt, _fabric, client, server) = catnip_pair(506);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    // Warm-up: ARP resolution and pool population happen here.
    for _ in 0..20 {
        let sga = client.sgaalloc(1400);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }

    const ROUNDS: u64 = 100;
    let before = demi_memory::counters::snapshot();
    for _ in 0..ROUNDS {
        let sga = client.sgaalloc(1400);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let d = demi_memory::counters::snapshot().delta(&before);
    assert_eq!(d.allocs, ROUNDS, "exactly one pool allocation per packet");
    assert_eq!(d.copies, 0, "zero payload copies per packet");
    assert_eq!(d.bytes_copied, 0);
}

#[test]
fn tcp_echo_path_moves_payload_bytes_zero_times() {
    // Same claim for the stream path: a ≤MSS message costs its own pool
    // allocation plus the 8-byte framing-header buffer and empty ACK
    // frames — and zero payload-byte copies.
    let (_rt, _fabric, client, server) = catnip_pair(507);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    for _ in 0..10 {
        let sga = client.sgaalloc(1400);
        let qt = client.push(cqd, &sga).unwrap();
        client.wait(qt, None).unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }

    const ROUNDS: u64 = 50;
    let before = demi_memory::counters::snapshot();
    for _ in 0..ROUNDS {
        let sga = client.sgaalloc(1400);
        let qt = client.push(cqd, &sga).unwrap();
        client.wait(qt, None).unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let d = demi_memory::counters::snapshot().delta(&before);
    assert_eq!(d.copies, 0, "zero payload copies per message");
    assert_eq!(d.bytes_copied, 0);
    // Budget: payload + framing header + up to two ACK-ish control frames.
    assert!(
        d.allocs <= ROUNDS * 4,
        "allocation budget blown: {} allocs for {} messages",
        d.allocs,
        ROUNDS
    );
}

#[test]
fn popped_data_shares_storage_with_the_device_frame() {
    // Zero-copy receive: the application's Sga segments are views into
    // the device's mbuf, not copies.
    let (rt, _fabric, client, server) = catnip_pair(504);
    let (cqd, sqd, _) = udp_pair(&client, &server);
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"view"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let seg = &sga.segments()[0];
    assert!(seg.capacity() > seg.len(), "a view into the full frame");
    // And the libOS performed zero payload copies to deliver it.
    assert_eq!(rt.metrics().snapshot().copies, 0);
}

/// The stream decoder looks at a framing header without touching the
/// heap: neither a partial inspection (E3's "finds its read incomplete")
/// nor the extraction of a message that lies within one received chunk
/// allocates — the header is gathered onto the stack even where it
/// straddles chunks, and the message is a view of the chunk.
#[test]
fn framed_message_in_one_chunk_costs_the_decoder_zero_allocations() {
    let wire = DemiBuffer::from_slice(&encode_message(&[7u8; 100]));
    let mut decoder = FrameDecoder::new();
    let inspections = |decoder: &mut FrameDecoder, want_message: bool| {
        let meter = AllocMeter::arm();
        let message = decoder.next_message().unwrap();
        let allocs = meter.count();
        drop(meter);
        assert_eq!(message.is_some(), want_message);
        assert_eq!(allocs, 0, "the decoder allocated to inspect a header");
        message
    };
    // Header split across two chunks, body still missing: partial twice.
    decoder.push_chunk(wire.slice(0, 3));
    inspections(&mut decoder, false);
    decoder.push_chunk(wire.slice(3, 50));
    inspections(&mut decoder, false);
    decoder.push_chunk(wire.slice(50, wire.len()));
    // A second message, whole in one chunk: the zero-copy extraction.
    decoder.push_chunk(wire.clone());
    let spanning = decoder.next_message().unwrap().expect("complete");
    assert_eq!(spanning.as_slice(), &[7u8; 100]);
    let whole = inspections(&mut decoder, true).unwrap();
    assert!(whole.same_storage(&wire), "a view of the received chunk");
    assert_eq!(decoder.stats().partial_inspections, 2);
    assert_eq!(decoder.stats().zero_copy_extractions, 1);
}
