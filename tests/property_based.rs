//! Property-based tests over the system's core invariants.

use demi_memory::DemiBuffer;
use demikernel::libos::LibOs;
use demikernel::testing::catmem_world;
use demikernel::types::Sga;
use dpdk_sim::wire::framing::encode_message;
use net_stack::checksum::{finish, internet_checksum, sum_words};
use net_stack::framing::FrameDecoder;
use proptest::prelude::*;

proptest! {
    /// Framing invariant: any sequence of messages, chopped into arbitrary
    /// chunks, reassembles into exactly the original messages in order.
    #[test]
    fn framing_round_trips_arbitrary_fragmentation(
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2000), 1..20),
        chunk_sizes in prop::collection::vec(1usize..500, 1..50),
    ) {
        let mut wire = Vec::new();
        for m in &messages {
            wire.extend_from_slice(&encode_message(m));
        }
        let mut decoder = FrameDecoder::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut chunk_idx = 0;
        while pos < wire.len() {
            let take = chunk_sizes[chunk_idx % chunk_sizes.len()].min(wire.len() - pos);
            chunk_idx += 1;
            decoder.push_chunk(DemiBuffer::from_slice(&wire[pos..pos + take]));
            pos += take;
            while let Some(msg) = decoder.next_message().expect("stream is well-formed") {
                out.push(msg.to_vec());
            }
        }
        prop_assert_eq!(out, messages);
    }

    /// Internet checksum invariants: verification detects single-bit
    /// corruption, and incremental accumulation equals one-shot.
    #[test]
    fn checksum_detects_single_bit_flips(
        mut data in prop::collection::vec(any::<u8>(), 2..256),
        flip_bit in 0usize..2048,
    ) {
        // Append the checksum; full verify must fold to zero.
        let ck = internet_checksum(&data);
        if !data.len().is_multiple_of(2) {
            data.push(0); // Checksum placement needs word alignment.
        }
        data.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
        // Flip one bit anywhere: the fold must become nonzero.
        let bit = flip_bit % (data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(internet_checksum(&data), 0);
    }

    #[test]
    fn checksum_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = (split % (data.len() + 1)) / 2 * 2; // Even split point.
        let whole = internet_checksum(&data);
        let acc = sum_words(&data[..split], 0);
        let acc = sum_words(&data[split..], acc);
        prop_assert_eq!(finish(acc), whole);
    }

    /// DemiBuffer view algebra: any chain of slice/advance/truncate views
    /// equals the same operations on a plain byte vector.
    #[test]
    fn buffer_views_match_vec_semantics(
        data in prop::collection::vec(any::<u8>(), 1..256),
        ops in prop::collection::vec((0usize..256, 0usize..256), 0..8),
    ) {
        let mut buf = DemiBuffer::from_slice(&data);
        let mut model = data.clone();
        for (a, b) in ops {
            if model.is_empty() {
                break;
            }
            match a % 3 {
                0 => {
                    // slice(start, end)
                    let start = a % model.len();
                    let end = start + (b % (model.len() - start + 1));
                    buf = buf.slice(start, end);
                    model = model[start..end].to_vec();
                }
                1 => {
                    let n = b % (model.len() + 1);
                    buf.advance(n);
                    model.drain(..n);
                }
                _ => {
                    let n = b % (model.len() + 1);
                    buf.truncate(n);
                    model.truncate(n);
                }
            }
        }
        prop_assert_eq!(buf.as_slice(), &model[..]);
    }

    /// Sga invariant: total length equals the sum of segment lengths, and
    /// flattening preserves byte order across arbitrary segmentations.
    #[test]
    fn sga_flatten_preserves_content(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 0..10),
    ) {
        let mut sga = Sga::new();
        let mut expected = Vec::new();
        for s in &segs {
            sga.push_seg(DemiBuffer::from_slice(s));
            expected.extend_from_slice(s);
        }
        prop_assert_eq!(sga.len(), expected.len());
        prop_assert_eq!(sga.to_vec(), expected);
    }

    /// Queue invariant: catmem delivers any workload FIFO, each element
    /// atomic and intact.
    #[test]
    fn catmem_is_fifo_for_arbitrary_workloads(
        elements in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 1..40),
    ) {
        let (_rt, libos) = catmem_world();
        let qd = libos.queue().unwrap();
        for e in &elements {
            libos.blocking_push(qd, &Sga::from_slice(e)).unwrap();
        }
        for e in &elements {
            let (_, sga) = libos.blocking_pop(qd).unwrap().expect_pop();
            prop_assert_eq!(&sga.to_vec(), e);
        }
    }

    /// Wrapping sequence arithmetic is a total order on any window of
    /// width < 2³¹.
    #[test]
    fn seqnum_ordering_is_window_consistent(base in any::<u32>(), a in 0u32..1_000_000, b in 0u32..1_000_000) {
        use net_stack::tcp::SeqNum;
        let x = SeqNum(base.wrapping_add(a));
        let y = SeqNum(base.wrapping_add(b));
        prop_assert_eq!(x.lt(y), a < b);
        prop_assert_eq!(x.le(y), a <= b);
        if a >= b {
            prop_assert_eq!(x.since(y), a - b);
        }
    }
}
