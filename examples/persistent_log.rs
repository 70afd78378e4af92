//! Durable queues: the catfs storage libOS (paper §5.3).
//!
//! Files become queues too: `creat`/`open` return queue descriptors, push
//! appends a durable record (one device command — the log layout is its
//! own allocation map), and pop tails the log. The example also
//! demonstrates crash recovery: a second catfs instance rebuilds the log
//! by scanning the device and verifying every record's checksum.
//!
//! Run with: `cargo run --example persistent_log`

use demikernel::libos::catfs::Catfs;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::types::Sga;
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};

fn main() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());

    // Phase 1: write a ledger.
    {
        let fs = Catfs::new(&rt, device.clone());
        let ledger = fs.create("ledger").expect("create");
        println!("appending 50 transactions...");
        let t0 = rt.now();
        for i in 0..50u32 {
            let record = format!("txn-{i}:amount={}", i * 10);
            fs.blocking_push(ledger, &Sga::from_slice(record.as_bytes()))
                .expect("append");
        }
        let elapsed = rt.now().saturating_since(t0);
        let stats = fs.stats();
        let dev = fs.device_stats();
        println!(
            "50 appends in {elapsed} — {} block writes total ({:.2} blocks/append; \
             an ext4-like layout pays ~3×)",
            stats.block_writes,
            dev.blocks_written as f64 / 50.0
        );

        // Tail the log back.
        let reader = fs.open("ledger").expect("open");
        let (_, first) = fs.blocking_pop(reader).expect("pop").expect_pop();
        assert_eq!(first.to_vec(), b"txn-0:amount=0");
        println!(
            "first record read back: {:?}",
            String::from_utf8_lossy(&first.to_vec())
        );
    } // The catfs instance "crashes" here.

    // Phase 2: recovery on a fresh instance over the same device.
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let recovered = fs2.recover("ledger").expect("recover");
    println!("recovered the ledger from the device; replaying...");
    let mut count = 0u32;
    loop {
        // Records are checksummed; recovery replay validates each one.
        let result = fs2.blocking_pop(recovered);
        match result {
            Ok(r) => {
                let (_, sga) = r.expect_pop();
                let text = String::from_utf8_lossy(&sga.to_vec()).into_owned();
                assert!(
                    text.starts_with(&format!("txn-{count}:")),
                    "order preserved"
                );
                count += 1;
                if count == 50 {
                    break;
                }
            }
            Err(e) => panic!("replay failed: {e}"),
        }
    }
    println!("replayed all {count} transactions after the \"crash\" — log layout is durable");
}
