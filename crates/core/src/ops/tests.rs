//! Queue-transformation semantics tests (over catmem queues).

use super::*;
use crate::libos::catmem::Catmem;

fn setup() -> Demikernel {
    let rt = Runtime::new();
    Demikernel::new(Rc::new(Catmem::new(&rt)))
}

fn push_bytes(dk: &Demikernel, qd: QDesc, bytes: &[u8]) {
    dk.blocking_push(qd, &Sga::from_slice(bytes)).unwrap();
}

fn pop_bytes(dk: &Demikernel, qd: QDesc) -> Vec<u8> {
    let (_, sga) = dk.blocking_pop(qd).unwrap().expect_pop();
    sga.to_vec()
}

#[test]
fn merge_pops_from_either_input() {
    let dk = setup();
    let a = dk.queue().unwrap();
    let b = dk.queue().unwrap();
    let merged = dk.merge(a, b).unwrap();
    push_bytes(&dk, a, b"from-a");
    push_bytes(&dk, b, b"from-b");
    let mut got = vec![pop_bytes(&dk, merged), pop_bytes(&dk, merged)];
    got.sort();
    assert_eq!(got, vec![b"from-a".to_vec(), b"from-b".to_vec()]);
}

#[test]
fn merge_push_goes_to_both_inputs() {
    let dk = setup();
    let a = dk.queue().unwrap();
    let b = dk.queue().unwrap();
    let merged = dk.merge(a, b).unwrap();
    push_bytes(&dk, merged, b"fanout");
    // Both base queues see the element. Note the merge forwarders also
    // consume from a and b, so race-free verification pops via merged:
    // two copies total flowed in (one per input).
    assert_eq!(pop_bytes(&dk, merged), b"fanout");
    assert_eq!(pop_bytes(&dk, merged), b"fanout");
}

#[test]
fn filter_passes_matching_and_drops_rest() {
    let dk = setup();
    let q = dk.queue().unwrap();
    let evens = dk
        .filter(q, Rc::new(|sga: &Sga| sga.to_vec()[0].is_multiple_of(2)))
        .unwrap();
    for i in 0..6u8 {
        push_bytes(&dk, q, &[i]);
    }
    assert_eq!(pop_bytes(&dk, evens), vec![0]);
    assert_eq!(pop_bytes(&dk, evens), vec![2]);
    assert_eq!(pop_bytes(&dk, evens), vec![4]);
    let stats = dk.ops_stats();
    // Elements 1 and 3 were evaluated and dropped on the way to popping
    // 2 and 4; element 5 still sits unevaluated in the base queue.
    assert_eq!(stats.filtered_out, 2);
    assert_eq!(stats.cpu_filters, 1);
    assert_eq!(stats.offloaded_filters, 0, "catmem has no device");
}

#[test]
fn filter_push_direction_respects_predicate() {
    let dk = setup();
    let q = dk.queue().unwrap();
    let gate = dk.filter(q, Rc::new(|sga: &Sga| sga.len() <= 4)).unwrap();
    dk.blocking_push(gate, &Sga::from_slice(b"ok")).unwrap();
    dk.blocking_push(gate, &Sga::from_slice(b"too long"))
        .unwrap();
    // Only the short element reached the base queue.
    assert_eq!(pop_bytes(&dk, q), b"ok");
    assert_eq!(dk.ops_stats().filtered_out, 1);
}

#[test]
fn sort_returns_highest_priority_first() {
    let dk = setup();
    let q = dk.queue().unwrap();
    // Priority: numerically larger first byte wins.
    let sorted = dk
        .sort(q, Rc::new(|a: &Sga, b: &Sga| a.to_vec()[0] > b.to_vec()[0]))
        .unwrap();
    for v in [3u8, 9, 1, 7] {
        push_bytes(&dk, q, &[v]);
    }
    // Run the forwarder to quiescence so all four elements reach the
    // priority buffer before popping.
    dk.runtime().settle(sim_fabric::SimTime::ZERO);
    let qt = dk.pop(sorted).unwrap();
    let (_, first) = dk.wait(qt, None).unwrap().expect_pop();
    // At minimum the popped element beats everything still buffered; with
    // all four buffered it is 9.
    assert_eq!(first.to_vec(), vec![9]);
    assert_eq!(pop_bytes(&dk, sorted), vec![7]);
    assert_eq!(pop_bytes(&dk, sorted), vec![3]);
    assert_eq!(pop_bytes(&dk, sorted), vec![1]);
}

#[test]
fn map_transforms_both_directions() {
    let dk = setup();
    let q = dk.queue().unwrap();
    let upper = dk
        .map(
            q,
            Rc::new(|sga: Sga| {
                let upped: Vec<u8> = sga
                    .to_vec()
                    .iter()
                    .map(|b| b.to_ascii_uppercase())
                    .collect();
                Sga::from_slice(&upped)
            }),
        )
        .unwrap();
    // Push through the mapped queue: transformed before reaching base.
    push_bytes(&dk, upper, b"abc");
    assert_eq!(pop_bytes(&dk, q), b"ABC");
    // Pop through the mapped queue: transformed on the way out.
    push_bytes(&dk, q, b"def");
    assert_eq!(pop_bytes(&dk, upper), b"DEF");
    assert_eq!(dk.ops_stats().map_applications, 2);
}

#[test]
fn qconnect_builds_a_pipeline() {
    let dk = setup();
    let src = dk.queue().unwrap();
    let dst = dk.queue().unwrap();
    dk.qconnect(src, dst).unwrap();
    for i in 0..5u8 {
        push_bytes(&dk, src, &[i]);
    }
    for i in 0..5u8 {
        assert_eq!(pop_bytes(&dk, dst), vec![i]);
    }
    assert!(dk.ops_stats().forwarded >= 5);
}

#[test]
fn transforms_compose() {
    let dk = setup();
    let q = dk.queue().unwrap();
    // Filter (keep < 10) over map (double) over the base queue.
    let doubled = dk
        .map(
            q,
            Rc::new(|sga: Sga| Sga::from_slice(&[sga.to_vec()[0] * 2])),
        )
        .unwrap();
    let small = dk
        .filter(doubled, Rc::new(|sga: &Sga| sga.to_vec()[0] < 10))
        .unwrap();
    for v in [1u8, 4, 7, 2] {
        push_bytes(&dk, q, &[v]);
    }
    // Doubled: 2, 8, 14, 4 → filter keeps 2, 8, 4.
    assert_eq!(pop_bytes(&dk, small), vec![2]);
    assert_eq!(pop_bytes(&dk, small), vec![8]);
    assert_eq!(pop_bytes(&dk, small), vec![4]);
}

#[test]
fn virtual_descriptors_are_closeable_and_validated() {
    let dk = setup();
    let q = dk.queue().unwrap();
    let f = dk.filter(q, Rc::new(|_: &Sga| true)).unwrap();
    assert!(f.0 >= VIRTUAL_QD_BASE);
    dk.close(f).unwrap();
    assert_eq!(dk.close(f), Err(DemiError::BadQDesc));
    assert_eq!(dk.merge(f, q), Err(DemiError::BadQDesc));
}

#[test]
fn facade_delegates_plain_queues_untouched() {
    let dk = setup();
    let q = dk.queue().unwrap();
    push_bytes(&dk, q, b"plain");
    assert_eq!(pop_bytes(&dk, q), b"plain");
    assert_eq!(dk.kind(), LibOsKind::Catmem);
    assert!(dk.device_caps().is_none());
}
