//! Differential property test of the calendar-queue schedulers.
//!
//! Drives [`EventQueue`] (the calendar queue of both engines) against
//! [`BinaryHeapQueue`] (the reference) with the same randomly generated
//! operation sequences and asserts they agree on every observable: pop
//! order (time, sequence number *and* payload), `peek_time`, `peek`,
//! deadline-bounded pops ([`EventQueue::pop_at_or_before`]) and `len` after
//! every step.
//!
//! The time distribution is deliberately adversarial for the calendar
//! layout: dense ties on one instant, sub-bucket jitter, spreads across
//! several epochs, and far-future outliers that must take the overflow-heap
//! path and come back through an epoch rollover. Because pops interleave
//! with pushes, "push earlier than the current cursor bucket" (the
//! cursor-rewind and past-heap paths) occurs naturally as well.

use heap_simnet::event::{BinaryHeapQueue, EventQueue};
use heap_simnet::time::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draws a scheduling instant from the adversarial mix described in the
/// module docs.
fn arbitrary_micros(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0u32..10) {
        // Dense ties: a single instant, repeatedly.
        0 | 1 => 777_777,
        // Sub-bucket jitter around one bucket.
        2 | 3 => 500_000 + rng.gen_range(0u64..1_024),
        // Within a couple of epochs (the wheel horizon is ~0.5 s).
        4..=7 => rng.gen_range(0u64..1_500_000),
        // Far future: hours away, overflow-heap territory.
        8 => rng.gen_range(0u64..4_000_000_000),
        // Very far future, near-degenerate spread.
        _ => 3_600_000_000 + rng.gen_range(0u64..3),
    }
}

/// One differential run: `ops` random operations derived from `seed`.
fn drive(seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut reference: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut payload = 0u64;
    for step in 0..ops {
        // Pop with ~40% probability so the queues repeatedly drain and the
        // calendars exercise epoch rollovers and cursor rewinds; half of
        // those pops are deadline-bounded.
        let r = rng.gen_range(0u32..10);
        if r < 2 {
            let a = calendar.pop();
            let b = reference.pop();
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "calendar diverged at step {step}"
                    );
                }
                (None, None) => {}
                other => panic!("one queue empty, the other not, at step {step}: {other:?}"),
            }
        } else if r < 4 {
            // Deadline-bounded pop: sometimes before the front, sometimes
            // at it, sometimes far beyond it.
            let deadline =
                SimTime::from_micros(match (rng.gen_range(0u32..3), reference.peek_time()) {
                    (0, Some(t)) => t.as_micros(),
                    (1, Some(t)) => t.as_micros().saturating_sub(1),
                    _ => arbitrary_micros(&mut rng),
                });
            // Reference semantics: pop iff the front fires by the deadline.
            let expected = if reference.peek_time().is_some_and(|t| t <= deadline) {
                reference.pop()
            } else {
                None
            };
            let got = calendar.pop_at_or_before(deadline);
            match (&got, &expected) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "bounded pop diverged at step {step}"
                    );
                }
                (None, None) => {}
                other => panic!("bounded pops disagree at step {step}: {other:?}"),
            }
        } else {
            let micros = arbitrary_micros(&mut rng);
            calendar.push(SimTime::from_micros(micros), payload);
            reference.push(SimTime::from_micros(micros), payload);
            payload += 1;
        }
        assert_eq!(
            calendar.len(),
            reference.len(),
            "len diverged at step {step}"
        );
        assert_eq!(
            calendar.peek_time(),
            reference.peek_time(),
            "peek diverged at step {step}"
        );
        // peek() must surface the exact event pop would yield next.
        match (calendar.peek(), reference.peek()) {
            (Some(x), Some(y)) => {
                assert_eq!(
                    (x.time, x.seq, x.payload),
                    (y.time, y.seq, y.payload),
                    "peek event diverged at step {step}"
                );
            }
            (None, None) => {}
            other => panic!("peek disagrees at step {step}: {other:?}"),
        }
        assert_eq!(calendar.is_empty(), reference.is_empty());
    }
    // Drain completely: the tail order must match too.
    loop {
        match (calendar.pop(), reference.pop()) {
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
            }
            (None, None) => break,
            other => panic!("queues diverged while draining: {other:?}"),
        }
    }
}

/// One batched-drain differential run: the batch pipeline (PR 8) against a
/// single-pop oracle on the same random workload.
///
/// Mirrors `run_flat_batched` exactly: drain whole buckets
/// ([`EventQueue::drain_bucket`]), fall back to single pops where the queue
/// stands down (deadline straddlers, past-guard events), consume batches
/// from the tail, and merge intruding pushes against the next batch entry by
/// global `(time, seq)` order. Mid-batch pushes — the "callback" pushes of a
/// real run — are biased toward the drain guard so the intrusion machinery
/// fires constantly.
fn drive_batched(seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batched: EventQueue<u64> = EventQueue::new();
    let mut single: EventQueue<u64> = EventQueue::new();
    let mut batch = Vec::new();
    let mut payload = 0u64;
    for step in 0..ops {
        if rng.gen_range(0u32..10) < 6 {
            let micros = arbitrary_micros(&mut rng);
            batched.push(SimTime::from_micros(micros), payload);
            single.push(SimTime::from_micros(micros), payload);
            payload += 1;
            continue;
        }
        // Consume a whole deadline region through the batch pipeline.
        let deadline = match rng.gen_range(0u32..3) {
            0 => None,
            _ => Some(SimTime::from_micros(arbitrary_micros(&mut rng))),
        };
        loop {
            if batched.drain_bucket(deadline, &mut batch) {
                while let Some(next) = batch.last().map(|ev| (ev.time, ev.seq)) {
                    if batched.drain_intruded() {
                        let front_first =
                            matches!(batched.peek(), Some(f) if (f.time, f.seq) < next);
                        if front_first {
                            let got = batched.pop().expect("front was peeked");
                            let want = single.pop().expect("oracle has the intruder");
                            assert_eq!(
                                (got.time, got.seq, got.payload),
                                (want.time, want.seq, want.payload),
                                "merged intruder diverged at step {step}"
                            );
                            continue;
                        }
                    }
                    let got = batch.pop().expect("last() was Some");
                    let want = single.pop().expect("oracle keeps pace with the batch");
                    assert_eq!(
                        (got.time, got.seq, got.payload),
                        (want.time, want.seq, want.payload),
                        "batch entry diverged at step {step}"
                    );
                    // Mid-batch "callback" pushes, biased to land at or just
                    // after the consumed event — i.e. at or before the drain
                    // guard — so the intrusion path fires constantly.
                    if rng.gen_range(0u32..4) == 0 {
                        let micros = match rng.gen_range(0u32..3) {
                            0 => got.time.as_micros() + rng.gen_range(0u64..3),
                            1 => got.time.as_micros() + rng.gen_range(0u64..2_048),
                            _ => arbitrary_micros(&mut rng).max(got.time.as_micros()),
                        };
                        batched.push(SimTime::from_micros(micros), payload);
                        single.push(SimTime::from_micros(micros), payload);
                        payload += 1;
                    }
                }
                batched.finish_drain();
                continue;
            }
            // Straddling bucket, past-guard events or an exhausted region:
            // one single-pop step, exactly like the run loop's fallback.
            let got = match deadline {
                Some(d) => batched.pop_at_or_before(d),
                None => batched.pop(),
            };
            let want = match deadline {
                Some(d) => single.pop_at_or_before(d),
                None => single.pop(),
            };
            match (&got, &want) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "fallback pop diverged at step {step}"
                    );
                }
                (None, None) => break,
                other => panic!("region exhaustion diverged at step {step}: {other:?}"),
            }
        }
        assert_eq!(batched.len(), single.len(), "len diverged at step {step}");
        assert_eq!(
            batched.peek_time(),
            single.peek_time(),
            "peek diverged at step {step}"
        );
    }
    // Drain the remainder through plain pops: the batch path must leave the
    // queue in a state indistinguishable from the oracle's.
    loop {
        match (batched.pop(), single.pop()) {
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
            }
            (None, None) => break,
            other => panic!("queues diverged while draining: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The calendar queue pops the exact sequence the reference heap pops,
    /// under plain and deadline-bounded pops.
    #[test]
    fn calendar_queue_matches_binary_heap_reference(seed in 0u64..1_000_000) {
        drive(seed, 3_000);
    }

    /// The bucket-at-a-time drain path yields the exact single-pop sequence
    /// on random workloads, including mid-batch intrusions and deadline
    /// straddlers.
    #[test]
    fn batched_drain_matches_single_pop_oracle(seed in 0u64..1_000_000) {
        drive_batched(seed, 3_000);
    }
}

/// A long single run for deeper epoch churn than the proptest cases afford.
#[test]
fn calendar_queue_matches_reference_on_a_long_run() {
    drive(0xC0FF_EE42, 60_000);
}

/// A long batched-drain run for deeper epoch churn and guard traffic.
#[test]
fn batched_drain_matches_single_pop_on_a_long_run() {
    drive_batched(0xBA7C_4ED0, 60_000);
}
