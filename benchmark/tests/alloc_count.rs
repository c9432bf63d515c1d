//! The counting allocator, alone in its own test process: the counters are
//! process-wide, so an exact count needs a process with nothing else
//! allocating beside the one test thread.

use std::hint::black_box;

use xkbench::alloc::{counting, AllocCount, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_pattern_exactly_and_nothing_when_disarmed() {
    let mut kept: Vec<Vec<u8>> = Vec::with_capacity(7);
    let (counted, boxed) = counting(|| {
        for i in 0..7usize {
            kept.push(black_box(vec![0u8; 100 + i]));
        }
        black_box(Box::new([0u8; 48]))
    });
    assert_eq!(
        counted,
        AllocCount {
            allocs: 8,
            bytes: (0..7).map(|i| 100 + i).sum::<u64>() + 48,
        },
        "seven vectors and one box, each one allocation of its size"
    );

    // Whatever is allocated between two counted stretches is in neither.
    for _ in 0..100 {
        black_box(vec![1u8; 256]);
    }
    let (counted, ()) = counting(|| ());
    assert_eq!(
        counted,
        AllocCount::default(),
        "disarmed, nothing is counted"
    );
    drop((kept, boxed));
}
