//! The workspace's one PRNG step. Everything seeded here — the simulator's
//! own stream, the chaos harness's fault and payload derivation, xcheck's
//! random walks, xload's arrival processes — draws from a splitmix64 stream,
//! each with its own state word, so a seed denotes the same run everywhere.

/// The splitmix64 step: advances `state` and returns the next value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
