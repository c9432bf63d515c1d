//! The workspace's one PRNG step. Everything seeded here — the simulator's
//! own stream, the chaos harness's fault and payload derivation, xcheck's
//! random walks, xload's arrival processes — draws from a splitmix64 stream,
//! each with its own state word, so a seed denotes the same run everywhere.

/// What one step adds to the state word. The state is a counter, so the
/// number of steps between two words can be read back
/// ([`draws_between`]).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// `GAMMA`'s inverse modulo 2^64 (it is odd, so it has one).
const GAMMA_INV: u64 = 0xf1de_83e1_9937_733d;

/// The splitmix64 step: advances `state` and returns the next value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many [`splitmix64`] steps take the state word `from` to `to`.
pub fn draws_between(from: u64, to: u64) -> u64 {
    to.wrapping_sub(from).wrapping_mul(GAMMA_INV)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_state_word_counts_its_draws() {
        let start = 0xdead_beef_u64 | 1;
        let mut s = start;
        for k in 0..100 {
            assert_eq!(draws_between(start, s), k);
            splitmix64(&mut s);
        }
    }
}
