//! Input generators. Everything a workload feeds the program is derived
//! here from `--seed`; the program under test only ever sees the generated
//! values.

/// One step of the splitmix64 stream over `state`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The start state of the stream named by `(seed, a, b)`: distinct names
/// give unrelated streams, the same name always the same one.
fn stream(seed: u64, a: u64, b: u64) -> u64 {
    let mut s = seed;
    let mut mix = |v: u64| {
        s ^= v.wrapping_mul(0xd6e8_feb8_6659_fd93);
        splitmix64(&mut s)
    };
    mix(a);
    mix(b)
}

/// `n` exponentially distributed think times (virtual ns, mean `mean_ns`)
/// for one client in one round. A pure function of its arguments, so both
/// commits of a comparison and both sets of a repeat think identically.
pub fn think_times(seed: u64, client: u64, round: u64, n: usize, mean_ns: u64) -> Vec<u64> {
    let mut s = stream(seed, client, round);
    (0..n)
        .map(|_| {
            // Uniform in (0, 1]: never 0, so ln() is finite.
            let u = ((splitmix64(&mut s) >> 11) + 1) as f64 / (1u64 << 53) as f64;
            ((-u.ln() * mean_ns as f64) as u64).max(1)
        })
        .collect()
}

/// `len` payload bytes for the stream named by `(seed, tag)`.
pub fn payload(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut s = stream(seed, tag, 0x7061_796c);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_times_are_a_pure_function_of_seed_client_round() {
        let a = think_times(1, 3, 2, 1000, 40_000_000);
        assert_eq!(a, think_times(1, 3, 2, 1000, 40_000_000));
        assert_ne!(a, think_times(2, 3, 2, 1000, 40_000_000), "seed matters");
        assert_ne!(a, think_times(1, 4, 2, 1000, 40_000_000), "client matters");
        assert_ne!(a, think_times(1, 3, 3, 1000, 40_000_000), "round matters");
        // A prefix of a longer stream is the same stream.
        assert_eq!(a[..10], think_times(1, 3, 2, 10, 40_000_000)[..]);
    }

    #[test]
    fn think_times_have_the_requested_mean() {
        let xs = think_times(7, 0, 0, 20_000, 40_000_000);
        let mean = xs.iter().sum::<u64>() / xs.len() as u64;
        assert!(
            (38_000_000..42_000_000).contains(&mean),
            "mean of 20k draws was {mean}"
        );
        assert!(xs.iter().all(|&x| x >= 1));
    }

    #[test]
    fn payload_has_the_requested_length_and_depends_on_seed_and_tag() {
        assert_eq!(payload(1, 0, 0).len(), 0);
        assert_eq!(payload(1, 0, 13).len(), 13);
        assert_eq!(payload(1, 5, 64), payload(1, 5, 64));
        assert_ne!(payload(1, 5, 64), payload(2, 5, 64));
        assert_ne!(payload(1, 5, 64), payload(1, 6, 64));
    }
}
