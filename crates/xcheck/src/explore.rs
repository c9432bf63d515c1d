//! The schedule-space drivers: exhaustive DFS over forced-choice
//! decisions, and seeded random walks for spaces too large to enumerate.
//!
//! A [`xkernel::sim::ScheduleChooser`] turns every same-time event tie
//! into a decision point. [`ReplayChooser`] replays a fixed decision
//! prefix and then takes branch 0, recording the branch factor it saw at
//! every point; [`explore`] drives it depth-first — after each run it
//! rewinds to the deepest decision with an untaken branch and re-runs
//! with that branch forced. Because the simulator is deterministic given
//! its seed and the chooser's decisions, replaying a prefix reproduces
//! the exact run that recorded it, which is also how xcheck repro strings
//! replay: same seed, same decisions, same `sched_hash`.

use std::rc::Rc;

use xkernel::cell::OwnerCell;
use xkernel::rng::splitmix64;
use xkernel::sim::ScheduleChooser;

/// What one run's chooser saw and did: the branch taken and the branch
/// factor (number of tied events) at each forced-choice point, in order.
#[derive(Default, Clone, Debug)]
pub struct Recording {
    /// Branch taken at each decision point.
    pub choices: Vec<usize>,
    /// Number of alternatives at each decision point.
    pub branches: Vec<usize>,
}

/// A chooser that replays `prefix` and then always takes branch 0,
/// recording every decision into a shared [`Recording`].
pub struct ReplayChooser {
    prefix: Vec<usize>,
    depth: usize,
    rec: Rc<OwnerCell<Recording>>,
}

impl ReplayChooser {
    /// A chooser replaying `prefix`, recording into `rec`.
    pub fn new(prefix: Vec<usize>, rec: Rc<OwnerCell<Recording>>) -> ReplayChooser {
        ReplayChooser {
            prefix,
            depth: 0,
            rec,
        }
    }
}

impl ScheduleChooser for ReplayChooser {
    fn choose(&mut self, n: usize) -> usize {
        let pick = self.prefix.get(self.depth).copied().unwrap_or(0).min(n - 1);
        self.depth += 1;
        let mut r = self.rec.lock();
        r.choices.push(pick);
        r.branches.push(n);
        pick
    }
}

/// The result of [`explore`]: one outcome per schedule visited, and
/// whether the walk covered the whole space.
pub struct Exploration<T> {
    /// One entry per schedule, in DFS order (branch 0 first).
    pub outcomes: Vec<T>,
    /// `true` when every schedule was visited; `false` when `limit`
    /// truncated the search.
    pub complete: bool,
}

impl<T> Exploration<T> {
    /// Number of schedules visited.
    pub fn schedules(&self) -> usize {
        self.outcomes.len()
    }
}

/// Exhaustively enumerates schedules depth-first, calling `run` once per
/// schedule with a fresh [`ReplayChooser`] (the caller installs it on a
/// fresh simulator and runs the scenario to completion). Stops after
/// `limit` schedules, marking the exploration incomplete if decisions
/// remain.
pub fn explore<T>(limit: usize, mut run: impl FnMut(Box<ReplayChooser>) -> T) -> Exploration<T> {
    let mut prefix: Vec<usize> = Vec::new();
    let mut outcomes = Vec::new();
    loop {
        let rec = Rc::new(OwnerCell::new(Recording::default()));
        let chooser = Box::new(ReplayChooser::new(prefix.clone(), Rc::clone(&rec)));
        outcomes.push(run(chooser));
        let r = rec.lock();
        // Deepest decision with an untaken branch; bump it and rerun.
        let next = (0..r.choices.len())
            .rev()
            .find(|&i| r.choices[i] + 1 < r.branches[i]);
        match next {
            None => {
                return Exploration {
                    outcomes,
                    complete: true,
                }
            }
            Some(i) => {
                prefix = r.choices[..=i].to_vec();
                prefix[i] += 1;
            }
        }
        drop(r);
        if outcomes.len() >= limit {
            return Exploration {
                outcomes,
                complete: false,
            };
        }
    }
}

/// A chooser making seeded pseudo-random decisions (splitmix64): one
/// random walk through the schedule space, for scenarios too large to
/// enumerate. The same seed walks the same schedule.
pub struct WalkChooser {
    state: u64,
}

impl WalkChooser {
    /// A walk chooser seeded with `seed`.
    pub fn new(seed: u64) -> WalkChooser {
        WalkChooser { state: seed | 1 }
    }
}

impl ScheduleChooser for WalkChooser {
    fn choose(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.state) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic decision tree: each "run" makes `depth` binary choices
    /// and returns them; exploration must visit all 2^depth leaves, each
    /// exactly once.
    #[test]
    fn dfs_visits_every_leaf_once() {
        let depth = 4;
        let ex = explore(1 << 12, |mut ch| {
            let mut leaf = Vec::new();
            for _ in 0..depth {
                leaf.push(ch.choose(2));
            }
            leaf
        });
        assert!(ex.complete);
        assert_eq!(ex.schedules(), 1 << depth);
        let mut seen = std::collections::HashSet::new();
        for leaf in &ex.outcomes {
            assert!(seen.insert(leaf.clone()), "leaf visited twice: {leaf:?}");
        }
    }

    #[test]
    fn limit_truncates_and_reports_incomplete() {
        let ex = explore(3, |mut ch| (0..5).map(|_| ch.choose(2)).collect::<Vec<_>>());
        assert!(!ex.complete);
        assert_eq!(ex.schedules(), 3);
    }

    #[test]
    fn mixed_branch_factors_enumerate_the_product() {
        // 3 * 2 * 2 = 12 leaves, like a 3-process spawn tie followed by
        // two binary ties.
        let ex = explore(1 << 12, |mut ch| (ch.choose(3), ch.choose(2), ch.choose(2)));
        assert!(ex.complete);
        assert_eq!(ex.schedules(), 12);
    }

    #[test]
    fn walks_are_seed_deterministic() {
        let walk = |seed: u64| {
            let mut ch = WalkChooser::new(seed);
            (0..32).map(|i| ch.choose(2 + (i % 3))).collect::<Vec<_>>()
        };
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8));
    }
}
