//! The schedule-space drivers: exhaustive DFS over forced-choice
//! decisions, and seeded random walks for spaces too large to enumerate.
//!
//! A [`xkernel::sim::ScheduleChooser`] turns every same-time event tie
//! into a decision point, and a run that journals records each one as a
//! `TiePick { n, pick }` ([`xkernel::journal`]). [`explore`] runs every
//! schedule under a [`JournalChooser`] that replays the schedule's decision
//! prefix and then takes branch 0, and reads the branch factors back from
//! the run's journal — after each run it rewinds to the deepest decision
//! with an untaken branch and re-runs with that branch forced. Because the
//! simulator is deterministic given its seed and the chooser's decisions,
//! replaying a prefix reproduces the exact run that recorded it, which is
//! also how xcheck repro strings and journals replay: same seed, same
//! decisions, same `sched_hash`.

use xkernel::journal::{Journal, JournalChooser, JournalRecord};
use xkernel::rng::splitmix64;
use xkernel::sim::ScheduleChooser;

/// What one run of [`explore`] returns: its result, carrying the journal
/// the run recorded.
pub trait Journaled {
    /// The run's journal, whose tie picks say which branches remain.
    fn journal(&self) -> &Journal;
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
/// schedule with a [`JournalChooser`] for it (the caller installs it on a
/// fresh simulator, journals, and runs the scenario to completion). Stops
/// after `limit` schedules, marking the exploration incomplete if decisions
/// remain.
pub fn explore<T: Journaled>(
    limit: usize,
    mut run: impl FnMut(Box<JournalChooser>) -> T,
) -> Exploration<T> {
    let mut prefix = Vec::new();
    let mut outcomes = Vec::new();
    let complete = loop {
        let outcome = run(Box::new(JournalChooser::new(prefix)));
        let ties: Vec<(u32, u32)> = outcome
            .journal()
            .records
            .iter()
            .filter_map(|r| match *r {
                JournalRecord::TiePick { n, pick } => Some((n, pick)),
                _ => None,
            })
            .collect();
        outcomes.push(outcome);
        // Deepest decision with an untaken branch; bump it and rerun.
        let Some(i) = ties.iter().rposition(|&(n, pick)| pick + 1 < n) else {
            break true;
        };
        if outcomes.len() >= limit {
            break false;
        }
        prefix = ties[..=i].iter().map(|&(_, pick)| pick).collect();
        prefix[i] += 1;
    };
    Exploration { outcomes, complete }
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
    use xkernel::journal::JOURNAL_VERSION;

    /// A synthetic run: the picks it made and the journal that records them.
    struct Leaf(Vec<usize>, Journal);

    impl Journaled for Leaf {
        fn journal(&self) -> &Journal {
            &self.1
        }
    }

    /// Makes one decision at each of `branches`' ties under `ch`,
    /// journaling each as a run would.
    fn leaf(ch: &mut JournalChooser, branches: &[usize]) -> Leaf {
        let picks: Vec<usize> = branches.iter().map(|&n| ch.choose(n).min(n - 1)).collect();
        let records = branches
            .iter()
            .zip(&picks)
            .map(|(&n, &pick)| JournalRecord::TiePick {
                n: n as u32,
                pick: pick as u32,
            })
            .collect();
        let journal = Journal {
            version: JOURNAL_VERSION,
            seed: 0,
            sched_hash: 0,
            records,
        };
        Leaf(picks, journal)
    }

    /// A synthetic decision tree: each "run" makes `depth` binary choices
    /// and returns them; exploration must visit all 2^depth leaves, each
    /// exactly once.
    #[test]
    fn dfs_visits_every_leaf_once() {
        let depth = 4;
        let ex = explore(1 << 12, |mut ch| leaf(&mut ch, &[2; 4]));
        assert!(ex.complete);
        assert_eq!(ex.schedules(), 1 << depth);
        let mut seen = std::collections::HashSet::new();
        for Leaf(picks, _) in &ex.outcomes {
            assert!(seen.insert(picks.clone()), "leaf visited twice: {picks:?}");
        }
    }

    #[test]
    fn limit_truncates_and_reports_incomplete() {
        let ex = explore(3, |mut ch| leaf(&mut ch, &[2; 5]));
        assert!(!ex.complete);
        assert_eq!(ex.schedules(), 3);
    }

    #[test]
    fn mixed_branch_factors_enumerate_the_product() {
        // 3 * 2 * 2 = 12 leaves, like a 3-process spawn tie followed by
        // two binary ties.
        let ex = explore(1 << 12, |mut ch| leaf(&mut ch, &[3, 2, 2]));
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
