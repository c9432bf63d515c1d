//! The machine-readable exploration summary (`xcheck-v1`).
//!
//! Every xcheck run — exhaustive or random-walk — ends by emitting one
//! JSON object describing what was covered, so CI and downstream tools
//! can gate on it without parsing human-oriented output. The schema is
//! deliberately flat: one object on one line, written through
//! [`xkernel::json::JsonWriter`].

use xkernel::json::JsonWriter;

/// The `schema` tag stamped on every summary object.
pub const SCHEMA: &str = "xcheck-v1";

/// One exploration's coverage and verdict, serializable as `xcheck-v1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Scenario name (`handshake`, `deadlock`, `crosshost`, or a chaos
    /// stack label).
    pub scenario: String,
    /// `exhaustive` or `walk`.
    pub mode: String,
    /// Schedules visited.
    pub schedules: usize,
    /// `true` when the schedule space was fully enumerated.
    pub complete: bool,
    /// Distinct `sched_hash` fingerprints among visited schedules.
    pub distinct_hashes: usize,
    /// Checker violations summed over all schedules.
    pub violations: usize,
    /// Chaos invariant failures summed over all schedules.
    pub invariant_failures: usize,
}

impl Summary {
    /// Renders the summary as one `xcheck-v1` JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.object(|w| {
            w.key("schema").string(SCHEMA);
            w.key("scenario").string(&self.scenario);
            w.key("mode").string(&self.mode);
            w.key("schedules").u64(self.schedules as u64);
            w.key("complete").bool(self.complete);
            w.key("distinct_hashes").u64(self.distinct_hashes as u64);
            w.key("violations").u64(self.violations as u64);
            w.key("invariant_failures")
                .u64(self.invariant_failures as u64);
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summary {
        Summary {
            scenario: "handshake".into(),
            mode: "exhaustive".into(),
            schedules: 6,
            complete: true,
            distinct_hashes: 6,
            violations: 0,
            invariant_failures: 0,
        }
    }

    #[test]
    fn a_summary_is_one_flat_object_in_the_pinned_bytes() {
        assert_eq!(
            sample().to_json(),
            "{\"schema\":\"xcheck-v1\",\"scenario\":\"handshake\",\"mode\":\"exhaustive\",\
             \"schedules\":6,\"complete\":true,\"distinct_hashes\":6,\"violations\":0,\
             \"invariant_failures\":0}"
        );
    }

    #[test]
    fn a_scenario_name_is_escaped() {
        let mut s = sample();
        s.scenario = "m_rpc \"vip\"".into();
        assert!(
            s.to_json().contains(r#""scenario":"m_rpc \"vip\"","#),
            "{}",
            s.to_json()
        );
    }
}
