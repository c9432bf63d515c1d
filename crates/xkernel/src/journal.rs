//! A compact, versioned, serializable journal of every
//! nondeterminism-relevant decision a simulation makes.
//!
//! The simulator is deterministic given a seed, but three kinds of decisions
//! shape a run's schedule and are worth persisting so a run can be replayed,
//! audited, or bisected long after the process that produced it is gone:
//!
//! * **Event-heap tie picks** — while the journal records, every same-time
//!   tie is a forced choice: a [`crate::sim::ScheduleChooser`] picks if one
//!   is installed, the first tied event otherwise. The journal records each
//!   pick so [`Journal::chooser`] can replay the exact interleaving without
//!   the original chooser.
//! * **Fault draws** — the realized outcome of every injected network fault
//!   (drop, duplicate, corrupt, delay), recorded by simnet as packets meet
//!   the fault schedule. This is the timeline the chaos bisect driver walks.
//! * **Boots** — crash and restart events actually applied to a host.
//!
//! The byte format is hand-rolled (the workspace carries no serde):
//! a 4-byte magic, a little-endian `u16` version, the run's seed, the final
//! [`crate::sim::RunReport::sched_hash`] fingerprint, then a record count and
//! fixed-width records. Decoding is total: truncated or corrupt input yields
//! a clean [`JournalError`], never a panic. The `sched_hash` carried in the
//! header is the cross-check — replaying the journal's picks under the same
//! seed must reproduce it exactly.

use std::collections::VecDeque;
use std::fmt;

use crate::sim::ScheduleChooser;

/// Leading magic of an encoded journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"XKJL";

/// Current encoding version.
pub const JOURNAL_VERSION: u16 = 1;

/// Fault-kind tag: the packet was dropped.
pub const FAULT_DROP: u8 = 1;
/// Fault-kind tag: the packet was duplicated.
pub const FAULT_DUPLICATE: u8 = 2;
/// Fault-kind tag: the packet was corrupted (aux = byte offset).
pub const FAULT_CORRUPT: u8 = 3;
/// Fault-kind tag: the packet was delayed (aux = extra nanoseconds).
pub const FAULT_DELAY: u8 = 4;

/// One journaled decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A schedule chooser picked `pick` out of `n` same-time tied events.
    TiePick {
        /// Number of tied live events offered.
        n: u32,
        /// The (clamped) index chosen.
        pick: u32,
    },
    /// An injected fault was realized on a LAN.
    Fault {
        /// The LAN the packet was transmitted on.
        lan: u32,
        /// The LAN-local packet index (transmission order).
        index: u64,
        /// One of the `FAULT_*` tags.
        kind: u8,
        /// Kind-specific detail (corrupt offset, delay nanoseconds).
        aux: u64,
    },
    /// A host crash (`kind == 0`) or restart (`kind == 1`) was applied.
    Boot {
        /// The host that went down or came back.
        host: u32,
        /// 0 = crash, 1 = restart.
        kind: u8,
        /// Virtual time of the event.
        t: u64,
    },
}

const TAG_TIE: u8 = 1;
const TAG_FAULT: u8 = 2;
const TAG_BOOT: u8 = 3;

/// A decoded (or freshly recorded) journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journal {
    /// Encoding version (always [`JOURNAL_VERSION`] for journals this
    /// build produced).
    pub version: u16,
    /// The seed the recorded run used.
    pub seed: u64,
    /// The run's final schedule fingerprint — the replay cross-check.
    pub sched_hash: u64,
    /// The decisions, in the order they were made.
    pub records: Vec<JournalRecord>,
}

/// Why a journal failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The input ended before the declared content did.
    Truncated,
    /// The input does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The input's version is not one this build understands.
    BadVersion(u16),
    /// A record carried an unknown tag.
    BadTag(u8),
    /// Bytes remained after the declared records.
    TrailingBytes(usize),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Truncated => write!(f, "journal truncated"),
            JournalError::BadMagic => write!(f, "not a journal (bad magic)"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::BadTag(t) => write!(f, "unknown journal record tag {t}"),
            JournalError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the declared records")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Little-endian cursor over an input slice; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.at.checked_add(n).ok_or(JournalError::Truncated)?;
        if end > self.buf.len() {
            return Err(JournalError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, JournalError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

impl Journal {
    /// Serializes the journal to its versioned byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 8 + 8 + 4 + self.records.len() * 21);
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.sched_hash.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            match *r {
                JournalRecord::TiePick { n, pick } => {
                    out.push(TAG_TIE);
                    out.extend_from_slice(&n.to_le_bytes());
                    out.extend_from_slice(&pick.to_le_bytes());
                }
                JournalRecord::Fault {
                    lan,
                    index,
                    kind,
                    aux,
                } => {
                    out.push(TAG_FAULT);
                    out.extend_from_slice(&lan.to_le_bytes());
                    out.extend_from_slice(&index.to_le_bytes());
                    out.push(kind);
                    out.extend_from_slice(&aux.to_le_bytes());
                }
                JournalRecord::Boot { host, kind, t } => {
                    out.push(TAG_BOOT);
                    out.extend_from_slice(&host.to_le_bytes());
                    out.push(kind);
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a journal from bytes. Total: every malformation maps to a
    /// [`JournalError`].
    pub fn decode(bytes: &[u8]) -> Result<Journal, JournalError> {
        let mut r = Reader { buf: bytes, at: 0 };
        if r.take(4)? != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        }
        let version = r.u16()?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::BadVersion(version));
        }
        let seed = r.u64()?;
        let sched_hash = r.u64()?;
        let count = r.u32()? as usize;
        let mut records = Vec::new();
        for _ in 0..count {
            let rec = match r.u8()? {
                TAG_TIE => JournalRecord::TiePick {
                    n: r.u32()?,
                    pick: r.u32()?,
                },
                TAG_FAULT => JournalRecord::Fault {
                    lan: r.u32()?,
                    index: r.u64()?,
                    kind: r.u8()?,
                    aux: r.u64()?,
                },
                TAG_BOOT => JournalRecord::Boot {
                    host: r.u32()?,
                    kind: r.u8()?,
                    t: r.u64()?,
                },
                t => return Err(JournalError::BadTag(t)),
            };
            records.push(rec);
        }
        if r.at != bytes.len() {
            return Err(JournalError::TrailingBytes(bytes.len() - r.at));
        }
        Ok(Journal {
            version,
            seed,
            sched_hash,
            records,
        })
    }

    /// The tie picks, in decision order.
    pub fn tie_picks(&self) -> Vec<u32> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::TiePick { pick, .. } => Some(*pick),
                _ => None,
            })
            .collect()
    }

    /// The realized fault records, in transmission order.
    pub fn faults(&self) -> Vec<JournalRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Fault { .. }))
            .copied()
            .collect()
    }

    /// A [`ScheduleChooser`] that replays this journal's tie picks in
    /// order. A recording run files a pick for every tie, chooser or not (0,
    /// the plain insertion-order tie-break, without one), so a replay that
    /// journals too re-records the same stream: replaying a chooser-free
    /// journal changes no schedule, and replaying an explored schedule
    /// reproduces it. Once the picks are exhausted it picks index 0.
    pub fn chooser(&self) -> JournalChooser {
        JournalChooser::new(self.tie_picks())
    }

    /// Whether `hash` matches the journal's recorded fingerprint — the
    /// replay cross-check against [`crate::sim::RunReport::sched_hash`].
    pub fn matches(&self, hash: u64) -> bool {
        self.sched_hash == hash
    }
}

/// Replays a journal's tie picks; see [`Journal::chooser`].
pub struct JournalChooser {
    picks: VecDeque<u32>,
}

impl JournalChooser {
    /// A chooser making `picks` at the first ties, in order, and index 0
    /// at every tie after them.
    pub fn new(picks: Vec<u32>) -> JournalChooser {
        JournalChooser {
            picks: picks.into(),
        }
    }
}

impl ScheduleChooser for JournalChooser {
    fn choose(&mut self, _n: usize) -> usize {
        self.picks.pop_front().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        Journal {
            version: JOURNAL_VERSION,
            seed: 0x5eed,
            sched_hash: 0xdead_beef_cafe_f00d,
            records: vec![
                JournalRecord::TiePick { n: 3, pick: 2 },
                JournalRecord::Fault {
                    lan: 0,
                    index: 17,
                    kind: FAULT_DROP,
                    aux: 0,
                },
                JournalRecord::Boot {
                    host: 1,
                    kind: 0,
                    t: 42_000,
                },
                JournalRecord::Boot {
                    host: 1,
                    kind: 1,
                    t: 99_000,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let j = sample();
        let bytes = j.encode();
        assert_eq!(Journal::decode(&bytes).unwrap(), j);
    }

    #[test]
    fn truncation_is_clean() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Journal::decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err, JournalError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_and_tag() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Journal::decode(&bytes).unwrap_err(), JournalError::BadMagic);

        let mut bytes = sample().encode();
        bytes[4] = 0x7f;
        assert!(matches!(
            Journal::decode(&bytes).unwrap_err(),
            JournalError::BadVersion(_)
        ));

        let mut bytes = sample().encode();
        bytes[26] = 0xee; // first record's tag
        assert_eq!(
            Journal::decode(&bytes).unwrap_err(),
            JournalError::BadTag(0xee)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            Journal::decode(&bytes).unwrap_err(),
            JournalError::TrailingBytes(1)
        );
    }

    #[test]
    fn chooser_replays_then_defaults_to_zero() {
        let j = sample();
        let mut c = j.chooser();
        assert_eq!(c.choose(3), 2);
        assert_eq!(c.choose(2), 0);
        assert_eq!(c.choose(5), 0);
    }
}
