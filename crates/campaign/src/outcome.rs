//! Outcome classification for one injected crash state.

use crate::json::Json;

/// What happened to one crash state after recovery was attempted.
///
/// The classification question order matters and mirrors how a real
/// campaign triages: did the mechanism's own detector fire, is the final
/// answer right, and how much work was re-executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Recovery produced the reference result with zero re-executed work
    /// units (the crash landed on a fully persisted boundary).
    RecoveredExact,
    /// Recovery produced the reference result by re-executing lost work.
    RecoveredRecomputed,
    /// The mechanism's integrity check (invariant scan, checksum verify,
    /// count-total audit, missing checkpoint) flagged dirty NVM state.
    /// Recovery then repaired by recomputation where possible.
    DetectedDirty,
    /// The run crash point landed beyond the execution: nothing to
    /// recover; the completed result was verified against the reference.
    CompletedClean,
    /// Worst case: recovery claimed success but the result is wrong and
    /// no detector fired. A campaign reporting any of these fails CI.
    SilentCorruption,
}

impl Outcome {
    /// Every outcome, in report-histogram order.
    pub const ALL: [Outcome; 5] = [
        Outcome::RecoveredExact,
        Outcome::RecoveredRecomputed,
        Outcome::DetectedDirty,
        Outcome::CompletedClean,
        Outcome::SilentCorruption,
    ];

    /// Stable identifier used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::RecoveredExact => "recovered_exact",
            Outcome::RecoveredRecomputed => "recovered_recomputed",
            Outcome::DetectedDirty => "detected_dirty",
            Outcome::CompletedClean => "completed_clean",
            Outcome::SilentCorruption => "silent_corruption",
        }
    }
}

/// Classify one recovered crash state.
///
/// * `detected_dirty` — the mechanism's own detector flagged inconsistent
///   persistent state (e.g. invariant scan fell through to scratch, LU
///   checksum verify found a stale block, MC count-total audit failed,
///   restore found no checkpoint).
/// * `matches_reference` — the final result equals the crash-free
///   reference within the scenario's tolerance.
/// * `lost_units` — work units re-executed by recovery.
///
/// The detector is asked first: a flagged wrong answer is `detected_dirty`.
/// Answer-first would turn no ds or dist state silent, but 32 of the kernel
/// smoke run's 500 (seed 42), all `mc-selective`: its audit-then-reseed
/// recovery is statistically equivalent to the reference, not bitwise.
/// Nor can the campaign change that verdict alone: the frozen benchmark's
/// `McSelectiveReplica` classifies through this function (`detected =
/// total != LOOKUPS`, `matches = counts == reference`), and its traced
/// pass fails a replica whose trials differ from `run_batch` in outcome,
/// lost units or sim time.
pub fn classify(detected_dirty: bool, matches_reference: bool, lost_units: u64) -> Outcome {
    if detected_dirty {
        Outcome::DetectedDirty
    } else if !matches_reference {
        Outcome::SilentCorruption
    } else if lost_units > 0 {
        Outcome::RecoveredRecomputed
    } else {
        Outcome::RecoveredExact
    }
}

/// Outcome histogram (one per scenario, plus the campaign total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Trials classified [`Outcome::RecoveredExact`].
    pub recovered_exact: u64,
    /// Trials classified [`Outcome::RecoveredRecomputed`].
    pub recovered_recomputed: u64,
    /// Trials classified [`Outcome::DetectedDirty`].
    pub detected_dirty: u64,
    /// Trials classified [`Outcome::CompletedClean`].
    pub completed_clean: u64,
    /// Trials classified [`Outcome::SilentCorruption`].
    pub silent_corruption: u64,
}

impl OutcomeCounts {
    /// Count one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        *self.slot_mut(outcome) += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        for o in Outcome::ALL {
            *self.slot_mut(o) += other.get(o);
        }
    }

    /// Count for one outcome.
    pub fn get(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::RecoveredExact => self.recovered_exact,
            Outcome::RecoveredRecomputed => self.recovered_recomputed,
            Outcome::DetectedDirty => self.detected_dirty,
            Outcome::CompletedClean => self.completed_clean,
            Outcome::SilentCorruption => self.silent_corruption,
        }
    }

    fn slot_mut(&mut self, outcome: Outcome) -> &mut u64 {
        match outcome {
            Outcome::RecoveredExact => &mut self.recovered_exact,
            Outcome::RecoveredRecomputed => &mut self.recovered_recomputed,
            Outcome::DetectedDirty => &mut self.detected_dirty,
            Outcome::CompletedClean => &mut self.completed_clean,
            Outcome::SilentCorruption => &mut self.silent_corruption,
        }
    }

    /// Trials counted across every outcome.
    pub fn total(&self) -> u64 {
        Outcome::ALL.iter().map(|&o| self.get(o)).sum()
    }

    /// Serialize as an insertion-ordered JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for o in Outcome::ALL {
            j.push(o.name(), Json::Int(self.get(o)));
        }
        j
    }

    /// Parse the object emitted by [`OutcomeCounts::to_json`].
    pub fn from_json(j: &Json) -> Result<OutcomeCounts, String> {
        let mut counts = OutcomeCounts::default();
        for o in Outcome::ALL {
            *counts.slot_mut(o) = j
                .get(o.name())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("outcome counts missing {}", o.name()))?;
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_priority() {
        // Detection wins even when the repaired result is correct.
        assert_eq!(classify(true, true, 5), Outcome::DetectedDirty);
        // A detected-but-wrong state is still "detected", not silent.
        assert_eq!(classify(true, false, 5), Outcome::DetectedDirty);
        assert_eq!(classify(false, false, 0), Outcome::SilentCorruption);
        assert_eq!(classify(false, true, 3), Outcome::RecoveredRecomputed);
        assert_eq!(classify(false, true, 0), Outcome::RecoveredExact);
    }

    #[test]
    fn counts_roundtrip_and_merge() {
        let mut a = OutcomeCounts::default();
        a.add(Outcome::RecoveredExact);
        a.add(Outcome::RecoveredRecomputed);
        a.add(Outcome::RecoveredRecomputed);
        let mut b = OutcomeCounts::default();
        b.add(Outcome::SilentCorruption);
        b.merge(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.recovered_recomputed, 2);
        let roundtrip = OutcomeCounts::from_json(&b.to_json()).unwrap();
        assert_eq!(roundtrip, b);
    }
}
