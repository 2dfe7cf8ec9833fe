//! Typed retry/backoff policy for supervised session recovery.

use std::time::Duration;

/// How a [`crate::Supervisor`] prices failure: how often it retries, how
/// long it waits between attempts, and how much lifetime failure one
/// session may consume before it is quarantined.
///
/// Two budgets on purpose. `max_attempts` bounds one *incident* (a failed
/// round and its recovery retries); `failure_budget` bounds the session's
/// *lifetime* (a session that crashes every round — flapping — burns one
/// budget unit per incident even when each individual recovery succeeds,
/// and is eventually quarantined so it stops consuming service capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Recovery attempts per failed round before the session is
    /// quarantined. Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Lifetime recovery attempts a session may consume across all of its
    /// incidents before quarantine.
    pub failure_budget: u32,
    /// Frames journaled per round for re-drive. A round that outgrows its
    /// journal cannot be replayed and quarantines on failure instead of
    /// recovering — bounded memory beats unbounded liability.
    pub journal_capacity: usize,
}

impl Default for RetryPolicy {
    /// Three attempts per incident, 5 ms → 200 ms exponential backoff,
    /// a lifetime budget of 8 attempts, and a 4096-frame journal.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            failure_budget: 8,
            journal_capacity: 4096,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (1-based): exponential
    /// (`base · 2^(attempt-1)`, capped at `max_backoff`), then scaled by a
    /// **deterministic** jitter in `[0.5, 1.0)` derived from
    /// `(jitter_seed, attempt)` by FNV-1a. Jitter decorrelates the retry
    /// herds of sessions that fail together; deriving it from the session
    /// RNG seed instead of a clock keeps every chaos run replayable.
    pub(crate) fn backoff(&self, attempt: u32, jitter_seed: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        // FNV-1a over the seed and attempt bytes → fraction in [0, 1).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in jitter_seed
            .to_le_bytes()
            .into_iter()
            .chain(attempt.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(0.5 + unit / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        // Deterministic: same (seed, attempt) → same wait.
        assert_eq!(policy.backoff(1, 42), policy.backoff(1, 42));
        // Jittered: different seeds decorrelate.
        assert_ne!(policy.backoff(1, 42), policy.backoff(1, 43));
        // Exponential growth within the jitter envelope [0.5x, 1.0x).
        for attempt in 1..=6u32 {
            let d = policy.backoff(attempt, 7);
            let raw = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1))
                .min(Duration::from_millis(80));
            assert!(
                d >= raw / 2 && d < raw,
                "attempt {attempt}: {d:?} vs {raw:?}"
            );
        }
        // The cap holds no matter the attempt number.
        assert!(policy.backoff(30, 7) < Duration::from_millis(80));
    }
}
