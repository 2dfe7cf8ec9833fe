//! Deterministic partitioning of the user population across mechanism
//! stages. Disjointness is what makes parallel composition (and thus the
//! full-ε-per-user guarantee) go through.

use crate::config::PopulationSplit;
use crate::error::{Error, Result};
use crate::rng::{user_rng, Stage};
use rand::RngExt;

/// The four disjoint user groups of PrivShape (global user indices).
#[derive(Debug, Clone)]
pub struct Groups {
    /// Length estimation.
    pub pa: Vec<usize>,
    /// Sub-shape estimation.
    pub pb: Vec<usize>,
    /// Trie expansion.
    pub pc: Vec<usize>,
    /// Two-level refinement.
    pub pd: Vec<usize>,
    /// Users left out of every group. Non-zero whenever the configured
    /// fractions sum to less than 1 (plus rounding slack); surfaced in
    /// [`crate::Diagnostics::unassigned_users`] so silently idle users are
    /// visible instead of discarded.
    pub unassigned: usize,
}

impl Groups {
    /// Total number of users assigned to some group.
    pub fn assigned(&self) -> usize {
        self.pa.len() + self.pb.len() + self.pc.len() + self.pd.len()
    }
}

/// The user ids `0..n` in the order of a Fisher–Yates shuffle seeded by
/// `(seed, stream)`. A population too large to index is a typed error,
/// never an allocation panic.
pub(crate) fn shuffled_users(n: usize, seed: u64, stream: usize) -> Result<Vec<usize>> {
    let mut order = Vec::new();
    order
        .try_reserve_exact(n)
        .map_err(|_| Error::Protocol(format!("no memory to index a population of {n} users")))?;
    order.extend(0..n);
    let mut rng = user_rng(seed, Stage::Server, stream);
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    Ok(order)
}

/// Splits `n` users into the four groups with a seeded Fisher–Yates
/// shuffle. Group sizes are `round(n·fraction)`, adjusted so they never
/// exceed `n` in total; any rounding slack goes to the largest group (Pc).
///
/// # Errors
///
/// [`Error::Protocol`] when the `n` user ids cannot be allocated.
pub fn split_population(n: usize, split: &PopulationSplit, seed: u64) -> Result<Groups> {
    let order = shuffled_users(n, seed, 0)?;

    let na = ((n as f64) * split.pa).round() as usize;
    let nb = ((n as f64) * split.pb).round() as usize;
    let nd = ((n as f64) * split.pd).round() as usize;
    // Everything else (including rounding slack within the configured
    // total) goes to trie expansion.
    let used = (na + nb + nd).min(n);
    let total_frac = (split.pa + split.pb + split.pc + split.pd).min(1.0);
    let n_total = ((n as f64) * total_frac).round() as usize;
    let nc = n_total.saturating_sub(used);

    let mut cursor = order.into_iter();
    let pa: Vec<usize> = cursor.by_ref().take(na).collect();
    let pb: Vec<usize> = cursor.by_ref().take(nb).collect();
    let pc: Vec<usize> = cursor.by_ref().take(nc).collect();
    let pd: Vec<usize> = cursor.by_ref().take(nd).collect();
    let groups = Groups {
        unassigned: n - (pa.len() + pb.len() + pc.len() + pd.len()),
        pa,
        pb,
        pc,
        pd,
    };
    debug_assert!(
        groups_disjoint_within(&groups, n),
        "groups overlap or exceed n={n}"
    );
    Ok(groups)
}

/// Debug-only invariant: every assigned index is unique and `< n`.
fn groups_disjoint_within(groups: &Groups, n: usize) -> bool {
    let mut seen = vec![false; n];
    for &u in groups
        .pa
        .iter()
        .chain(&groups.pb)
        .chain(&groups.pc)
        .chain(&groups.pd)
    {
        if u >= n || seen[u] {
            return false;
        }
        seen[u] = true;
    }
    groups.assigned() + groups.unassigned == n
}

/// Splits a group into `rounds` near-equal chunks (one per trie level); the
/// paper's `|P|/ℓ_S` users per level. Earlier chunks get the remainder.
pub fn split_rounds(group: &[usize], rounds: usize) -> Vec<Vec<usize>> {
    assert!(rounds >= 1, "need at least one round");
    let base = group.len() / rounds;
    let extra = group.len() % rounds;
    let mut out = Vec::with_capacity(rounds);
    let mut at = 0;
    for r in 0..rounds {
        let take = base + usize::from(r < extra);
        out.push(group[at..at + take].to_vec());
        at += take;
    }
    out
}

/// The chunk a member of a `len`-sized group falls into when the group is
/// split into `chunks` rounds by [`split_rounds`], given the member's rank
/// (position) inside the group. This is the client-side inverse of
/// [`split_rounds`]: a [`crate::UserClient`] uses it to recognize which
/// expansion round is addressed to it without seeing the group roster.
pub fn chunk_of_rank(rank: usize, len: usize, chunks: usize) -> usize {
    assert!(chunks >= 1, "need at least one chunk");
    assert!(rank < len, "rank {rank} outside group of {len}");
    let base = len / chunks;
    let extra = len % chunks;
    // The first `extra` chunks have `base + 1` members.
    let fat = extra * (base + 1);
    if rank < fat {
        rank / (base + 1)
    } else {
        extra + (rank - fat) / base
    }
}

/// Size of chunk `index` when `len` users are split into `chunks` rounds —
/// the server-side counterpart of [`chunk_of_rank`], kept next to it (and
/// to [`split_rounds`]) because round addressing depends on all three
/// agreeing on the same "earlier chunks take the remainder" rule.
pub(crate) fn chunk_len(len: usize, chunks: usize, index: usize) -> usize {
    let base = len / chunks;
    let extra = len % chunks;
    base + usize::from(index < extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_disjoint_and_sized() {
        let split = PopulationSplit::default();
        let g = split_population(10_000, &split, 7).unwrap();
        assert_eq!(g.pa.len(), 200);
        assert_eq!(g.pb.len(), 800);
        assert_eq!(g.pd.len(), 2000);
        assert_eq!(g.pc.len(), 7000);
        assert_eq!(g.unassigned, 0);
        let mut all: Vec<usize> =
            g.pa.iter()
                .chain(&g.pb)
                .chain(&g.pc)
                .chain(&g.pd)
                .copied()
                .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10_000);
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let split = PopulationSplit::default();
        let a = split_population(1000, &split, 1).unwrap();
        let b = split_population(1000, &split, 1).unwrap();
        assert_eq!(a.pa, b.pa);
        assert_eq!(a.pc, b.pc);
        let c = split_population(1000, &split, 2).unwrap();
        assert_ne!(a.pa, c.pa);
    }

    #[test]
    fn partial_usage_surfaces_unassigned_users() {
        let split = PopulationSplit {
            pa: 0.1,
            pb: 0.1,
            pc: 0.1,
            pd: 0.1,
        };
        let g = split_population(100, &split, 0).unwrap();
        assert_eq!(g.assigned(), 40);
        assert_eq!(g.unassigned, 60);
    }

    #[test]
    fn tiny_populations_do_not_panic() {
        let split = PopulationSplit::default();
        let g = split_population(3, &split, 0).unwrap();
        assert!(g.assigned() <= 3);
        assert_eq!(g.assigned() + g.unassigned, 3);
        let g = split_population(0, &split, 0).unwrap();
        assert!(g.pa.is_empty() && g.pc.is_empty());
        assert_eq!(g.unassigned, 0);
    }

    #[test]
    fn rounds_cover_group_in_order() {
        let group: Vec<usize> = (100..110).collect();
        let rounds = split_rounds(&group, 3);
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(rounds[1].len(), 3);
        assert_eq!(rounds[2].len(), 3);
        let flat: Vec<usize> = rounds.concat();
        assert_eq!(flat, group);
    }

    #[test]
    fn rounds_with_more_rounds_than_users() {
        let rounds = split_rounds(&[1, 2], 5);
        assert_eq!(rounds.iter().filter(|r| !r.is_empty()).count(), 2);
        assert_eq!(rounds.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn chunk_len_matches_split_rounds() {
        for len in [0usize, 1, 5, 10, 23] {
            for chunks in [1usize, 2, 3, 7] {
                let group: Vec<usize> = (0..len).collect();
                let rounds = split_rounds(&group, chunks);
                for (i, members) in rounds.iter().enumerate() {
                    assert_eq!(chunk_len(len, chunks, i), members.len());
                }
            }
        }
    }

    #[test]
    fn chunk_of_rank_inverts_split_rounds() {
        for len in [0usize, 1, 2, 7, 10, 23] {
            for chunks in [1usize, 2, 3, 5, 11] {
                let group: Vec<usize> = (0..len).collect();
                let rounds = split_rounds(&group, chunks);
                for (chunk, members) in rounds.iter().enumerate() {
                    for &rank in members {
                        assert_eq!(
                            chunk_of_rank(rank, len, chunks),
                            chunk,
                            "rank {rank} len {len} chunks {chunks}"
                        );
                    }
                }
            }
        }
    }
}
