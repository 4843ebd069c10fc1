//! MPI groups: ordered sets of world ranks.
//!
//! Groups are the value-level identity of a communicator. MANA-2.0's
//! active-communicator restart (paper §III-C) relies on exactly this:
//! *"a knowledge of the underlying MPI group and its members suffices to
//! recreate a semantically identical communicator"*, and the globally-unique
//! communicator ID of §III-K is a hash of the group's world-rank image
//! (what `MPI_Group_translate_ranks` produces).

use crate::error::{MpiError, Result};
use std::sync::Arc;

/// An ordered list of distinct world ranks, cheaply clonable.
///
/// Local rank *i* within the group corresponds to world rank `ranks[i]` —
/// the translation `MPI_Group_translate_ranks` performs against the world
/// group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Group {
    ranks: Arc<Vec<usize>>,
}

/// Result of `MPI_Group_compare` / `MPI_Comm_compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRelation {
    /// Same members in the same order.
    Ident,
    /// Same members, different order.
    Similar,
    /// Different membership.
    Unequal,
}

impl Group {
    /// Build a group from explicit world ranks. Ranks must be distinct.
    pub fn new(ranks: Vec<usize>) -> Result<Self> {
        let mut seen = std::collections::HashSet::with_capacity(ranks.len());
        for &r in &ranks {
            if !seen.insert(r) {
                return Err(MpiError::InvalidRank {
                    rank: r,
                    size: ranks.len(),
                });
            }
        }
        Ok(Group {
            ranks: Arc::new(ranks),
        })
    }

    /// The world group `0..n`.
    pub fn world(n: usize) -> Self {
        Group {
            ranks: Arc::new((0..n).collect()),
        }
    }

    /// Number of members (`MPI_Group_size`).
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// True if the group has no members (`MPI_GROUP_EMPTY`).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// World rank of local rank `local` (`MPI_Group_translate_ranks` to the
    /// world group for a single rank).
    pub fn world_rank(&self, local: usize) -> Result<usize> {
        self.ranks.get(local).copied().ok_or(MpiError::InvalidRank {
            rank: local,
            size: self.size(),
        })
    }

    /// Local rank of `world` within this group, if a member
    /// (`MPI_Group_rank` generalized to any world rank).
    pub fn local_rank(&self, world: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world)
    }

    /// True if `world` is a member.
    pub fn contains(&self, world: usize) -> bool {
        self.local_rank(world).is_some()
    }

    /// The full local→world translation (`MPI_Group_translate_ranks` of
    /// `0..size` against the world group). This is the image MANA-2.0 hashes
    /// to produce the globally-unique communicator ID (paper §III-K).
    pub fn translate_all(&self) -> &[usize] {
        &self.ranks
    }

    /// `MPI_Group_translate_ranks`: map each local rank in `locals` of this
    /// group to the corresponding local rank in `other`, or `None` when the
    /// member is absent from `other` (`MPI_UNDEFINED`).
    pub fn translate_ranks(&self, locals: &[usize], other: &Group) -> Result<Vec<Option<usize>>> {
        let mut out = Vec::with_capacity(locals.len());
        for &l in locals {
            let w = self.world_rank(l)?;
            out.push(other.local_rank(w));
        }
        Ok(out)
    }

    /// `MPI_Group_incl`: subgroup of the listed local ranks, in list order.
    pub fn incl(&self, locals: &[usize]) -> Result<Group> {
        let mut ranks = Vec::with_capacity(locals.len());
        for &l in locals {
            ranks.push(self.world_rank(l)?);
        }
        Group::new(ranks)
    }

    /// `MPI_Group_excl`: subgroup of everyone except the listed local ranks,
    /// preserving order.
    pub fn excl(&self, locals: &[usize]) -> Result<Group> {
        let mut drop = vec![false; self.size()];
        for &l in locals {
            if l >= self.size() {
                return Err(MpiError::InvalidRank {
                    rank: l,
                    size: self.size(),
                });
            }
            drop[l] = true;
        }
        Ok(Group {
            ranks: Arc::new(
                self.ranks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !drop[*i])
                    .map(|(_, &r)| r)
                    .collect(),
            ),
        })
    }

    /// `MPI_Group_union`: members of `self` in order, then members of
    /// `other` not already present, in `other`'s order.
    pub fn union(&self, other: &Group) -> Group {
        let mut ranks: Vec<usize> = self.ranks.as_ref().clone();
        for &r in other.ranks.iter() {
            if !self.contains(r) {
                ranks.push(r);
            }
        }
        Group {
            ranks: Arc::new(ranks),
        }
    }

    /// `MPI_Group_intersection`: members of `self` (in `self`'s order) that
    /// are also in `other`.
    pub fn intersection(&self, other: &Group) -> Group {
        Group {
            ranks: Arc::new(
                self.ranks
                    .iter()
                    .copied()
                    .filter(|&r| other.contains(r))
                    .collect(),
            ),
        }
    }

    /// `MPI_Group_difference`: members of `self` not in `other`.
    pub fn difference(&self, other: &Group) -> Group {
        Group {
            ranks: Arc::new(
                self.ranks
                    .iter()
                    .copied()
                    .filter(|&r| !other.contains(r))
                    .collect(),
            ),
        }
    }

    /// `MPI_Group_compare`.
    pub fn compare(&self, other: &Group) -> GroupRelation {
        if self.ranks == other.ranks {
            GroupRelation::Ident
        } else if self.size() == other.size() && self.ranks.iter().all(|&r| other.contains(r)) {
            GroupRelation::Similar
        } else {
            GroupRelation::Unequal
        }
    }

    /// Order-sensitive 64-bit fingerprint of the membership (FNV-1a over the
    /// world-rank image). Used for communicator-creation rendezvous keys and
    /// as the basis of MANA's globally-unique communicator IDs (§III-K): the
    /// image is computed from purely local information, no peer
    /// communication required.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_usizes(&self.ranks)
    }
}

/// FNV-1a over a sequence of usizes; stable across platforms (values are
/// hashed as u64 little-endian).
pub fn fnv1a_usizes(vals: &[usize]) -> u64 {
    let mut h = crate::Fnv1a::default();
    for &v in vals {
        h.write(&(v as u64).to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_identity() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        assert_eq!(g.world_rank(2).unwrap(), 2);
        assert_eq!(g.local_rank(3), Some(3));
        assert!(g.contains(0));
        assert!(!g.contains(4));
    }

    #[test]
    fn rejects_duplicates() {
        assert!(Group::new(vec![0, 1, 1]).is_err());
    }

    #[test]
    fn incl_excl() {
        let g = Group::world(6);
        let sub = g.incl(&[4, 0, 2]).unwrap();
        assert_eq!(sub.translate_all(), &[4, 0, 2]);
        assert_eq!(sub.local_rank(4), Some(0));
        let ex = g.excl(&[0, 5]).unwrap();
        assert_eq!(ex.translate_all(), &[1, 2, 3, 4]);
        assert!(g.incl(&[7]).is_err());
        assert!(g.excl(&[9]).is_err());
    }

    #[test]
    fn set_operations() {
        let a = Group::new(vec![0, 2, 4]).unwrap();
        let b = Group::new(vec![4, 1, 0]).unwrap();
        assert_eq!(a.union(&b).translate_all(), &[0, 2, 4, 1]);
        assert_eq!(a.intersection(&b).translate_all(), &[0, 4]);
        assert_eq!(a.difference(&b).translate_all(), &[2]);
    }

    #[test]
    fn compare_relations() {
        let a = Group::new(vec![0, 1, 2]).unwrap();
        let b = Group::new(vec![2, 1, 0]).unwrap();
        let c = Group::new(vec![0, 1, 3]).unwrap();
        assert_eq!(a.compare(&a.clone()), GroupRelation::Ident);
        assert_eq!(a.compare(&b), GroupRelation::Similar);
        assert_eq!(a.compare(&c), GroupRelation::Unequal);
    }

    #[test]
    fn translate_ranks_between_groups() {
        let a = Group::new(vec![3, 5, 7]).unwrap();
        let b = Group::new(vec![7, 3]).unwrap();
        let t = a.translate_ranks(&[0, 1, 2], &b).unwrap();
        assert_eq!(t, vec![Some(1), None, Some(0)]);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = Group::new(vec![0, 1]).unwrap();
        let b = Group::new(vec![1, 0]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Group::new(vec![0, 1]).unwrap().fingerprint()
        );
    }

    #[test]
    fn empty_group() {
        let g = Group::new(vec![]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.size(), 0);
    }
}
