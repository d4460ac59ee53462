//! Replica groups: an explicit membership set with derived quorum sizes.
//!
//! A [`Group`] is the unit a BRB or consensus instance runs over. In a
//! single-shard deployment it is all replicas; in a sharded deployment each
//! shard is one group whose members carry *global* replica ids (paper §V:
//! the `N/3` Byzantine bound applies per shard).

use crate::config::{ConfigError, ShardSpec, SystemConfig};
use crate::ids::ReplicaId;

/// An ordered set of replicas forming one fault-tolerance domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Sorted member ids.
    members: Vec<ReplicaId>,
}

impl Group {
    /// Builds a group from its members (deduplicated, sorted).
    ///
    /// # Errors
    ///
    /// Fails if fewer than 4 distinct members are given.
    pub fn new(members: impl IntoIterator<Item = ReplicaId>) -> Result<Self, ConfigError> {
        let mut members: Vec<ReplicaId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        if members.len() < 4 {
            return Err(ConfigError::TooFewReplicas);
        }
        Ok(Group { members })
    }

    /// The group `{r0, …, r(n-1)}` — convenient for single-shard setups.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`.
    pub fn of_size(n: usize) -> Result<Self, ConfigError> {
        Self::new((0..n as u32).map(ReplicaId))
    }

    /// The group formed by a shard.
    ///
    /// # Errors
    ///
    /// Fails if the shard has fewer than 4 replicas.
    pub fn from_spec(spec: &ShardSpec) -> Result<Self, ConfigError> {
        Self::new(spec.replicas.iter().copied())
    }

    /// Number of members `N`.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Size parameters (`f`, quorum, …).
    pub fn config(&self) -> SystemConfig {
        SystemConfig::new(self.members.len()).expect("validated at construction")
    }

    /// Fault budget `f = ⌊(N−1)/3⌋`.
    pub fn f(&self) -> usize {
        self.config().f()
    }

    /// Byzantine quorum size (`2f+1` when `N = 3f+1`).
    pub fn quorum(&self) -> usize {
        self.config().quorum()
    }

    /// The `f+1` threshold.
    pub fn small_quorum(&self) -> usize {
        self.config().small_quorum()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: ReplicaId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// The sorted member list.
    pub fn members(&self) -> &[ReplicaId] {
        &self.members
    }

    /// Iterates over members.
    pub fn iter(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.members.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_size_contains_expected_members() {
        let g = Group::of_size(4).unwrap();
        assert_eq!(g.n(), 4);
        assert!(g.contains(ReplicaId(0)));
        assert!(g.contains(ReplicaId(3)));
        assert!(!g.contains(ReplicaId(4)));
    }

    #[test]
    fn global_ids_work() {
        let g = Group::new((52..104).map(ReplicaId)).unwrap();
        assert_eq!(g.n(), 52);
        assert_eq!(g.f(), 17);
        assert_eq!(g.quorum(), 35);
        assert!(g.contains(ReplicaId(52)));
        assert!(!g.contains(ReplicaId(0)));
    }

    #[test]
    fn dedup_and_reject_small() {
        assert!(Group::new([ReplicaId(0), ReplicaId(0), ReplicaId(1), ReplicaId(2)]).is_err());
        let g = Group::new([3, 1, 2, 0, 3].map(ReplicaId)).unwrap();
        assert_eq!(g.members(), &[ReplicaId(0), ReplicaId(1), ReplicaId(2), ReplicaId(3)]);
    }

    #[test]
    fn from_shard_spec() {
        let layout = crate::config::ShardLayout::uniform(2, 5).unwrap();
        let g = Group::from_spec(&layout.shards()[1]).unwrap();
        assert!(g.contains(ReplicaId(5)));
        assert!(!g.contains(ReplicaId(4)));
    }
}
