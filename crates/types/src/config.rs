//! System and shard configuration.
//!
//! Astro assumes `N = 3f + 1` replicas of which at most `f` are Byzantine
//! (paper §III); in a sharded deployment the assumption applies *per shard*
//! (§V). [`SystemConfig`] captures one replica group; [`ShardLayout`]
//! partitions replicas and clients across shards and fixes the
//! client → representative mapping, which the paper assumes to be public
//! knowledge.

use crate::ids::{ClientId, ReplicaId, ShardId};

/// Error constructing a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Fewer than 4 replicas cannot tolerate any Byzantine failure.
    TooFewReplicas,
    /// A shard layout needs at least one shard.
    NoShards,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::TooFewReplicas => {
                f.write_str("need at least 4 replicas (N = 3f+1, f >= 1)")
            }
            ConfigError::NoShards => f.write_str("need at least one shard"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The replica-group parameters of one (sub)system: `N`, the fault budget
/// `f`, and the derived quorum sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    n: usize,
}

impl SystemConfig {
    /// Creates a configuration for `n` replicas.
    ///
    /// # Errors
    ///
    /// Fails with [`ConfigError::TooFewReplicas`] if `n < 4`.
    pub fn new(n: usize) -> Result<Self, ConfigError> {
        if n < 4 {
            return Err(ConfigError::TooFewReplicas);
        }
        Ok(SystemConfig { n })
    }

    /// Total number of replicas `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum tolerated Byzantine replicas: `f = ⌊(N−1)/3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Byzantine quorum size `⌊(N+f)/2⌋ + 1`; equals `2f+1` when `N = 3f+1`.
    ///
    /// Any two quorums intersect in at least `f+1` replicas, hence in at
    /// least one correct replica.
    pub fn quorum(&self) -> usize {
        (self.n + self.f()) / 2 + 1
    }

    /// The "at least one correct replica" threshold `f + 1`, used for
    /// READY amplification (Astro I) and dependency certificates (Astro II).
    pub fn small_quorum(&self) -> usize {
        self.f() + 1
    }

    /// Iterates over all replica ids `r0..r(N-1)`.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n as u32).map(ReplicaId)
    }

    /// True if `id` belongs to this group.
    pub fn contains(&self, id: ReplicaId) -> bool {
        (id.0 as usize) < self.n
    }
}

/// One shard: its id, the replicas that form it, and their group config.
///
/// Replica ids are global; a shard owns a contiguous or arbitrary subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard identifier.
    pub id: ShardId,
    /// Global replica ids belonging to this shard.
    pub replicas: Vec<ReplicaId>,
}

impl ShardSpec {
    /// Group configuration for this shard.
    ///
    /// # Panics
    ///
    /// Panics if the shard has fewer than 4 replicas (enforced at layout
    /// construction).
    pub fn config(&self) -> SystemConfig {
        SystemConfig::new(self.replicas.len()).expect("shard size validated at construction")
    }
}

/// Partition of the system into shards, plus the deterministic
/// client → shard and client → representative mappings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    shards: Vec<ShardSpec>,
}

impl ShardLayout {
    /// A single-shard ("full replication") layout of `n` replicas — the
    /// model of paper §III.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`.
    pub fn single(n: usize) -> Result<Self, ConfigError> {
        Self::uniform(1, n)
    }

    /// `num_shards` shards of `replicas_per_shard` each, with globally
    /// consecutive replica ids — the model of paper §V / Table I.
    ///
    /// # Errors
    ///
    /// Fails if `num_shards == 0` or `replicas_per_shard < 4`.
    pub fn uniform(num_shards: usize, replicas_per_shard: usize) -> Result<Self, ConfigError> {
        if num_shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if replicas_per_shard < 4 {
            return Err(ConfigError::TooFewReplicas);
        }
        let shards = (0..num_shards)
            .map(|s| ShardSpec {
                id: ShardId(s as u16),
                replicas: (0..replicas_per_shard)
                    .map(|i| ReplicaId((s * replicas_per_shard + i) as u32))
                    .collect(),
            })
            .collect();
        Ok(ShardLayout { shards })
    }

    /// All shards.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total replica count across shards.
    pub fn total_replicas(&self) -> usize {
        self.shards.iter().map(|s| s.replicas.len()).sum()
    }

    /// The shard a client's xlog is assigned to (static hash partition).
    pub fn shard_of_client(&self, client: ClientId) -> ShardId {
        ShardId((client.0 % self.shards.len() as u64) as u16)
    }

    /// The shard a replica belongs to, or `None` for unknown replicas.
    pub fn shard_of_replica(&self, replica: ReplicaId) -> Option<ShardId> {
        self.shards.iter().find(|s| s.replicas.contains(&replica)).map(|s| s.id)
    }

    /// The spec of a shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not part of this layout.
    pub fn shard(&self, shard: ShardId) -> &ShardSpec {
        &self.shards[shard.0 as usize]
    }

    /// The representative replica of a client: a deterministic member of
    /// the client's shard (paper §II — the mapping is public knowledge).
    pub fn representative_of(&self, client: ClientId) -> ReplicaId {
        let spec = self.shard(self.shard_of_client(client));
        let idx = (client.0 / self.shards.len() as u64) as usize % spec.replicas.len();
        spec.replicas[idx]
    }

    /// True if `replica` is the representative of `client`.
    pub fn is_representative(&self, replica: ReplicaId, client: ClientId) -> bool {
        self.representative_of(client) == replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_2f_plus_1_for_3f_plus_1() {
        for f in 1..=33 {
            let cfg = SystemConfig::new(3 * f + 1).unwrap();
            assert_eq!(cfg.f(), f);
            assert_eq!(cfg.quorum(), 2 * f + 1);
            assert_eq!(cfg.small_quorum(), f + 1);
        }
    }

    #[test]
    fn quorum_intersection_property() {
        // Any two quorums must intersect in >= f+1 replicas.
        for n in 4..=100 {
            let cfg = SystemConfig::new(n).unwrap();
            let q = cfg.quorum();
            assert!(2 * q - n > cfg.f(), "n={n}");
            assert!(q <= n, "n={n}");
        }
    }

    #[test]
    fn rejects_tiny_systems() {
        assert_eq!(SystemConfig::new(3), Err(ConfigError::TooFewReplicas));
        assert!(SystemConfig::new(4).is_ok());
    }

    #[test]
    fn uniform_layout_partitions_replicas() {
        let layout = ShardLayout::uniform(4, 52).unwrap();
        assert_eq!(layout.total_replicas(), 208);
        assert_eq!(layout.num_shards(), 4);
        // Every replica belongs to exactly one shard.
        for r in 0..208u32 {
            let s = layout.shard_of_replica(ReplicaId(r)).unwrap();
            assert_eq!(s.0 as u32, r / 52);
        }
        assert_eq!(layout.shard_of_replica(ReplicaId(208)), None);
    }

    #[test]
    fn clients_spread_across_shards() {
        let layout = ShardLayout::uniform(3, 4).unwrap();
        let mut counts = [0usize; 3];
        for c in 0..300u64 {
            counts[layout.shard_of_client(ClientId(c)).0 as usize] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn representative_is_in_clients_shard() {
        let layout = ShardLayout::uniform(4, 7).unwrap();
        for c in 0..100u64 {
            let client = ClientId(c);
            let rep = layout.representative_of(client);
            assert_eq!(layout.shard_of_replica(rep), Some(layout.shard_of_client(client)));
        }
    }

    #[test]
    fn single_layout_is_one_shard() {
        let layout = ShardLayout::single(49).unwrap();
        assert_eq!(layout.num_shards(), 1);
        assert_eq!(layout.total_replicas(), 49);
        assert_eq!(layout.shard(ShardId(0)).config().f(), 16);
    }
}
