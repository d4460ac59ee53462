//! Identifier newtypes for the participants of the system.
//!
//! The paper distinguishes *clients* (lightweight account owners who submit
//! payments) from *replicas* (well-connected nodes maintaining the system
//! state). Sharded deployments additionally group replicas and xlogs into
//! *shards* (§V).

/// Identifies a client (equivalently: one exclusive log, since every client
/// owns exactly one xlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

/// Identifies a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

/// Identifies a shard (a subset of replicas plus the xlogs assigned to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u16);

impl core::fmt::Display for ClientId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl core::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl core::fmt::Display for ShardId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u64> for ClientId {
    fn from(v: u64) -> Self {
        ClientId(v)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

impl From<u16> for ShardId {
    fn from(v: u16) -> Self {
        ShardId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ClientId(7).to_string(), "c7");
        assert_eq!(ReplicaId(3).to_string(), "r3");
        assert_eq!(ShardId(1).to_string(), "s1");
    }

    #[test]
    fn ordering_follows_inner_value() {
        assert!(ClientId(1) < ClientId(2));
        assert!(ReplicaId(0) < ReplicaId(10));
    }
}
