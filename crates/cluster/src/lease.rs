//! Lease-based shard ownership with fencing epochs.
//!
//! Every shard is owned under a time-bounded lease. Renewal happens
//! once per cluster tick, but only while the coordinator holds the
//! owner fully `Alive` *and* a quorum exists — suspicion or quorum
//! loss starves the lease, and a starved lease lapses `LEASE_TTL_US`
//! after its last renewal. A lapsed lease whose shard can be re-placed
//! (a quorum exists, or the degraded-mode escape hatch is open) fails
//! over: the global fencing epoch is bumped and the shard moves to the
//! consistent-hash pick among the live nodes — minimal movement, since
//! only the lapsed shard is touched. The epoch is stamped on every
//! dispatch, so work from before a failover is recognizably stale
//! after the partition heals: split-brain double dispatch cannot
//! survive the fence.

use crate::placement::HashRing;

/// How long a grant lasts without renewal, in virtual µs.
const LEASE_TTL_US: f64 = 2_500.0;

/// One shard's current grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardLease {
    /// Owning node.
    pub owner: usize,
    /// Fencing epoch at grant time.
    pub epoch: u64,
    /// Lapse instant unless renewed.
    pub expires_us: f64,
}

/// One ownership transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failover {
    /// The shard that moved.
    pub shard: u32,
    /// Previous owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
    /// Fencing epoch of the new grant.
    pub epoch: u64,
    /// Whether the grant was made in degraded (quorum-less) mode.
    pub degraded: bool,
}

/// Lease counters, exposed for traces and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Successful renewals.
    pub renewals: u64,
    /// Ownership transfers.
    pub failovers: u64,
    /// Grants made through the degraded-mode escape hatch.
    pub degraded_grants: u64,
}

/// The lease table for a fixed shard count.
#[derive(Debug, Clone)]
pub(crate) struct LeaseTable {
    leases: Vec<ShardLease>,
    fencing_epoch: u64,
    /// Counters.
    pub stats: LeaseStats,
}

impl LeaseTable {
    /// Grants every shard its initial lease from `ring` (the full
    /// healthy membership) at epoch 0, expiring one TTL out.
    pub(crate) fn new(shards: u32, ring: &HashRing) -> LeaseTable {
        let leases = (0..shards)
            .map(|shard| ShardLease {
                owner: ring.place(shard_key(shard)).unwrap_or(0) as usize,
                epoch: 0,
                expires_us: LEASE_TTL_US,
            })
            .collect();
        LeaseTable {
            leases,
            fencing_epoch: 0,
            stats: LeaseStats::default(),
        }
    }

    /// The global fencing epoch: bumped once per failover.
    pub(crate) fn fencing_epoch(&self) -> u64 {
        self.fencing_epoch
    }

    /// The live grant for `shard` at `now_us`, or `None` once lapsed.
    pub(crate) fn owner(&self, shard: u32, now_us: f64) -> Option<(usize, u64)> {
        let lease = self.leases.get(shard as usize)?;
        (now_us < lease.expires_us).then_some((lease.owner, lease.epoch))
    }

    /// One renewal/failover pass. `alive` is the coordinator-view set
    /// of fully-`Alive` nodes (sorted), `ring` the consistent-hash
    /// ring over exactly that set, `quorum` whether the coordinator's
    /// component is a strict majority, and `degraded` whether the
    /// no-quorum grace has run out and grants may proceed anyway.
    pub(crate) fn tick(
        &mut self,
        now_us: f64,
        alive: &[usize],
        quorum: bool,
        degraded: bool,
        ring: &HashRing,
    ) -> Vec<Failover> {
        let mut moved = Vec::new();
        for (shard, lease) in self.leases.iter_mut().enumerate() {
            let owner_alive = alive.binary_search(&lease.owner).is_ok();
            if owner_alive && (quorum || degraded) {
                if degraded && !quorum && now_us >= lease.expires_us {
                    // Re-granting a *lapsed* lease outside quorum is a
                    // fresh claim, not a renewal: re-fence it so any
                    // work dispatched under the old grant is
                    // recognizably stale after the partition heals.
                    self.fencing_epoch += 1;
                    lease.epoch = self.fencing_epoch;
                    self.stats.degraded_grants += 1;
                }
                lease.expires_us = now_us + LEASE_TTL_US;
                self.stats.renewals += 1;
                continue;
            }
            if now_us < lease.expires_us || !(quorum || degraded) || ring.is_empty() {
                // Either the old grant still fences the shard, or no
                // component is authorized to re-grant it: the shard
                // stays (or goes) unowned and its tenants shed typed.
                continue;
            }
            let to = ring
                .place(shard_key(shard as u32))
                .map(|m| m as usize)
                .unwrap_or(lease.owner);
            self.fencing_epoch += 1;
            self.stats.failovers += 1;
            if degraded && !quorum {
                self.stats.degraded_grants += 1;
            }
            moved.push(Failover {
                shard: shard as u32,
                from: lease.owner,
                to,
                epoch: self.fencing_epoch,
                degraded: degraded && !quorum,
            });
            *lease = ShardLease {
                owner: to,
                epoch: self.fencing_epoch,
                expires_us: now_us + LEASE_TTL_US,
            };
        }
        moved
    }
}

/// The stable hash key a shard occupies on the node ring.
pub(crate) fn shard_key(shard: u32) -> u64 {
    0x5A4D_0000_0000_0000 | u64::from(shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_ring(nodes: usize) -> HashRing {
        HashRing::with_members(64, (0..nodes as u32).collect::<Vec<_>>())
    }

    #[test]
    fn renewal_keeps_owners_and_epoch_stable() {
        let ring = full_ring(4);
        let mut table = LeaseTable::new(16, &ring);
        let owners: Vec<usize> = (0..16)
            .map(|s| table.owner(s, 0.0).expect("granted").0)
            .collect();
        let alive = [0usize, 1, 2, 3];
        for round in 1..=10 {
            let moved = table.tick(round as f64 * 1_000.0, &alive, true, false, &ring);
            assert!(moved.is_empty(), "healthy renewals never move shards");
        }
        for s in 0..16 {
            let (owner, epoch) = table.owner(s, 10_000.0).expect("still granted");
            assert_eq!(owner, owners[s as usize]);
            assert_eq!(epoch, 0);
        }
        assert_eq!(table.fencing_epoch(), 0);
    }

    #[test]
    fn starved_lease_lapses_then_fails_over_with_epoch_bump() {
        let mut table = LeaseTable::new(16, &full_ring(4));
        let dead_owner = table.owner(0, 0.0).expect("granted").0;
        let alive: Vec<usize> = (0..4).filter(|n| *n != dead_owner).collect();
        let mut ring = full_ring(4);
        ring.remove(dead_owner as u32);
        // Before the TTL, the old grant still fences its shards.
        let moved = table.tick(1_000.0, &alive, true, false, &ring);
        assert!(moved.is_empty(), "old grants fence until they lapse");
        // Past the TTL the lapsed shards fail over; the rest renewed.
        let moved = table.tick(3_000.0, &alive, true, false, &ring);
        assert!(!moved.is_empty(), "lapsed shards must move");
        for f in &moved {
            assert_eq!(f.from, dead_owner);
            assert_ne!(f.to, dead_owner);
            assert!(!f.degraded);
            assert!(f.epoch > 0, "every failover bumps the fence");
        }
        let epochs: Vec<u64> = moved.iter().map(|f| f.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), epochs.len(), "epochs are unique per transfer");
        // Only the dead owner's shards moved: minimal movement.
        let survivors_kept = (0..16)
            .filter(|&s| {
                let (owner, epoch) = table.owner(s, 3_500.0).expect("granted");
                epoch == 0 && owner != dead_owner
            })
            .count();
        assert_eq!(survivors_kept + moved.len(), 16);
    }

    #[test]
    fn no_quorum_starves_until_degraded_mode_opens() {
        let ring = full_ring(4);
        let mut table = LeaseTable::new(8, &ring);
        let alive = [0usize, 1];
        // 2 of 4 is no quorum: nothing renews, everything lapses.
        let moved = table.tick(1_000.0, &alive, false, false, &ring);
        assert!(moved.is_empty());
        assert_eq!(table.owner(0, 4_000.0), None, "starved grant lapses");
        let moved = table.tick(5_000.0, &alive, false, false, &ring);
        assert!(moved.is_empty(), "no quorum, no grants");
        // The escape hatch: degraded grants restore availability —
        // lapsed shards of dead owners fail over, lapsed shards of
        // surviving owners are re-fenced in place. Either way the
        // epoch moves and the grant is counted as degraded.
        let half = HashRing::with_members(64, [0u32, 1]);
        let moved = table.tick(6_000.0, &alive, false, true, &half);
        assert!(!moved.is_empty(), "dead owners' shards must move");
        assert!(moved.iter().all(|f| f.degraded && f.to <= 1));
        assert_eq!(table.stats.degraded_grants, 8, "every shard re-fenced");
        for s in 0..8 {
            let (owner, epoch) = table.owner(s, 6_500.0).expect("granted");
            assert!(owner <= 1);
            assert!(epoch > 0, "degraded grants never keep the old fence");
        }
    }
}
