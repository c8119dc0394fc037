//! The declarative placement policy and the deterministic planner.
//!
//! Placement is a *separate concern* from the reduction itself (the
//! Mapple idea): the job says nothing about where units run; the
//! policy does. Because the unit partition is membership-invariant and
//! the merge is first_row-sorted, placement can be arbitrary without
//! touching results — the planner only shapes *performance*.

use crate::units::WorkUnit;

/// Declarative placement: all fields are optional refinements over the
/// default "equal weights, place anywhere" behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementPolicy {
    /// Relative capacity per node id; missing, non-finite or
    /// non-positive entries count as 1.0. A node with weight 2.0 is
    /// seeded with twice the rows of a weight-1.0 peer.
    pub weights: Vec<f64>,
    /// `(first_row, rows, node)` — prefer placing units that start
    /// inside this row range on `node` (it already holds the shard
    /// cached or disk-resident). Ignored when the node is not live.
    pub pin: Vec<(u64, u64, u32)>,
    /// `(first_row, rows, node)` — avoid seeding units that start
    /// inside this range on `node`. Advisory: stealing may still move
    /// a unit there at runtime, and if every live node is excluded the
    /// planner keeps the weighted choice.
    pub anti_affinity: Vec<(u64, u64, u32)>,
}

impl PlacementPolicy {
    /// Effective weight of `node` (always finite and positive).
    pub fn weight(&self, node: u32) -> f64 {
        match self.weights.get(node as usize) {
            Some(&w) if w.is_finite() && w > 0.0 => w,
            _ => 1.0,
        }
    }

    /// Effective weight in milli-units, for the wire and displays.
    pub fn weight_milli(&self, node: u32) -> u64 {
        (self.weight(node) * 1000.0).round().min(u64::MAX as f64) as u64
    }

    fn pinned_to(&self, u: &WorkUnit) -> Option<u32> {
        self.pin
            .iter()
            .find(|&&(first, rows, _)| u.first_row >= first && u.first_row < first + rows)
            .map(|&(_, _, node)| node)
    }

    fn avoids(&self, u: &WorkUnit, node: u32) -> bool {
        self.anti_affinity.iter().any(|&(first, rows, n)| {
            n == node && u.first_row >= first && u.first_row < first + rows
        })
    }
}

/// Deterministically seed `units` onto the live nodes.
///
/// Returns one queue per entry of `live` (a slice of node *ids*, in
/// driver order). Pinned units go to their pinned node when it is
/// live; the rest are laid out contiguously in row order with each
/// node's share proportional to its weight (cumulative-sum
/// boundaries, so the same inputs always produce the same plan).
/// Anti-affinity then rotates a unit to the next non-excluded live
/// node.
pub fn plan(units: &[WorkUnit], live: &[u32], policy: &PlacementPolicy) -> Vec<Vec<WorkUnit>> {
    let n = live.len();
    let mut queues: Vec<Vec<WorkUnit>> = vec![Vec::new(); n];
    if n == 0 {
        return queues;
    }

    let mut free: Vec<WorkUnit> = Vec::new();
    for u in units {
        match policy.pinned_to(u) {
            Some(node) => match live.iter().position(|&id| id == node) {
                Some(slot) => queues[slot].push(*u),
                None => free.push(*u),
            },
            None => free.push(*u),
        }
    }

    let total: f64 = live.iter().map(|&id| policy.weight(id)).sum();
    let mut cum = 0.0;
    let mut taken = 0usize;
    for (slot, &id) in live.iter().enumerate() {
        cum += policy.weight(id);
        // How many of the free units the first slot..=slot nodes hold.
        let boundary = if slot + 1 == n {
            free.len()
        } else {
            ((cum / total) * free.len() as f64).round() as usize
        };
        for u in &free[taken..boundary.clamp(taken, free.len())] {
            let mut target = slot;
            if policy.avoids(u, id) {
                // Rotate forward to the first live node the unit does
                // not avoid; keep the weighted choice if all excluded.
                for step in 1..n {
                    let cand = (slot + step) % n;
                    if !policy.avoids(u, live[cand]) {
                        target = cand;
                        break;
                    }
                }
            }
            queues[target].push(*u);
        }
        taken = boundary.clamp(taken, free.len());
    }
    for q in &mut queues {
        q.sort_unstable();
    }
    queues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::split_units;

    fn flat(queues: &[Vec<WorkUnit>]) -> Vec<WorkUnit> {
        let mut all: Vec<WorkUnit> = queues.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn default_policy_balances_evenly() {
        let units = split_units(&[(0, 80)], 10);
        let q = plan(&units, &[0, 1], &PlacementPolicy::default());
        assert_eq!(q[0].len(), 4);
        assert_eq!(q[1].len(), 4);
        assert_eq!(flat(&q), units, "plan must cover every unit exactly once");
        // Contiguity: node 0 gets the low rows.
        assert!(q[0].iter().all(|u| u.first_row < 40));
    }

    #[test]
    fn weights_shift_the_split() {
        let units = split_units(&[(0, 80)], 10);
        let policy = PlacementPolicy {
            weights: vec![3.0, 1.0],
            ..PlacementPolicy::default()
        };
        let q = plan(&units, &[0, 1], &policy);
        assert_eq!(q[0].len(), 6);
        assert_eq!(q[1].len(), 2);
        assert_eq!(flat(&q), units);
    }

    #[test]
    fn bad_weights_fall_back_to_one() {
        let p = PlacementPolicy {
            weights: vec![f64::NAN, -2.0, 0.0, 2.5],
            ..PlacementPolicy::default()
        };
        assert_eq!(p.weight(0), 1.0);
        assert_eq!(p.weight(1), 1.0);
        assert_eq!(p.weight(2), 1.0);
        assert_eq!(p.weight(3), 2.5);
        assert_eq!(p.weight(9), 1.0);
        assert_eq!(p.weight_milli(3), 2500);
    }

    #[test]
    fn pins_win_when_live_and_degrade_when_not() {
        let units = split_units(&[(0, 40)], 10);
        let policy = PlacementPolicy {
            pin: vec![(0, 20, 1)],
            ..PlacementPolicy::default()
        };
        let q = plan(&units, &[0, 1], &policy);
        assert!(q[1].iter().any(|u| u.first_row == 0));
        assert!(q[1].iter().any(|u| u.first_row == 10));
        assert_eq!(flat(&q), units);
        // Pinned node not live → units just flow back into the pool.
        let q = plan(&units, &[0, 2], &policy);
        assert_eq!(flat(&q), units);
    }

    #[test]
    fn anti_affinity_rotates_away() {
        let units = split_units(&[(0, 40)], 10);
        let policy = PlacementPolicy {
            anti_affinity: vec![(0, 40, 0)],
            ..PlacementPolicy::default()
        };
        let q = plan(&units, &[0, 1], &policy);
        assert!(q[0].is_empty(), "node 0 is excluded from every unit");
        assert_eq!(flat(&q), units);
        // Everyone excluded → planner keeps the weighted choice.
        let policy = PlacementPolicy {
            anti_affinity: vec![(0, 40, 0), (0, 40, 1)],
            ..PlacementPolicy::default()
        };
        let q = plan(&units, &[0, 1], &policy);
        assert_eq!(flat(&q), units);
        assert!(!q[0].is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let units = split_units(&[(0, 33), (33, 67)], 7);
        let policy = PlacementPolicy {
            weights: vec![1.0, 2.0, 1.5],
            pin: vec![(10, 5, 2)],
            anti_affinity: vec![(50, 10, 1)],
        };
        let a = plan(&units, &[0, 1, 2], &policy);
        let b = plan(&units, &[0, 1, 2], &policy);
        assert_eq!(a, b);
        assert_eq!(flat(&a), units);
    }
}
