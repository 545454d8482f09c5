//! §3.1 node reindexing (Fig. 3).
//!
//! Raw interaction logs carry sparse, non-contiguous node identifiers whose
//! maximum can vastly exceed the node count (the paper's Taobao example
//! shrinks the feature matrix 62.5× after reindexing). BenchTemp maps:
//!
//! * **heterogeneous** graphs: users → a contiguous range first, then items
//!   → the range starting after the last user index (Fig. 3a);
//! * **homogeneous** graphs: the concatenated user+item id set → one
//!   contiguous range (Fig. 3b).
//!
//! The paper numbers from 1; this crate numbers from 0 (ids are array
//! indices downstream), which is a pure shift of the same mapping.

use std::collections::HashMap;

/// A raw interaction prior to reindexing: original ids, timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawInteraction {
    pub user: u64,
    pub item: u64,
    pub t: f64,
}

/// Outcome of reindexing: remapped endpoint ids plus the id tables.
#[derive(Clone, Debug)]
pub struct Reindexed {
    /// `(src, dst)` per raw interaction, in input order.
    pub edges: Vec<(usize, usize)>,
    /// Total node count after the mapping.
    pub num_nodes: usize,
    /// Users occupy `0..num_users` (equals `num_nodes` for homogeneous).
    pub num_users: usize,
    /// original user id → new id (first-appearance order).
    pub user_map: HashMap<u64, usize>,
    /// original item id → new id. For homogeneous graphs this is the same
    /// table as `user_map`.
    pub item_map: HashMap<u64, usize>,
}

/// Reindex a heterogeneous (bipartite) interaction log per Fig. 3a.
pub fn reindex_heterogeneous(raw: &[RawInteraction]) -> Reindexed {
    let mut user_map: HashMap<u64, usize> = HashMap::new();
    let mut item_map: HashMap<u64, usize> = HashMap::new();
    for r in raw {
        let next = user_map.len();
        user_map.entry(r.user).or_insert(next);
    }
    let num_users = user_map.len();
    for r in raw {
        let next = num_users + item_map.len();
        item_map.entry(r.item).or_insert(next);
    }
    let edges = raw
        .iter()
        .map(|r| (user_map[&r.user], item_map[&r.item]))
        .collect();
    Reindexed {
        edges,
        num_nodes: num_users + item_map.len(),
        num_users,
        user_map,
        item_map,
    }
}

/// Reindex a homogeneous interaction log per Fig. 3b: user and item columns
/// are concatenated and share one id space.
pub fn reindex_homogeneous(raw: &[RawInteraction]) -> Reindexed {
    let mut map: HashMap<u64, usize> = HashMap::new();
    for r in raw {
        let next = map.len();
        map.entry(r.user).or_insert(next);
        let next = map.len();
        map.entry(r.item).or_insert(next);
    }
    let edges = raw.iter().map(|r| (map[&r.user], map[&r.item])).collect();
    let num_nodes = map.len();
    Reindexed {
        edges,
        num_nodes,
        num_users: num_nodes,
        user_map: map.clone(),
        item_map: map,
    }
}

/// The feature-matrix shrink factor reindexing buys: `max_raw_id / num_nodes`
/// (the paper reports 62.53× for Taobao).
pub fn shrink_factor(raw: &[RawInteraction], reindexed: &Reindexed) -> f64 {
    let max_raw = raw
        .iter()
        .flat_map(|r| [r.user, r.item])
        .max()
        .unwrap_or(0)
        .saturating_add(1);
    max_raw as f64 / reindexed.num_nodes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(log: &[(u64, u64)]) -> Vec<RawInteraction> {
        log.iter()
            .enumerate()
            .map(|(i, &(user, item))| RawInteraction {
                user,
                item,
                t: i as f64,
            })
            .collect()
    }

    #[test]
    fn heterogeneous_users_then_items() {
        // Users {100, 7}, items {9000, 100} — item ids may collide with user
        // ids in the raw log; they map to disjoint ranges.
        let raw = raw(&[(100, 9000), (7, 100), (100, 100)]);
        let rx = reindex_heterogeneous(&raw);
        assert_eq!(rx.num_users, 2);
        assert_eq!(rx.num_nodes, 4);
        assert_eq!(rx.edges, vec![(0, 2), (1, 3), (0, 3)]);
        // All users below all items.
        assert!(rx
            .edges
            .iter()
            .all(|&(u, i)| u < rx.num_users && i >= rx.num_users));
    }

    #[test]
    fn homogeneous_shares_one_id_space() {
        let raw = raw(&[(100, 9000), (9000, 7), (7, 100)]);
        let rx = reindex_homogeneous(&raw);
        assert_eq!(rx.num_nodes, 3);
        assert_eq!(rx.num_users, rx.num_nodes);
        // Same raw id always maps to the same new id across both columns.
        assert_eq!(rx.edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "injectivity check; the visited-flag result is order-independent"
    )]
    fn mapping_is_injective_and_contiguous() {
        let raw = raw(&[(5, 50), (6, 60), (5, 60), (8, 80)]);
        let rx = reindex_heterogeneous(&raw);
        let mut seen = vec![false; rx.num_nodes];
        for (&_, &v) in rx.user_map.iter().chain(rx.item_map.iter()) {
            assert!(!seen[v], "id {v} assigned twice");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "ids not contiguous");
    }

    #[test]
    fn shrink_factor_matches_taobao_style_compression() {
        // Raw ids up to 5_162_992 but only 4 distinct nodes (2 users, 2 items).
        let raw = raw(&[(5_162_992, 10), (3, 10), (3, 42)]);
        let rx = reindex_heterogeneous(&raw);
        assert_eq!(rx.num_nodes, 4);
        let f = shrink_factor(&raw, &rx);
        assert!((f - 5_162_993.0 / 4.0).abs() < 1.0);
    }

    #[test]
    fn empty_log_is_fine() {
        let rx = reindex_homogeneous(&[]);
        assert_eq!(rx.num_nodes, 0);
        assert!(rx.edges.is_empty());
    }
}
