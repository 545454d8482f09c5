//! The DataLoader module (§3.2.1 / §3.2.2): chronological 70%–15%–15%
//! splitting, 10% unseen-node masking for the inductive setting, and the
//! three inductive test-set filters (Inductive, New-Old, New-New).
//!
//! Invariants (property-tested):
//! * splits are chronological and disjoint, and their union is the stream;
//! * no training edge touches an unseen node;
//! * New-Old ∪ New-New ≡ Inductive, and New-Old ∩ New-New ≡ ∅ (the paper's
//!   "Inductive New-Old ∨ New-New" identity).

use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_tensor::init;
use benchtemp_util::{json, Json, ToJson};

/// Fraction of nodes masked as unseen in the inductive setting (§3.2.1).
pub const UNSEEN_NODE_FRACTION: f64 = 0.10;

/// The evaluation settings of the link-prediction task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Setting {
    Transductive,
    Inductive,
    InductiveNewOld,
    InductiveNewNew,
}

impl Setting {
    pub fn all() -> [Setting; 4] {
        [
            Setting::Transductive,
            Setting::Inductive,
            Setting::InductiveNewOld,
            Setting::InductiveNewNew,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Setting::Transductive => "Transductive",
            Setting::Inductive => "Inductive",
            Setting::InductiveNewOld => "Inductive New-Old",
            Setting::InductiveNewNew => "Inductive New-New",
        }
    }
}

/// Link-prediction split: train/val/test plus the inductive variants.
#[derive(Clone, Debug)]
pub struct LinkPredSplit {
    /// Chronological training events, unseen-node edges removed.
    pub train: Vec<Interaction>,
    /// Transductive validation window (all events).
    pub val: Vec<Interaction>,
    /// Transductive test window (all events).
    pub test: Vec<Interaction>,
    pub inductive_val: Vec<Interaction>,
    pub inductive_test: Vec<Interaction>,
    pub new_old_val: Vec<Interaction>,
    pub new_old_test: Vec<Interaction>,
    pub new_new_val: Vec<Interaction>,
    pub new_new_test: Vec<Interaction>,
    /// Node-indexed mask of unseen nodes.
    pub unseen: Vec<bool>,
    /// Boundary timestamps: `t < val_time` is train, `< test_time` val.
    pub val_time: f64,
    pub test_time: f64,
}

impl LinkPredSplit {
    /// Build the split for a graph. `seed` drives the unseen-node mask only
    /// (the chronological split is deterministic).
    pub fn new(graph: &TemporalGraph, seed: u64) -> Self {
        let (val_time, test_time) = chronological_boundaries(graph, 0.70, 0.85);
        let mut train = Vec::new();
        let mut val = Vec::new();
        let mut test = Vec::new();
        for &ev in &graph.events {
            if ev.t < val_time {
                train.push(ev);
            } else if ev.t < test_time {
                val.push(ev);
            } else {
                test.push(ev);
            }
        }

        // Mask 10% of nodes appearing in the evaluation windows as unseen
        // (so the mask always yields non-trivial inductive test sets).
        let mut candidates: Vec<usize> = graph
            .active_nodes(&graph.events[train.len()..])
            .into_iter()
            .collect();
        let mut rng = init::rng(seed ^ 0x1d_be9c);
        rng.shuffle(&mut candidates);
        let n_unseen = ((graph.num_nodes as f64 * UNSEEN_NODE_FRACTION).round() as usize)
            .min(candidates.len());
        let mut unseen = vec![false; graph.num_nodes];
        for &n in candidates.iter().take(n_unseen) {
            unseen[n] = true;
        }

        // Remove any training edge touching an unseen node (§3.2.1).
        train.retain(|e| !unseen[e.src] && !unseen[e.dst]);

        let filter = |events: &[Interaction], pred: &dyn Fn(&Interaction) -> bool| {
            events
                .iter()
                .copied()
                .filter(|e| pred(e))
                .collect::<Vec<_>>()
        };
        let one_unseen = |e: &Interaction| unseen[e.src] || unseen[e.dst];
        let exactly_one = |e: &Interaction| unseen[e.src] != unseen[e.dst];
        let both_unseen = |e: &Interaction| unseen[e.src] && unseen[e.dst];

        LinkPredSplit {
            inductive_val: filter(&val, &one_unseen),
            inductive_test: filter(&test, &one_unseen),
            new_old_val: filter(&val, &exactly_one),
            new_old_test: filter(&test, &exactly_one),
            new_new_val: filter(&val, &both_unseen),
            new_new_test: filter(&test, &both_unseen),
            train,
            val,
            test,
            unseen,
            val_time,
            test_time,
        }
    }

    /// Table 6-style statistics.
    pub fn stats(&self, graph: &TemporalGraph) -> SplitStats {
        let count = |evs: &[Interaction]| SetStats {
            nodes: graph.active_nodes(evs).len(),
            edges: evs.len(),
        };
        SplitStats {
            dataset: graph.name.clone(),
            training: count(&self.train),
            validation: count(&self.val),
            transductive_test: count(&self.test),
            inductive_validation: count(&self.inductive_val),
            inductive_test: count(&self.inductive_test),
            new_old_validation: count(&self.new_old_val),
            new_old_test: count(&self.new_old_test),
            new_new_validation: count(&self.new_new_val),
            new_new_test: count(&self.new_new_test),
            unseen_nodes: self.unseen.iter().filter(|&&u| u).count(),
        }
    }
}

/// Node-classification split (§3.2.2): plain chronological 70/15/15 over
/// event indices into the label stream; no masking.
#[derive(Clone, Debug)]
pub struct NodeClassSplit {
    pub train: Vec<Interaction>,
    pub val: Vec<Interaction>,
    pub test: Vec<Interaction>,
    /// Event-index ranges into the original stream for label alignment.
    pub train_range: std::ops::Range<usize>,
    pub val_range: std::ops::Range<usize>,
    pub test_range: std::ops::Range<usize>,
}

impl NodeClassSplit {
    pub fn new(graph: &TemporalGraph) -> Self {
        assert!(
            graph.labels.is_some(),
            "node classification needs a labelled dataset (Reddit/Wikipedia/MOOC/…)"
        );
        let (val_time, test_time) = chronological_boundaries(graph, 0.70, 0.85);
        let n = graph.events.len();
        let val_start = graph.events.partition_point(|e| e.t < val_time);
        let test_start = graph.events.partition_point(|e| e.t < test_time);
        NodeClassSplit {
            train: graph.events[..val_start].to_vec(),
            val: graph.events[val_start..test_start].to_vec(),
            test: graph.events[test_start..].to_vec(),
            train_range: 0..val_start,
            val_range: val_start..test_start,
            test_range: test_start..n,
        }
    }
}

/// Timestamp boundaries at the given quantiles of event *timestamps*
/// (chronological, matching the paper's "according to edge timestamps").
///
/// Splitting buckets with strict `<` against these boundaries, so heavy
/// timestamp ties can silently swallow a window: if every event up to the
/// q1 quantile carries the same timestamp as the boundary event, the train
/// window is empty; if the two boundaries coincide, the val window is. Both
/// used to surface only much later as an opaque model/pipeline failure —
/// now they panic here with the offending timestamps.
fn chronological_boundaries(graph: &TemporalGraph, q1: f64, q2: f64) -> (f64, f64) {
    let n = graph.events.len();
    assert!(n >= 10, "dataset too small to split");
    let at = |q: f64| graph.events[((n as f64 * q) as usize).min(n - 1)].t;
    let (t1, t2) = (at(q1), at(q2));
    let (p1, p2) = (q1 * 100.0, q2 * 100.0);
    let first_t = graph.events[0].t;
    assert!(
        first_t < t1,
        "degenerate chronological split for '{}': the {p1:.0}%-quantile \
         timestamp ({t1}) is tied with the stream's first timestamp \
         ({first_t}), leaving an empty train window — the dataset's \
         timestamps are too coarse to split with strict '<' boundaries",
        graph.name
    );
    assert!(
        t1 < t2,
        "degenerate chronological split for '{}': the {p1:.0}%- and \
         {p2:.0}%-quantile timestamps coincide at {t1}, leaving an empty \
         val window — timestamp ties straddle the quantile boundary",
        graph.name
    );
    (t1, t2)
}

/// Statistics for one event set (Table 6 columns).
#[derive(Clone, Copy, Debug)]
pub struct SetStats {
    pub nodes: usize,
    pub edges: usize,
}

impl ToJson for SetStats {
    fn to_json(&self) -> Json {
        json!({ "nodes": self.nodes, "edges": self.edges })
    }
}

/// The full Table 6 row for one dataset.
#[derive(Clone, Debug)]
pub struct SplitStats {
    pub dataset: String,
    pub training: SetStats,
    pub validation: SetStats,
    pub transductive_test: SetStats,
    pub inductive_validation: SetStats,
    pub inductive_test: SetStats,
    pub new_old_validation: SetStats,
    pub new_old_test: SetStats,
    pub new_new_validation: SetStats,
    pub new_new_test: SetStats,
    pub unseen_nodes: usize,
}

impl ToJson for SplitStats {
    fn to_json(&self) -> Json {
        json!({
            "dataset": self.dataset.as_str(),
            "training": &self.training,
            "validation": &self.validation,
            "transductive_test": &self.transductive_test,
            "inductive_validation": &self.inductive_validation,
            "inductive_test": &self.inductive_test,
            "new_old_validation": &self.new_old_validation,
            "new_old_test": &self.new_old_test,
            "new_new_validation": &self.new_new_validation,
            "new_new_test": &self.new_new_test,
            "unseen_nodes": self.unseen_nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;

    fn graph() -> TemporalGraph {
        GeneratorConfig::small("split", 21).generate()
    }

    #[test]
    fn split_is_chronological_and_partitions() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 1);
        assert_eq!(
            s.val.len() + s.test.len() + g.events.iter().filter(|e| e.t < s.val_time).count(),
            g.num_events()
        );
        assert!(s.train.iter().all(|e| e.t < s.val_time));
        assert!(s.val.iter().all(|e| e.t >= s.val_time && e.t < s.test_time));
        assert!(s.test.iter().all(|e| e.t >= s.test_time));
        // ~70/15/15 by construction
        let frac = s.val.len() as f64 / g.num_events() as f64;
        assert!(frac > 0.05 && frac < 0.30, "val fraction {frac}");
    }

    #[test]
    fn no_train_edge_touches_unseen_node() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 2);
        assert!(s.unseen.iter().any(|&u| u), "mask should be non-empty");
        assert!(s.train.iter().all(|e| !s.unseen[e.src] && !s.unseen[e.dst]));
    }

    #[test]
    fn new_old_or_new_new_equals_inductive() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 3);
        assert_eq!(
            s.new_old_test.len() + s.new_new_test.len(),
            s.inductive_test.len(),
            "New-Old ∨ New-New must equal Inductive"
        );
        assert_eq!(
            s.new_old_val.len() + s.new_new_val.len(),
            s.inductive_val.len()
        );
        // Disjoint by definition of exactly-one vs both.
        for e in &s.new_old_test {
            assert!(s.unseen[e.src] != s.unseen[e.dst]);
        }
        for e in &s.new_new_test {
            assert!(s.unseen[e.src] && s.unseen[e.dst]);
        }
    }

    #[test]
    fn inductive_is_subset_of_transductive_test() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 4);
        let test_set: std::collections::HashSet<_> =
            s.test.iter().map(|e| (e.src, e.dst, e.feat_idx)).collect();
        assert!(
            !s.inductive_test.is_empty(),
            "mask should yield inductive edges"
        );
        for e in &s.inductive_test {
            assert!(test_set.contains(&(e.src, e.dst, e.feat_idx)));
        }
    }

    #[test]
    fn mask_is_seed_deterministic() {
        let g = graph();
        let a = LinkPredSplit::new(&g, 7);
        let b = LinkPredSplit::new(&g, 7);
        let c = LinkPredSplit::new(&g, 8);
        assert_eq!(a.unseen, b.unseen);
        assert_ne!(a.unseen, c.unseen);
        // Chronological pieces never depend on the seed.
        assert_eq!(a.val.len(), c.val.len());
        assert_eq!(a.test.len(), c.test.len());
    }

    #[test]
    fn roughly_ten_percent_masked() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 5);
        let masked = s.unseen.iter().filter(|&&u| u).count();
        let frac = masked as f64 / g.num_nodes as f64;
        assert!(frac > 0.05 && frac <= 0.11, "masked fraction {frac}");
    }

    #[test]
    fn table6_stats_are_consistent() {
        let g = graph();
        let s = LinkPredSplit::new(&g, 6);
        let st = s.stats(&g);
        assert_eq!(st.training.edges, s.train.len());
        assert_eq!(
            st.new_old_test.edges + st.new_new_test.edges,
            st.inductive_test.edges
        );
        assert_eq!(st.unseen_nodes, s.unseen.iter().filter(|&&u| u).count());
    }

    #[test]
    fn nc_split_covers_stream_in_order() {
        let mut cfg = GeneratorConfig::small("nc", 23);
        cfg.label = Some(benchtemp_graph::generators::LabelGenConfig::binary(0.1));
        let g = cfg.generate();
        let s = NodeClassSplit::new(&g);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), g.num_events());
        assert_eq!(s.train_range.end, s.val_range.start);
        assert_eq!(s.val_range.end, s.test_range.start);
        assert_eq!(s.test_range.end, g.num_events());
        // Range alignment: events in the range equal the split vectors.
        assert_eq!(&g.events[s.val_range.clone()], s.val.as_slice());
    }

    #[test]
    #[should_panic(expected = "labelled")]
    fn nc_split_requires_labels() {
        let g = graph();
        let _ = NodeClassSplit::new(&g);
    }

    /// Regression: a stream whose timestamps are all identical used to
    /// produce an empty train window silently (every event fails `t <
    /// val_time`); now the boundary computation itself fails with a
    /// diagnostic naming the tie.
    #[test]
    #[should_panic(expected = "empty train window")]
    fn all_tied_timestamps_fail_loudly() {
        let mut g = graph();
        for e in &mut g.events {
            e.t = 5.0;
        }
        let _ = LinkPredSplit::new(&g, 1);
    }

    /// Regression: ties straddling only the *upper* quantile boundary
    /// (train is fine, but the 70%- and 85%-quantile timestamps coincide)
    /// used to yield an empty val window; now it panics with the boundary
    /// timestamp in the message.
    #[test]
    #[should_panic(expected = "empty val window")]
    fn tied_upper_boundary_fails_loudly() {
        let mut g = graph();
        let n = g.events.len();
        let cut = (n as f64 * 0.5) as usize;
        for (i, e) in g.events.iter_mut().enumerate() {
            e.t = if i < cut { 1.0 } else { 2.0 };
        }
        let _ = LinkPredSplit::new(&g, 1);
    }
}
