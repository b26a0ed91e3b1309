//! A classic dynamic R-tree (Guttman, quadratic split) and its adaptation
//! to incomplete data — the structure whose breakdown the paper's Fig. 1
//! demonstrates.

use ibis_core::{
    AccessMethod, Answer, Dataset, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters,
};

/// An axis-aligned integer rectangle over raw coordinates (`0` is the
/// missing sentinel, domain values are `1..=C`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rect {
    /// Inclusive lower corner.
    pub lo: Vec<u16>,
    /// Inclusive upper corner.
    pub hi: Vec<u16>,
}

impl Rect {
    /// A degenerate rectangle around one point.
    pub fn point(p: &[u16]) -> Rect {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// `true` if the rectangles share any point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&alo, &ahi), (&blo, &bhi))| alo <= bhi && blo <= ahi)
    }

    /// Grows `self` to cover `other`.
    pub fn enlarge(&mut self, other: &Rect) {
        for d in 0..self.lo.len() {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Volume with each side counted as `hi − lo + 1` (so points have
    /// volume 1); `f64` to dodge overflow in high dimensions.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| (hi - lo) as f64 + 1.0)
            .product()
    }

    /// Volume of the union of `self` and `other`.
    fn union_volume(&self, other: &Rect) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .map(|((&alo, &ahi), (&blo, &bhi))| (ahi.max(bhi) - alo.min(blo)) as f64 + 1.0)
            .product()
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        rect: Rect,
        entries: Vec<(Rect, u32)>,
    },
    Internal {
        rect: Rect,
        children: Vec<usize>,
    },
}

impl Node {
    fn rect(&self) -> &Rect {
        match self {
            Node::Leaf { rect, .. } | Node::Internal { rect, .. } => rect,
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { children, .. } => children.len(),
        }
    }
}

/// A dynamic R-tree over integer points, built by repeated insertion with
/// Guttman's quadratic split — the 2006-era workhorse the paper's
/// motivating experiment uses. Overlap between sibling rectangles is what
/// sentinel-mapped missing data inflates, and [`RTree::overlap_factor`]
/// measures it directly.
#[derive(Clone, Debug)]
pub struct RTree {
    dims: usize,
    max_entries: usize,
    min_entries: usize,
    nodes: Vec<Node>,
    root: usize,
}

impl RTree {
    /// An empty tree over `dims` dimensions with default fan-out (16).
    pub fn new(dims: usize) -> RTree {
        RTree::with_fanout(dims, 16)
    }

    /// An empty tree with explicit maximum fan-out (`≥ 4`).
    ///
    /// Dimensionality is capped at 64: beyond that the volume arithmetic
    /// the split/insert heuristics rely on overflows `f64` (and a
    /// hierarchical index is hopeless anyway — the breakdown the paper's
    /// reference \[15\] proves and this workspace's bitmap/VA indexes
    /// exist to avoid).
    pub fn with_fanout(dims: usize, max_entries: usize) -> RTree {
        assert!(dims >= 1, "need at least one dimension");
        assert!(
            dims <= 64,
            "R-tree capped at 64 dimensions (volume heuristics overflow f64 beyond that; \
             use the bitmap or VA-file indexes for high-dimensional data)"
        );
        assert!(max_entries >= 4, "fan-out below 4 degenerates");
        let root = Node::Leaf {
            rect: Rect {
                lo: vec![u16::MAX; dims],
                hi: vec![0; dims],
            },
            entries: Vec::new(),
        };
        RTree {
            dims,
            max_entries,
            min_entries: max_entries.div_ceil(3),
            nodes: vec![root],
            root: 0,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.count(self.root)
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        matches!(&self.nodes[self.root], Node::Leaf { entries, .. } if entries.is_empty())
    }

    fn count(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { children, .. } => children.iter().map(|&c| self.count(c)).sum(),
        }
    }

    /// Inserts `point` (length `dims`) with payload `row`.
    ///
    /// # Panics
    /// Panics if `point.len() != dims`.
    pub fn insert(&mut self, point: &[u16], row: u32) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let rect = Rect::point(point);
        let path = self.choose_leaf_path(&rect);
        let leaf = *path.last().expect("path includes the root");
        match &mut self.nodes[leaf] {
            Node::Leaf { entries, .. } => entries.push((rect, row)),
            Node::Internal { .. } => unreachable!("descent ends at a leaf"),
        }
        self.fix_upward(&path);
    }

    /// Descends from the root by least enlargement, recording the path.
    fn choose_leaf_path(&self, rect: &Rect) -> Vec<usize> {
        let mut path = vec![self.root];
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return path,
                Node::Internal { children, .. } => {
                    // Least enlargement, ties by smallest volume.
                    let mut best = children[0];
                    let mut best_enl = f64::INFINITY;
                    let mut best_vol = f64::INFINITY;
                    for &c in children {
                        let r = self.nodes[c].rect();
                        let vol = r.volume();
                        let enl = r.union_volume(rect) - vol;
                        if enl < best_enl || (enl == best_enl && vol < best_vol) {
                            best = c;
                            best_enl = enl;
                            best_vol = vol;
                        }
                    }
                    node = best;
                    path.push(node);
                }
            }
        }
    }

    /// Recomputes covering rects up the recorded root→leaf path and splits
    /// overflowing nodes.
    fn fix_upward(&mut self, path: &[usize]) {
        let mut split: Option<(usize, usize)> = None; // (old, new sibling)
        for &n in path.iter().rev() {
            if let Some((_, new_node)) = split.take() {
                match &mut self.nodes[n] {
                    Node::Internal { children, .. } => children.push(new_node),
                    Node::Leaf { .. } => unreachable!("parents are internal"),
                }
            }
            self.recompute_rect(n);
            if self.nodes[n].len() > self.max_entries {
                let new_node = self.split(n);
                split = Some((n, new_node));
            }
        }
        if let Some((old, new_node)) = split {
            // Root split: grow the tree.
            let rect = {
                let mut r = self.nodes[old].rect().clone();
                r.enlarge(self.nodes[new_node].rect());
                r
            };
            let new_root = Node::Internal {
                rect,
                children: vec![old, new_node],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
    }

    fn recompute_rect(&mut self, node: usize) {
        let rect = match &self.nodes[node] {
            Node::Leaf { entries, .. } => {
                let mut it = entries.iter();
                let mut r = match it.next() {
                    Some((r, _)) => r.clone(),
                    None => return,
                };
                for (e, _) in it {
                    r.enlarge(e);
                }
                r
            }
            Node::Internal { children, .. } => {
                let mut r = self.nodes[children[0]].rect().clone();
                for &c in &children[1..] {
                    r.enlarge(self.nodes[c].rect());
                }
                r
            }
        };
        match &mut self.nodes[node] {
            Node::Leaf { rect: r, .. } | Node::Internal { rect: r, .. } => *r = rect,
        }
    }

    /// Quadratic split; returns the id of the new sibling.
    fn split(&mut self, node: usize) -> usize {
        // Extract the (rect, payload) pairs uniformly for both node kinds.
        enum Item {
            Data(Rect, u32),
            Child(Rect, usize),
        }
        let items: Vec<Item> = match &mut self.nodes[node] {
            Node::Leaf { entries, .. } => entries
                .drain(..)
                .map(|(r, row)| Item::Data(r, row))
                .collect(),
            Node::Internal { children, .. } => {
                let ids = std::mem::take(children);
                ids.into_iter()
                    .map(|c| Item::Child(self.nodes[c].rect().clone(), c))
                    .collect()
            }
        };
        let rect_of = |i: &Item| match i {
            Item::Data(r, _) | Item::Child(r, _) => r.clone(),
        };

        // Quadratic seed pick: the pair wasting the most volume.
        let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                let (ri, rj) = (rect_of(&items[i]), rect_of(&items[j]));
                let waste = ri.union_volume(&rj) - ri.volume() - rj.volume();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }

        let mut group_a: Vec<Item> = Vec::new();
        let mut group_b: Vec<Item> = Vec::new();
        let mut rect_a = rect_of(&items[s1]);
        let mut rect_b = rect_of(&items[s2]);
        let mut rest: Vec<Item> = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            if i == s1 {
                group_a.push(item);
            } else if i == s2 {
                group_b.push(item);
            } else {
                rest.push(item);
            }
        }
        let total_rest = rest.len();
        for (done, item) in rest.into_iter().enumerate() {
            let remaining = total_rest - done;
            // Honor minimum fill.
            if group_a.len() + remaining <= self.min_entries {
                rect_a.enlarge(&rect_of(&item));
                group_a.push(item);
                continue;
            }
            if group_b.len() + remaining <= self.min_entries {
                rect_b.enlarge(&rect_of(&item));
                group_b.push(item);
                continue;
            }
            let r = rect_of(&item);
            let enl_a = rect_a.union_volume(&r) - rect_a.volume();
            let enl_b = rect_b.union_volume(&r) - rect_b.volume();
            if enl_a <= enl_b {
                rect_a.enlarge(&r);
                group_a.push(item);
            } else {
                rect_b.enlarge(&r);
                group_b.push(item);
            }
        }

        let build = |items: Vec<Item>, rect: Rect, is_leaf: bool| -> Node {
            if is_leaf {
                Node::Leaf {
                    rect,
                    entries: items
                        .into_iter()
                        .map(|i| match i {
                            Item::Data(r, row) => (r, row),
                            Item::Child(..) => unreachable!(),
                        })
                        .collect(),
                }
            } else {
                Node::Internal {
                    rect,
                    children: items
                        .into_iter()
                        .map(|i| match i {
                            Item::Child(_, c) => c,
                            Item::Data(..) => unreachable!(),
                        })
                        .collect(),
                }
            }
        };
        let is_leaf = matches!(&self.nodes[node], Node::Leaf { .. });
        self.nodes[node] = build(group_a, rect_a, is_leaf);
        self.nodes.push(build(group_b, rect_b, is_leaf));
        self.nodes.len() - 1
    }

    /// All rows whose point lies inside `query`, with work counters.
    pub fn search(&self, query: &Rect, stats: &mut WorkCounters) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[n] {
                Node::Leaf { entries, .. } => {
                    for (r, row) in entries {
                        stats.entries_scanned += 1;
                        if query.intersects(r) {
                            out.push(*row);
                        }
                    }
                }
                Node::Internal { children, .. } => {
                    for &c in children {
                        if query.intersects(self.nodes[c].rect()) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        out
    }

    /// Approximate in-memory footprint: every node's covering rectangle
    /// (`2 · dims` `u16` corners) plus leaf entries (rectangle + row id) and
    /// internal child pointers.
    pub fn size_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                4 * self.dims
                    + match n {
                        Node::Leaf { entries, .. } => entries.len() * (4 * self.dims + 4),
                        Node::Internal { children, .. } => children.len() * 8,
                    }
            })
            .sum()
    }

    /// Mean number of sibling pairs whose rectangles overlap, per internal
    /// node — the structural quantity the sentinel mapping inflates.
    pub fn overlap_factor(&self) -> f64 {
        let mut pairs = 0usize;
        let mut overlapping = 0usize;
        for node in &self.nodes {
            if let Node::Internal { children, .. } = node {
                for i in 0..children.len() {
                    for j in i + 1..children.len() {
                        pairs += 1;
                        if self.nodes[children[i]]
                            .rect()
                            .intersects(self.nodes[children[j]].rect())
                        {
                            overlapping += 1;
                        }
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            overlapping as f64 / pairs as f64
        }
    }
}

/// The paper's Fig. 1 setup: a traditional R-tree over an incomplete
/// relation with missing data mapped to the sentinel coordinate `0`
/// (the "value not in the domain" trick the paper describes), answering
/// queries under either semantics.
///
/// * *not-match*: one rectangle query over the queried dimensions, the
///   sentinel excluded because intervals start at 1.
/// * *match*: a record matches if each queried coordinate is in range **or
///   at the sentinel**, so the query region is a union of `2^k` rectangles
///   — the exponential expansion the paper blames for the breakdown.
///
/// Only the queried attributes constrain the search; the tree itself is
/// built over *all* attributes of the dataset.
#[derive(Clone, Debug)]
pub struct RTreeIncomplete {
    tree: RTree,
    dims: usize,
    cardinalities: Vec<u16>,
    /// Attributes that actually contain missing rows; the match-semantics
    /// expansion only branches on these, so a complete dataset degenerates
    /// to a single rectangle query (the Fig. 1 baseline).
    has_missing: Vec<bool>,
}

impl RTreeIncomplete {
    /// Builds over every attribute of `dataset`.
    pub fn build(dataset: &Dataset) -> RTreeIncomplete {
        RTreeIncomplete::with_fanout(dataset, 16)
    }

    /// Builds with explicit R-tree fan-out.
    pub fn with_fanout(dataset: &Dataset, fanout: usize) -> RTreeIncomplete {
        let dims = dataset.n_attrs();
        let mut tree = RTree::with_fanout(dims, fanout);
        let columns: Vec<&[u16]> = dataset.columns().iter().map(|c| c.raw()).collect();
        let mut point = vec![0u16; dims];
        for row in 0..dataset.n_rows() {
            for (d, col) in columns.iter().enumerate() {
                point[d] = col[row]; // raw encoding: 0 = missing sentinel
            }
            tree.insert(&point, row as u32);
        }
        RTreeIncomplete {
            tree,
            dims,
            cardinalities: dataset.columns().iter().map(|c| c.cardinality()).collect(),
            has_missing: dataset
                .columns()
                .iter()
                .map(|c| c.missing_count() > 0)
                .collect(),
        }
    }

    /// The underlying tree (for overlap diagnostics).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Total index size in bytes (tree plus schema metadata).
    pub fn size_bytes(&self) -> usize {
        self.tree.size_bytes() + 2 * self.cardinalities.len() + self.has_missing.len()
    }

    /// Executes a query, returning matching rows and work counters.
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        query.validate_schema(self.dims, |a| self.cardinalities[a])?;
        let mut stats = WorkCounters::default();
        let preds = query.predicates();

        // Base rectangle: unconstrained dims span sentinel..=C.
        let mut lo = vec![0u16; self.dims];
        let hi: Vec<u16> = self.cardinalities.clone();
        let mut base = Rect {
            lo: std::mem::take(&mut lo),
            hi,
        };

        let rows = match query.policy() {
            MissingPolicy::IsNotMatch => {
                for p in preds {
                    base.lo[p.attr] = p.interval.lo;
                    base.hi[p.attr] = p.interval.hi;
                }
                stats.subqueries = 1;
                RowSet::from_unsorted(self.tree.search(&base, &mut stats))
            }
            MissingPolicy::IsMatch => {
                // 2^m subqueries, branching only on the queried attributes
                // that actually contain missing data: each such dim is
                // either its interval or the sentinel point. `m = k` in the
                // paper's setting (every attribute incomplete).
                let branching: Vec<usize> = preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| self.has_missing[p.attr])
                    .map(|(i, _)| i)
                    .collect();
                let m = branching.len();
                assert!(m <= 20, "2^m subquery expansion capped at m = 20");
                let mut all = Vec::new();
                for mask in 0u32..(1u32 << m) {
                    let mut rect = base.clone();
                    for p in preds {
                        rect.lo[p.attr] = p.interval.lo;
                        rect.hi[p.attr] = p.interval.hi;
                    }
                    for (bit, &i) in branching.iter().enumerate() {
                        if mask & (1 << bit) != 0 {
                            let attr = preds[i].attr;
                            rect.lo[attr] = 0;
                            rect.hi[attr] = 0;
                        }
                    }
                    stats.subqueries += 1;
                    all.extend(self.tree.search(&rect, &mut stats));
                }
                RowSet::from_unsorted(all)
            }
        };
        finish_tree_words(&mut stats, self.dims);
        Ok((rows, stats))
    }
}

/// Converts tree-traversal counters into the engine layer's common
/// 64-bit-word currency: each scanned entry touches a `dims`-point
/// (`2 · dims` bytes), each visited node its covering rectangle
/// (`4 · dims` bytes).
pub(crate) fn finish_tree_words(stats: &mut WorkCounters, dims: usize) {
    stats.words_processed =
        (stats.entries_scanned * 2 * dims + stats.nodes_visited * 4 * dims).div_ceil(8);
}

impl AccessMethod for RTreeIncomplete {
    fn name(&self) -> &'static str {
        "r-tree"
    }

    fn size_bytes(&self) -> usize {
        RTreeIncomplete::size_bytes(self)
    }

    fn answer(&self, query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
        let mut span = ibis_obs::span("rtree.descend");
        let (rows, cost) = RTreeIncomplete::execute_with_cost(self, query)?;
        cost.record_into(&mut span);
        Ok((Answer::Ids(rows), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::{synthetic_scaled, uniform_column};
    use ibis_core::{scan, Dataset, Predicate};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rect_ops() {
        let a = Rect {
            lo: vec![1, 1],
            hi: vec![4, 4],
        };
        let b = Rect {
            lo: vec![4, 4],
            hi: vec![6, 6],
        };
        let c = Rect {
            lo: vec![5, 1],
            hi: vec![6, 3],
        };
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c)); // x ranges touch only at 4 < 5
        assert!(!b.intersects(&c)); // y ranges disjoint: [4,6] vs [1,3]
        let d = Rect {
            lo: vec![2, 2],
            hi: vec![3, 3],
        };
        assert!(a.intersects(&d), "containment counts as intersection");
        assert_eq!(a.volume(), 16.0);
        let mut u = a.clone();
        u.enlarge(&b);
        assert_eq!(
            u,
            Rect {
                lo: vec![1, 1],
                hi: vec![6, 6]
            }
        );
    }

    #[test]
    fn insert_and_search_exact() {
        let mut t = RTree::with_fanout(2, 4);
        let pts: Vec<[u16; 2]> = (0..200)
            .map(|i| [(i * 7 % 50 + 1) as u16, (i * 13 % 50 + 1) as u16])
            .collect();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i as u32);
        }
        assert_eq!(t.len(), 200);
        let q = Rect {
            lo: vec![10, 10],
            hi: vec![25, 30],
        };
        let mut stats = WorkCounters::default();
        let mut got = t.search(&q, &mut stats);
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| (10..=25).contains(&p[0]) && (10..=30).contains(&p[1]))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
        assert!(stats.nodes_visited > 0);
        // Pruning must beat visiting everything.
        assert!(stats.entries_scanned < 200, "{stats:?}");
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new(2);
        for i in 0..10 {
            t.insert(&[5, 5], i);
        }
        let mut stats = WorkCounters::default();
        let got = t.search(&Rect::point(&[5, 5]), &mut stats);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn empty_tree_search() {
        let t = RTree::new(3);
        assert!(t.is_empty());
        let mut stats = WorkCounters::default();
        assert!(t
            .search(
                &Rect {
                    lo: vec![1, 1, 1],
                    hi: vec![9, 9, 9]
                },
                &mut stats
            )
            .is_empty());
    }

    fn incomplete_2d(n: usize, missing: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(vec![
            uniform_column("x", n, 100, missing, &mut rng),
            uniform_column("y", n, 100, missing, &mut rng),
        ])
        .unwrap()
    }

    #[test]
    fn incomplete_rtree_matches_scan_both_policies() {
        let d = incomplete_2d(800, 0.2, 1);
        let idx = RTreeIncomplete::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 20, 70), Predicate::range(1, 10, 60)],
                policy,
            )
            .unwrap();
            assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
        }
    }

    #[test]
    fn match_semantics_runs_exponential_subqueries() {
        let d = incomplete_2d(300, 0.2, 2);
        let idx = RTreeIncomplete::build(&d);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 20, 70), Predicate::range(1, 10, 60)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let (_, stats) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(stats.subqueries, 4); // 2^2
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (_, stats) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(stats.subqueries, 1);
    }

    #[test]
    fn missing_data_degrades_rtree_work() {
        // The Fig. 1 phenomenon in counter form: the same query over the
        // same-sized dataset costs much more work when data is missing.
        let q = |policy| {
            RangeQuery::new(
                vec![Predicate::range(0, 25, 75), Predicate::range(1, 25, 75)],
                policy,
            )
            .unwrap()
        };
        let complete = incomplete_2d(2_000, 0.0, 3);
        let holey = incomplete_2d(2_000, 0.3, 3);
        let idx_c = RTreeIncomplete::build(&complete);
        let idx_h = RTreeIncomplete::build(&holey);
        let (_, sc) = idx_c.execute_with_cost(&q(MissingPolicy::IsMatch)).unwrap();
        let (_, sh) = idx_h.execute_with_cost(&q(MissingPolicy::IsMatch)).unwrap();
        let work_c = sc.nodes_visited + sc.entries_scanned;
        let work_h = sh.nodes_visited + sh.entries_scanned;
        assert!(
            work_h as f64 > 1.5 * work_c as f64,
            "missing data should inflate R-tree work: {work_h} vs {work_c}"
        );
    }

    #[test]
    fn high_dimensional_subset_queries() {
        // Tree over 450 synthetic attrs would be absurd; take 6.
        let full = synthetic_scaled(300, 9);
        let cols: Vec<_> = (0..6).map(|a| full.column(a * 30).clone()).collect();
        let d = Dataset::new(cols).unwrap();
        let idx = RTreeIncomplete::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(1, 1, 2), Predicate::range(4, 1, 10)],
                policy,
            )
            .unwrap();
            assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
        }
    }

    #[test]
    fn overlap_grows_with_missing_data() {
        let complete = incomplete_2d(1_500, 0.0, 4);
        let holey = incomplete_2d(1_500, 0.4, 4);
        let o_c = RTreeIncomplete::build(&complete).tree().overlap_factor();
        let o_h = RTreeIncomplete::build(&holey).tree().overlap_factor();
        // Not a strict theorem, but robustly true for uniform data with a
        // sentinel stripe; regression-guard it loosely.
        assert!(o_h >= o_c * 0.8, "overlap {o_h} vs {o_c}");
    }

    #[test]
    fn invalid_queries_rejected() {
        let d = incomplete_2d(50, 0.1, 5);
        let idx = RTreeIncomplete::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(7, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
    }
}

#[cfg(test)]
mod dim_cap_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capped at 64 dimensions")]
    fn high_dimensional_trees_rejected() {
        let _ = RTree::new(65);
    }

    #[test]
    fn sixty_four_dimensions_allowed() {
        let mut t = RTree::new(64);
        t.insert(&[1u16; 64], 0);
        let mut stats = WorkCounters::default();
        let q = Rect {
            lo: vec![1; 64],
            hi: vec![2; 64],
        };
        assert_eq!(t.search(&q, &mut stats), vec![0]);
    }
}
