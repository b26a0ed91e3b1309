//! An in-memory B+-tree over one attribute — the substrate of MOSAIC.
//!
//! Keys are raw cell values (`0` = the distinguished missing key, exactly
//! how MOSAIC maps missing data); each key holds the posting list of row
//! ids. Leaves are chained for range scans. The arena-based layout keeps
//! the implementation safe-Rust and cache-friendly.

use ibis_core::WorkCounters;

const DEFAULT_ORDER: usize = 32;

#[derive(Clone, Debug)]
enum Node {
    Internal {
        /// `keys[i]` is the smallest key reachable in `children[i + 1]`.
        keys: Vec<u16>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u16>,
        postings: Vec<Vec<u32>>,
        next: Option<usize>,
    },
}

/// A B+-tree from `u16` keys to row-id posting lists.
#[derive(Clone, Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    order: usize,
    len: usize,
}

impl BPlusTree {
    /// An empty tree with the default order (32).
    pub fn new() -> BPlusTree {
        BPlusTree::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with an explicit order (max keys per node, `≥ 3`).
    pub fn with_order(order: usize) -> BPlusTree {
        assert!(order >= 3, "order below 3 cannot split");
        BPlusTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            len: 0,
        }
    }

    /// Builds a tree from `(key, row)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u16, u32)>) -> BPlusTree {
        let mut t = BPlusTree::new();
        for (k, r) in pairs {
            t.insert(k, r);
        }
        t
    }

    /// Number of `(key, row)` postings stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn n_keys(&self) -> usize {
        let mut n = 0;
        let mut leaf = self.leftmost_leaf();
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { keys, next, .. } => {
                    n += keys.len();
                    match next {
                        Some(nx) => leaf = *nx,
                        None => return n,
                    }
                }
                Node::Internal { .. } => unreachable!(),
            }
        }
    }

    fn leftmost_leaf(&self) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { children, .. } => node = children[0],
            }
        }
    }

    /// Inserts a posting for `key`.
    pub fn insert(&mut self, key: u16, row: u32) {
        self.len += 1;
        // Descend, remembering the path.
        let mut path = vec![self.root];
        loop {
            match &self.nodes[*path.last().expect("non-empty")] {
                Node::Leaf { .. } => break,
                Node::Internal { keys, children, .. } => {
                    let i = keys.partition_point(|&k| k <= key);
                    path.push(children[i]);
                }
            }
        }
        let leaf = *path.last().expect("non-empty");
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, postings, .. } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        postings[i].push(row);
                        return; // no structural change
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        postings.insert(i, vec![row]);
                    }
                }
            }
            Node::Internal { .. } => unreachable!(),
        }
        self.split_upward(&path);
    }

    fn split_upward(&mut self, path: &[usize]) {
        let mut carry: Option<(u16, usize)> = None; // (separator, new right node)
        for &n in path.iter().rev() {
            if let Some((sep, right)) = carry.take() {
                match &mut self.nodes[n] {
                    Node::Internal { keys, children } => {
                        let i = keys.partition_point(|&k| k <= sep);
                        keys.insert(i, sep);
                        children.insert(i + 1, right);
                    }
                    Node::Leaf { .. } => unreachable!("parents are internal"),
                }
            }
            carry = self.maybe_split(n);
        }
        if let Some((sep, right)) = carry {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
    }

    /// Splits `n` if over-full; returns the separator and new right sibling.
    fn maybe_split(&mut self, n: usize) -> Option<(u16, usize)> {
        let order = self.order;
        let right = match &mut self.nodes[n] {
            Node::Leaf {
                keys,
                postings,
                next,
            } => {
                if keys.len() <= order {
                    return None;
                }
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_postings = postings.split_off(mid);
                let chained = *next;
                Node::Leaf {
                    keys: right_keys,
                    postings: right_postings,
                    next: chained,
                }
            }
            Node::Internal { keys, children } => {
                if keys.len() <= order {
                    return None;
                }
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // the separator moves up, not right
                let right_children = children.split_off(mid + 1);
                self.nodes.push(Node::Internal {
                    keys: right_keys,
                    children: right_children,
                });
                return Some((sep, self.nodes.len() - 1));
            }
        };
        let sep = match &right {
            Node::Leaf { keys, .. } => keys[0],
            Node::Internal { .. } => unreachable!(),
        };
        let right_id = self.nodes.len();
        self.nodes.push(right);
        if let Node::Leaf { next, .. } = &mut self.nodes[n] {
            *next = Some(right_id);
        }
        Some((sep, right_id))
    }

    /// Approximate in-memory footprint: keys, posting row ids, child
    /// pointers, and a per-leaf chain link.
    pub fn size_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { keys, postings, .. } => {
                    keys.len() * 2 + postings.iter().map(|p| p.len() * 4).sum::<usize>() + 8
                }
                Node::Internal { keys, children } => keys.len() * 2 + children.len() * 8,
            })
            .sum()
    }

    /// Row ids whose key lies in `lo..=hi`, via leaf-chain range scan.
    pub fn range(&self, lo: u16, hi: u16, stats: &mut WorkCounters) -> Vec<u32> {
        let mut out = Vec::new();
        // Descend to the leaf that may hold `lo`.
        let mut node = self.root;
        loop {
            stats.nodes_visited += 1;
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let i = keys.partition_point(|&k| k <= lo);
                    node = children[i];
                }
                Node::Leaf { .. } => break,
            }
        }
        let mut leaf = node;
        loop {
            match &self.nodes[leaf] {
                Node::Leaf {
                    keys,
                    postings,
                    next,
                } => {
                    for (i, &k) in keys.iter().enumerate() {
                        if k > hi {
                            return out;
                        }
                        if k >= lo {
                            stats.entries_scanned += postings[i].len();
                            out.extend_from_slice(&postings[i]);
                        }
                    }
                    match next {
                        Some(nx) => {
                            leaf = *nx;
                            stats.nodes_visited += 1;
                        }
                        None => return out,
                    }
                }
                Node::Internal { .. } => unreachable!(),
            }
        }
    }

    /// Row ids for exactly `key`.
    pub fn lookup(&self, key: u16, stats: &mut WorkCounters) -> Vec<u32> {
        self.range(key, key, stats)
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        BPlusTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn stats() -> WorkCounters {
        WorkCounters::default()
    }

    #[test]
    fn insert_and_lookup() {
        let t = BPlusTree::from_pairs([(5u16, 50u32), (3, 30), (5, 51), (0, 1)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.n_keys(), 3);
        let mut s = stats();
        assert_eq!(t.lookup(5, &mut s), vec![50, 51]);
        assert_eq!(t.lookup(0, &mut s), vec![1]);
        assert!(t.lookup(9, &mut s).is_empty());
    }

    #[test]
    fn range_scan_collects_in_key_order() {
        let t = BPlusTree::from_pairs((0..100u16).map(|k| (k, k as u32 * 10)));
        let mut s = stats();
        let got = t.range(20, 29, &mut s);
        assert_eq!(got, (20..30).map(|k| k * 10).collect::<Vec<u32>>());
        assert!(s.nodes_visited >= 1);
    }

    #[test]
    fn many_random_inserts_stay_consistent() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut keys: Vec<u16> = (0..2_000).map(|i| (i % 170) as u16).collect();
        keys.shuffle(&mut rng);
        let mut t = BPlusTree::with_order(8);
        for (row, &k) in keys.iter().enumerate() {
            t.insert(k, row as u32);
        }
        assert_eq!(t.len(), 2_000);
        assert_eq!(t.n_keys(), 170);
        let mut s = stats();
        for k in 0..170u16 {
            let mut got = t.lookup(k, &mut s);
            got.sort_unstable();
            let want: Vec<u32> = keys
                .iter()
                .enumerate()
                .filter(|(_, &kk)| kk == k)
                .map(|(r, _)| r as u32)
                .collect();
            assert_eq!(got, want, "key {k}");
        }
        // Full-range scan returns everything.
        let got = t.range(0, u16::MAX, &mut s);
        assert_eq!(got.len(), 2_000);
    }

    #[test]
    fn empty_and_single() {
        let t = BPlusTree::new();
        assert!(t.is_empty());
        let mut s = stats();
        assert!(t.range(0, u16::MAX, &mut s).is_empty());
        let t = BPlusTree::from_pairs([(7u16, 1u32)]);
        assert_eq!(t.range(7, 7, &mut s), vec![1]);
        assert!(t.range(8, 9, &mut s).is_empty());
    }

    #[test]
    fn small_order_forces_deep_trees() {
        let mut t = BPlusTree::with_order(3);
        for k in 0..500u16 {
            t.insert(k, k as u32);
        }
        let mut s = stats();
        assert_eq!(t.range(100, 110, &mut s).len(), 11);
        // Root must have split repeatedly.
        assert!(t.nodes.len() > 100);
    }
}
