//! RC-tree interconnect representation.
//!
//! A net's parasitics are a tree of resistive segments with grounded
//! capacitance at every node — the standard reduced form produced by
//! parasitic extraction. Node 0 is always the root (the driver output pin);
//! sink nodes carry the load-cell input pins.
//!
//! The tree is three flat arrays indexed by node — parent index, segment
//! resistance from the parent, grounded capacitance — with parents before
//! children. The golden kernel's `WirePlan` copies them as they are, and
//! both wire kernels ([`crate::elmore::moments_into`] and
//! [`crate::transient::ramp_crossings`]) take them as slices.

/// Identifier of a node within one [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Crate-internal constructor of a [`NodeId`] from a raw index.
pub(crate) fn node_id(index: usize) -> NodeId {
    NodeId(index)
}

impl NodeId {
    /// The root node (driver output).
    pub const ROOT: NodeId = NodeId(0);

    /// Raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An RC tree with a designated root and a set of sink nodes.
///
/// # Examples
///
/// ```
/// use nsigma_interconnect::rctree::RcTree;
///
/// // root --1kΩ-- n1 --1kΩ-- n2 (sink), 1 fF at each node
/// let mut t = RcTree::new(1.0e-15);
/// let n1 = t.add_node(RcTree::root(), 1000.0, 1.0e-15);
/// let n2 = t.add_node(n1, 1000.0, 1.0e-15);
/// t.mark_sink(n2);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.sinks(), &[n2]);
/// assert_eq!(t.parents(), &[0, 0, 1]);
/// assert!((t.total_cap() - 3.0e-15).abs() < 1e-30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    parent: Vec<u32>,
    res: Vec<f64>,
    cap: Vec<f64>,
    sinks: Vec<NodeId>,
}

impl RcTree {
    /// Creates a tree containing only the root with the given grounded cap.
    pub fn new(root_cap: f64) -> Self {
        Self {
            parent: vec![0],
            res: vec![0.0],
            cap: vec![root_cap],
            sinks: Vec::new(),
        }
    }

    /// The root node id.
    pub fn root() -> NodeId {
        NodeId::ROOT
    }

    /// Adds a node hanging off `parent` through `res` ohms, with `cap`
    /// farads to ground. Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or `res`/`cap` are negative.
    pub fn add_node(&mut self, parent: NodeId, res: f64, cap: f64) -> NodeId {
        assert!(parent.0 < self.len(), "parent out of range");
        assert!(res >= 0.0 && cap >= 0.0, "res/cap must be non-negative");
        self.parent.push(parent.0 as u32);
        self.res.push(res);
        self.cap.push(cap);
        NodeId(self.len() - 1)
    }

    /// Marks a node as a sink (a load-pin attachment point).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn mark_sink(&mut self, node: NodeId) {
        assert!(node.0 < self.len(), "node out of range");
        if !self.sinks.contains(&node) {
            self.sinks.push(node);
        }
    }

    /// Adds capacitance at a node (e.g. the input cap of an attached load).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or `extra` is negative.
    pub fn add_cap(&mut self, node: NodeId, extra: f64) {
        assert!(node.0 < self.len(), "node out of range");
        assert!(extra >= 0.0, "cap must be non-negative");
        self.cap[node.0] += extra;
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree is only the root.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The sink nodes, in insertion order.
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Parent index of every node; the root's entry is 0, and every other
    /// node's parent has a smaller index.
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// Segment resistance from the parent into every node (Ω; 0 for the
    /// root).
    pub fn res(&self) -> &[f64] {
        &self.res
    }

    /// Grounded capacitance at every node (F).
    pub fn caps(&self) -> &[f64] {
        &self.cap
    }

    /// Sum of all node capacitances (F) — what the driver sees at DC.
    pub fn total_cap(&self) -> f64 {
        self.cap.iter().sum()
    }

    /// Total segment resistance (Ω).
    pub fn total_res(&self) -> f64 {
        self.res.iter().sum()
    }

    /// Returns a copy with every segment resistance and node capacitance
    /// transformed. It skips the constructor's checks, so tests use it to
    /// scale a tree or to poison one with a bad value.
    pub fn scaled_with(
        &self,
        mut res_scale: impl FnMut(NodeId, f64) -> f64,
        mut cap_scale: impl FnMut(NodeId, f64) -> f64,
    ) -> RcTree {
        let mut out = self.clone();
        for i in 0..out.len() {
            out.res[i] = res_scale(NodeId(i), self.res[i]);
            out.cap[i] = cap_scale(NodeId(i), self.cap[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, r: f64, c: f64) -> (RcTree, Vec<NodeId>) {
        let mut t = RcTree::new(c);
        let mut ids = vec![RcTree::root()];
        let mut cur = RcTree::root();
        for _ in 0..n {
            cur = t.add_node(cur, r, c);
            ids.push(cur);
        }
        t.mark_sink(cur);
        (t, ids)
    }

    #[test]
    fn chain_accounting() {
        let (t, ids) = chain(3, 100.0, 2e-15);
        assert_eq!(t.len(), 4);
        assert!((t.total_cap() - 8e-15).abs() < 1e-28);
        assert!((t.total_res() - 300.0).abs() < 1e-9);
        assert_eq!(t.parents(), &[0, 0, 1, 2]);
        assert_eq!(t.res(), &[0.0, 100.0, 100.0, 100.0]);
        assert_eq!(t.sinks(), &[ids[3]]);
    }

    #[test]
    fn sink_marking_is_idempotent() {
        let (mut t, ids) = chain(2, 1.0, 1e-15);
        t.mark_sink(ids[2]);
        t.mark_sink(ids[2]);
        assert_eq!(t.sinks().len(), 1);
    }

    #[test]
    fn add_cap_accumulates() {
        let (mut t, ids) = chain(1, 1.0, 1e-15);
        t.add_cap(ids[1], 3e-15);
        assert!((t.caps()[ids[1].index()] - 4e-15).abs() < 1e-28);
    }

    #[test]
    fn scaled_with_applies_factors() {
        let (t, _) = chain(2, 10.0, 1e-15);
        let s = t.scaled_with(|_, r| r * 2.0, |_, c| c * 3.0);
        assert!((s.total_res() - 2.0 * t.total_res()).abs() < 1e-9);
        assert!((s.total_cap() - 3.0 * t.total_cap()).abs() < 1e-27);
        // Original untouched.
        assert!((t.total_res() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn branching_children() {
        let mut t = RcTree::new(1e-15);
        let a = t.add_node(RcTree::root(), 1.0, 1e-15);
        t.add_node(RcTree::root(), 1.0, 1e-15);
        t.add_node(a, 1.0, 1e-15);
        assert_eq!(t.parents(), &[0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "res/cap must be non-negative")]
    fn negative_res_rejected() {
        let mut t = RcTree::new(0.0);
        t.add_node(RcTree::root(), -1.0, 0.0);
    }
}
