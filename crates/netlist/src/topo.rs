//! Structural analysis of netlists: topological order, levelization and
//! path extraction.

use crate::ir::{GateId, NetDriver, NetId, Netlist};

/// Gates in topological order (every gate after all gates feeding it).
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle.
pub fn topo_order(netlist: &Netlist) -> Vec<GateId> {
    let n = netlist.num_gates();
    let mut indegree = vec![0usize; n];
    for (idx, gate) in netlist.gates().iter().enumerate() {
        indegree[idx] = gate
            .inputs
            .iter()
            .filter(|&&i| matches!(netlist.net(i).driver, NetDriver::Gate(_)))
            .count();
    }

    let mut queue: Vec<GateId> = netlist
        .gate_ids()
        .filter(|&g| indegree[g.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        order.push(g);
        let out = netlist.gate(g).output;
        for &(load, _) in &netlist.net(out).loads {
            indegree[load.index()] -= 1;
            if indegree[load.index()] == 0 {
                queue.push(load);
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "netlist contains a combinational cycle ({} of {} gates ordered)",
        order.len(),
        n
    );
    order
}

/// Logic level of every gate: PIs are level 0; a gate's level is
/// 1 + max(level of fanin gates).
pub fn levels(netlist: &Netlist) -> Vec<usize> {
    let order = topo_order(netlist);
    let mut level = vec![0usize; netlist.num_gates()];
    for g in order {
        let mut lvl = 0;
        for &i in &netlist.gate(g).inputs {
            if let NetDriver::Gate(src) = netlist.net(i).driver {
                lvl = lvl.max(level[src.index()] + 1);
            } else {
                lvl = lvl.max(1);
            }
        }
        level[g.index()] = lvl;
    }
    level
}

/// Logic depth of the netlist (max gate level).
pub fn depth(netlist: &Netlist) -> usize {
    levels(netlist).into_iter().max().unwrap_or(0)
}

/// A structural path: the gates traversed from a primary input to a primary
/// output, plus the nets between them (input net of the first gate first).
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Gates along the path, source first.
    pub gates: Vec<GateId>,
    /// Nets along the path: the net *into* each gate, then the final output
    /// net — `nets.len() == gates.len() + 1`.
    pub nets: Vec<NetId>,
}

impl Path {
    /// Number of stages (gates).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the path has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// Extracts the path that maximizes the sum of `gate_weight` over its gates
/// (the structural critical path for any additive per-stage metric).
///
/// Returns `None` for a netlist with no gates.
pub fn longest_path_by(netlist: &Netlist, gate_weight: impl Fn(GateId) -> f64) -> Option<Path> {
    longest_path_by_with_order(netlist, &topo_order(netlist), gate_weight)
}

/// [`longest_path_by`] over a caller-supplied topo `order`. Produces the
/// identical path; callers that precompute the order (compiled timing
/// graphs) skip the per-query Kahn pass.
pub fn longest_path_by_with_order(
    netlist: &Netlist,
    order: &[GateId],
    gate_weight: impl Fn(GateId) -> f64,
) -> Option<Path> {
    if order.is_empty() {
        return None;
    }
    let n = netlist.num_gates();
    // Best arrival weight at each gate's output and the predecessor gate
    // (None when the best path starts at this gate from a PI).
    let mut arrival = vec![f64::NEG_INFINITY; n];
    let mut pred: Vec<Option<GateId>> = vec![None; n];
    for &g in order {
        let mut best = 0.0;
        let mut best_pred = None;
        for &i in &netlist.gate(g).inputs {
            if let NetDriver::Gate(src) = netlist.net(i).driver {
                if arrival[src.index()] > best {
                    best = arrival[src.index()];
                    best_pred = Some(src);
                }
            }
        }
        arrival[g.index()] = best + gate_weight(g);
        pred[g.index()] = best_pred;
    }

    // Endpoint: the driver gate of the worst primary output (fall back to
    // the globally worst gate if no outputs are marked).
    let mut end: Option<GateId> = None;
    let mut end_arrival = f64::NEG_INFINITY;
    for &o in netlist.outputs() {
        if let NetDriver::Gate(g) = netlist.net(o).driver {
            if arrival[g.index()] > end_arrival {
                end_arrival = arrival[g.index()];
                end = Some(g);
            }
        }
    }
    if end.is_none() {
        for &g in order {
            if arrival[g.index()] > end_arrival {
                end_arrival = arrival[g.index()];
                end = Some(g);
            }
        }
    }
    let end = end?;

    // Walk back.
    let mut gates = vec![end];
    let mut cur = end;
    while let Some(p) = pred[cur.index()] {
        gates.push(p);
        cur = p;
    }
    gates.reverse();

    // Reconstruct the nets: input net into each gate (the one fed by the
    // previous path gate, or any PI-driven net for the first), then the
    // final output.
    let mut nets = Vec::with_capacity(gates.len() + 1);
    for (k, &g) in gates.iter().enumerate() {
        let want_prev = if k == 0 { None } else { Some(gates[k - 1]) };
        let gate = netlist.gate(g);
        let input = gate
            .inputs
            .iter()
            .copied()
            .find(|&i| match (want_prev, netlist.net(i).driver) {
                (Some(prev), NetDriver::Gate(src)) => src == prev,
                (None, _) => true,
                _ => false,
            })
            .unwrap_or(gate.inputs[0]);
        nets.push(input);
    }
    nets.push(netlist.gate(end).output);

    Some(Path { gates, nets })
}

/// The `k` heaviest PI→PO paths under an additive per-gate weight — the
/// "report the N worst paths" primitive every sign-off timer provides.
///
/// Dynamic program: each gate keeps its top-`k` arrival values together
/// with (predecessor gate, predecessor rank); paths are reconstructed by
/// walking those links back. Returns fewer than `k` paths when the DAG has
/// fewer distinct PI→PO routes. Paths are sorted heaviest first.
///
/// # Panics
///
/// Panics if a gate weight is not finite.
pub fn k_longest_paths_by(
    netlist: &Netlist,
    gate_weight: impl Fn(GateId) -> f64,
    k: usize,
) -> Vec<Path> {
    if k == 0 || netlist.num_gates() == 0 {
        return Vec::new();
    }
    let csr = NetlistCsr::build(netlist);
    k_longest_paths_by_with_csr(netlist, &csr, gate_weight, k, &mut PathScratch::new())
}

/// Marks a PI-rooted candidate in [`PathScratch`]'s links, and a
/// PI-driven net in [`NetlistCsr::net_driver`].
const NO_GATE: u32 = u32::MAX;

/// Reusable buffers for [`k_longest_paths_by_with_csr`]: the flat top-`k`
/// table and the merge and endpoint lists survive across calls, so a
/// caller ranking paths in a loop stops reallocating them.
///
/// The table is one row per gate, laid out in topo order: gate `g`'s
/// candidates sit at `start[g]..start[g] + len[g]`, heaviest first, with
/// `len[g] ≤ k`. A candidate is its arrival weight plus the link
/// `(predecessor gate, predecessor rank)` it came through, or
/// `(NO_GATE, 0)` when it starts at this gate.
#[derive(Debug, Default)]
pub struct PathScratch {
    start: Vec<usize>,
    len: Vec<usize>,
    value: Vec<f64>,
    link: Vec<(u32, u32)>,
    /// The current gate's fanin rows being merged: `(gate, next, end)`.
    heads: Vec<(u32, usize, usize)>,
    endpoints: Vec<(f64, u32, u32)>,
    po_drivers: Vec<u32>,
}

impl PathScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`k_longest_paths_by`] over a caller-supplied [`NetlistCsr`] of
/// `netlist`, reusing `scratch` buffers across calls. Callers that keep
/// the CSR (compiled timing graphs) skip the per-query Kahn pass and the
/// DP-table allocations.
///
/// Each gate's list is a merge of its fanin gates' lists, which are
/// already sorted, plus a PI candidate when an input is a primary input
/// (or the gate has no gate-driven input). Ties go to the earlier input
/// pin, then the lower rank, and the PI candidate comes last: the order a
/// stable descending sort of the pins' lists in pin order would give.
/// The first `j` paths of a call at `k ≥ j` equal a call at `j`, because
/// a candidate of source rank `≥ j` follows at least `j` candidates that
/// are no lighter.
///
/// # Panics
///
/// Panics if a gate weight is not finite.
pub fn k_longest_paths_by_with_csr(
    netlist: &Netlist,
    csr: &NetlistCsr,
    gate_weight: impl Fn(GateId) -> f64,
    k: usize,
    scratch: &mut PathScratch,
) -> Vec<Path> {
    let n = csr.gate_output.len();
    if k == 0 || n == 0 {
        return Vec::new();
    }
    let PathScratch {
        start,
        len,
        value,
        link,
        heads,
        endpoints,
        po_drivers,
    } = scratch;

    // Rows are appended in topo order, so a fanin's row is complete before
    // any gate reads it, and the table holds only candidates that exist.
    start.resize(n, 0);
    len.resize(n, 0);
    value.clear();
    link.clear();
    for &g in &csr.order {
        let gi = g.index();
        let w = gate_weight(g);
        assert!(w.is_finite(), "finite weights: gate {gi} weighs {w}");
        heads.clear();
        let mut pi_pending = false;
        for &net in csr.fanins(gi) {
            match csr.net_driver[net as usize] {
                NO_GATE => pi_pending = true,
                src => {
                    let s = start[src as usize];
                    heads.push((src, s, s + len[src as usize]));
                }
            }
        }
        pi_pending |= heads.is_empty();
        start[gi] = value.len();
        while value.len() - start[gi] < k {
            // The heaviest remaining head; `>` keeps the earlier pin on a tie.
            let mut best: Option<(usize, f64)> = None;
            for (h, &(_, next, end)) in heads.iter().enumerate() {
                if next < end {
                    let v = value[next] + w;
                    if best.is_none_or(|(_, b)| v > b) {
                        best = Some((h, v));
                    }
                }
            }
            match best {
                Some((h, v)) if !pi_pending || v >= w => {
                    let (src, next, _) = heads[h];
                    heads[h].1 += 1;
                    value.push(v);
                    link.push((src, (next - start[src as usize]) as u32));
                }
                _ if pi_pending => {
                    value.push(w);
                    link.push((NO_GATE, 0));
                    pi_pending = false;
                }
                _ => break,
            }
        }
        len[gi] = value.len() - start[gi];
    }

    // Endpoint candidates over PO drivers (fallback: all gates).
    po_drivers.clear();
    po_drivers.extend(
        netlist
            .outputs()
            .iter()
            .map(|o| csr.net_driver[o.index()])
            .filter(|&d| d != NO_GATE),
    );
    po_drivers.sort_unstable();
    po_drivers.dedup();
    if po_drivers.is_empty() {
        po_drivers.extend(csr.order.iter().map(|g| g.index() as u32));
    }
    endpoints.clear();
    for &g in po_drivers.iter() {
        let s = start[g as usize];
        for rank in 0..len[g as usize] {
            endpoints.push((value[s + rank], g, rank as u32));
        }
    }
    endpoints.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite weights"));
    endpoints.truncate(k);

    endpoints
        .iter()
        .map(|&(_, end, rank)| reconstruct(netlist, csr, start, link, end, rank))
        .collect()
}

/// Flat CSR view of a netlist's connectivity, precomputed once so query
/// loops walk dense `u32` arrays instead of chasing `Vec<GateId>` per gate.
///
/// Index convention: gates and nets are addressed by their `index()`;
/// `fanin_start`/`fanout_start` are the usual CSR offsets with one extra
/// trailing entry.
#[derive(Debug, Clone)]
pub struct NetlistCsr {
    /// Gates in topological order (same contract as [`topo_order`]).
    pub order: Vec<GateId>,
    /// CSR offsets into `fanin_nets`, length `num_gates + 1`.
    pub fanin_start: Vec<u32>,
    /// Net index of every gate input, in `gate.inputs` order.
    pub fanin_nets: Vec<u32>,
    /// Output net index of every gate.
    pub gate_output: Vec<u32>,
    /// CSR offsets into `fanout_gates`, length `num_nets + 1`.
    pub fanout_start: Vec<u32>,
    /// Gate index of every net load, in `net.loads` order.
    pub fanout_gates: Vec<u32>,
    /// Driving gate index per net, or `u32::MAX` for a primary input.
    pub net_driver: Vec<u32>,
    /// Logic level per gate (same contract as [`levels`]).
    pub level: Vec<u32>,
}

impl NetlistCsr {
    /// Builds the CSR arrays (one Kahn pass plus two linear sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle.
    pub fn build(netlist: &Netlist) -> Self {
        let order = topo_order(netlist);
        let n = netlist.num_gates();
        let nets = netlist.num_nets();

        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_nets = Vec::new();
        let mut gate_output = Vec::with_capacity(n);
        for gate in netlist.gates() {
            fanin_start.push(fanin_nets.len() as u32);
            fanin_nets.extend(gate.inputs.iter().map(|i| i.index() as u32));
            gate_output.push(gate.output.index() as u32);
        }
        fanin_start.push(fanin_nets.len() as u32);

        let mut fanout_start = Vec::with_capacity(nets + 1);
        let mut fanout_gates = Vec::new();
        let mut net_driver = Vec::with_capacity(nets);
        for net_idx in 0..nets {
            fanout_start.push(fanout_gates.len() as u32);
            let net = netlist.net(NetId::from_index(net_idx));
            fanout_gates.extend(net.loads.iter().map(|&(g, _)| g.index() as u32));
            net_driver.push(match net.driver {
                NetDriver::Gate(g) => g.index() as u32,
                NetDriver::PrimaryInput => NO_GATE,
            });
        }
        fanout_start.push(fanout_gates.len() as u32);

        // Levels straight off the already-computed order (the free-standing
        // `levels` helper re-runs Kahn; here the order is in hand).
        let mut level = vec![0u32; n];
        for &g in &order {
            let mut lvl = 0u32;
            for &i in &netlist.gate(g).inputs {
                if let NetDriver::Gate(src) = netlist.net(i).driver {
                    lvl = lvl.max(level[src.index()] + 1);
                } else {
                    lvl = lvl.max(1);
                }
            }
            level[g.index()] = lvl;
        }

        Self {
            order,
            fanin_start,
            fanin_nets,
            gate_output,
            fanout_start,
            fanout_gates,
            net_driver,
            level,
        }
    }

    /// The fanin net indices of gate `g`.
    pub fn fanins(&self, g: usize) -> &[u32] {
        &self.fanin_nets[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    /// The gate indices loading net `net`.
    pub fn fanouts(&self, net: usize) -> &[u32] {
        &self.fanout_gates[self.fanout_start[net] as usize..self.fanout_start[net + 1] as usize]
    }
}

/// Walks the top-k links back from `(end, rank)` into a [`Path`].
fn reconstruct(
    netlist: &Netlist,
    csr: &NetlistCsr,
    start: &[usize],
    link: &[(u32, u32)],
    end: u32,
    rank: u32,
) -> Path {
    let mut gates = vec![GateId::from_index(end as usize)];
    let mut cur = (end, rank);
    loop {
        let (pred, pred_rank) = link[start[cur.0 as usize] + cur.1 as usize];
        if pred == NO_GATE {
            break;
        }
        gates.push(GateId::from_index(pred as usize));
        cur = (pred, pred_rank);
    }
    gates.reverse();

    // The net into each gate: the one the previous path gate drives (the
    // first input for the source gate), then the final output.
    let mut nets = Vec::with_capacity(gates.len() + 1);
    for (idx, &g) in gates.iter().enumerate() {
        let fanins = csr.fanins(g.index());
        let input = idx
            .checked_sub(1)
            .and_then(|p| {
                let prev = gates[p].index() as u32;
                fanins
                    .iter()
                    .copied()
                    .find(|&i| csr.net_driver[i as usize] == prev)
            })
            .unwrap_or(fanins[0]);
        nets.push(NetId::from_index(input as usize));
    }
    nets.push(netlist.gate(GateId::from_index(end as usize)).output);
    Path { gates, nets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_cells::CellLibrary;

    fn chain(n: usize) -> Netlist {
        let lib = CellLibrary::standard();
        let inv = lib.find("INVx1").unwrap();
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n {
            let (_, o) = nl.add_gate(format!("u{i}"), inv, &[cur]);
            cur = o;
        }
        nl.mark_output(cur);
        nl
    }

    #[test]
    fn chain_topology() {
        let nl = chain(5);
        let order = topo_order(&nl);
        assert_eq!(order.len(), 5);
        for w in order.windows(2) {
            assert!(w[0].index() < w[1].index(), "chain order is identity");
        }
        assert_eq!(depth(&nl), 5);
    }

    #[test]
    fn diamond_levels() {
        let lib = CellLibrary::standard();
        let inv = lib.find("INVx1").unwrap();
        let nand = lib.find("NAND2x1").unwrap();
        let mut nl = Netlist::new("diamond");
        let a = nl.add_input("a");
        let (_, l) = nl.add_gate("left", inv, &[a]);
        let (_, r1) = nl.add_gate("right1", inv, &[a]);
        let (_, r2) = nl.add_gate("right2", inv, &[r1]);
        let (_, y) = nl.add_gate("join", nand, &[l, r2]);
        nl.mark_output(y);
        let lv = levels(&nl);
        assert_eq!(lv, vec![1, 1, 2, 3]);
        assert_eq!(depth(&nl), 3);
    }

    #[test]
    fn longest_path_takes_heavier_branch() {
        let lib = CellLibrary::standard();
        let inv = lib.find("INVx1").unwrap();
        let nand = lib.find("NAND2x1").unwrap();
        let mut nl = Netlist::new("asym");
        let a = nl.add_input("a");
        let (g_fast, f) = nl.add_gate("fast", inv, &[a]);
        let (_, s1) = nl.add_gate("slow1", inv, &[a]);
        let (g_slow2, s2) = nl.add_gate("slow2", inv, &[s1]);
        let (g_join, y) = nl.add_gate("join", nand, &[f, s2]);
        nl.mark_output(y);

        let p = longest_path_by(&nl, |_| 1.0).unwrap();
        assert_eq!(p.gates.last().copied(), Some(g_join));
        assert!(p.gates.contains(&g_slow2));
        assert!(!p.gates.contains(&g_fast));
        assert_eq!(p.nets.len(), p.gates.len() + 1);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn weighted_path_can_flip_choice() {
        let lib = CellLibrary::standard();
        let inv = lib.find("INVx1").unwrap();
        let nand = lib.find("NAND2x1").unwrap();
        let mut nl = Netlist::new("weights");
        let a = nl.add_input("a");
        let (g_big, f) = nl.add_gate("big", inv, &[a]);
        let (_, s1) = nl.add_gate("s1", inv, &[a]);
        let (_, s2) = nl.add_gate("s2", inv, &[s1]);
        let (_, y) = nl.add_gate("join", nand, &[f, s2]);
        nl.mark_output(y);

        // Make the single "big" gate heavier than the two-stage branch.
        let p = longest_path_by(&nl, |g| if g == g_big { 10.0 } else { 1.0 }).unwrap();
        assert!(p.gates.contains(&g_big));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn k_longest_returns_distinct_ordered_paths() {
        let lib = CellLibrary::standard();
        let inv = lib.find("INVx1").unwrap();
        let nand = lib.find("NAND2x1").unwrap();
        // Two reconvergent branches of different depth into one endpoint.
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let (_, s1) = nl.add_gate("s1", inv, &[a]);
        let (_, s2) = nl.add_gate("s2", inv, &[s1]);
        let (_, s3) = nl.add_gate("s3", inv, &[s2]);
        let (_, f1) = nl.add_gate("f1", inv, &[a]);
        let (_, y) = nl.add_gate("join", nand, &[s3, f1]);
        nl.mark_output(y);

        let paths = k_longest_paths_by(&nl, |_| 1.0, 3);
        assert_eq!(paths.len(), 2, "only two distinct PI→PO routes exist");
        assert_eq!(paths[0].len(), 4); // deep branch + join
        assert_eq!(paths[1].len(), 2); // shallow branch + join
                                       // Heaviest first, and the first is the longest path.
        let single = longest_path_by(&nl, |_| 1.0).unwrap();
        assert_eq!(paths[0], single);
    }

    #[test]
    fn k_longest_on_adder_ranks_by_weight() {
        use crate::generators::arith::ripple_adder;
        use crate::mapping::map_to_cells;
        let lib = CellLibrary::standard();
        let nl = map_to_cells(&ripple_adder(8), &lib).unwrap();
        let paths = k_longest_paths_by(&nl, |_| 1.0, 5);
        assert_eq!(paths.len(), 5);
        for w in paths.windows(2) {
            assert!(w[0].len() >= w[1].len(), "descending weight order");
        }
        // All paths end at primary outputs.
        for p in &paths {
            let last = *p.nets.last().unwrap();
            assert!(nl.outputs().contains(&last));
        }
    }

    /// The sort-based DP the merge replaced, kept as the oracle: each gate
    /// collects its fanin candidates in pin order (PI candidate last),
    /// sorts them stably by descending weight and keeps `k`.
    fn sorted_oracle(nl: &Netlist, weight: impl Fn(GateId) -> f64, k: usize) -> Vec<Path> {
        type Cand = (f64, Option<(GateId, usize)>);
        let mut tops: Vec<Vec<Cand>> = vec![Vec::new(); nl.num_gates()];
        for g in topo_order(nl) {
            let w = weight(g);
            let mut cands: Vec<Cand> = Vec::new();
            let mut from_pi = false;
            for &i in &nl.gate(g).inputs {
                match nl.net(i).driver {
                    NetDriver::Gate(src) => cands.extend(
                        tops[src.index()]
                            .iter()
                            .enumerate()
                            .map(|(rank, &(a, _))| (a + w, Some((src, rank)))),
                    ),
                    NetDriver::PrimaryInput => from_pi = true,
                }
            }
            if from_pi || cands.is_empty() {
                cands.push((w, None));
            }
            cands.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            cands.truncate(k);
            tops[g.index()] = cands;
        }
        let mut drivers: Vec<GateId> = nl
            .outputs()
            .iter()
            .filter_map(|&o| match nl.net(o).driver {
                NetDriver::Gate(g) => Some(g),
                NetDriver::PrimaryInput => None,
            })
            .collect();
        drivers.sort_unstable();
        drivers.dedup();
        let mut ends: Vec<(f64, GateId, usize)> = drivers
            .iter()
            .flat_map(|&g| {
                let row = &tops[g.index()];
                row.iter().enumerate().map(move |(r, &(a, _))| (a, g, r))
            })
            .collect();
        ends.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        ends.truncate(k);
        ends.iter()
            .map(|&(_, end, rank)| {
                let mut gates = vec![end];
                let mut cur = (end, rank);
                while let Some(prev) = tops[cur.0.index()][cur.1].1 {
                    gates.push(prev.0);
                    cur = prev;
                }
                gates.reverse();
                let mut nets: Vec<NetId> = gates
                    .iter()
                    .enumerate()
                    .map(|(idx, &g)| {
                        let inputs = &nl.gate(g).inputs;
                        idx.checked_sub(1)
                            .and_then(|p| {
                                inputs
                                    .iter()
                                    .copied()
                                    .find(|&i| nl.net(i).driver == NetDriver::Gate(gates[p]))
                            })
                            .unwrap_or(inputs[0])
                    })
                    .collect();
                nets.push(nl.gate(end).output);
                Path { gates, nets }
            })
            .collect()
    }

    /// Mapped ISCAS85 and synthetic circuits for the ranking checks.
    fn ranking_designs() -> Vec<Netlist> {
        use crate::generators::random_dag::{synthetic_circuit, Iscas85, SyntheticConfig};
        use crate::mapping::map_to_cells;
        let lib = CellLibrary::standard();
        let mut circuits = vec![Iscas85::C432.generate(), Iscas85::C1355.generate()];
        for (i, (gates, inputs, outputs, depth)) in
            [(60, 6, 4, 5), (150, 12, 8, 9)].into_iter().enumerate()
        {
            circuits.push(synthetic_circuit(&SyntheticConfig {
                name: format!("rank{i}"),
                gates,
                inputs,
                outputs,
                depth,
                seed: 31 + i as u64,
            }));
        }
        circuits
            .iter()
            .map(|c| map_to_cells(c, &lib).unwrap())
            .collect()
    }

    /// Seeded per-gate weights: `ties` rounds them to 0, 1 or 2, so most
    /// merges see equal candidates, PI candidates included (a zero-weight
    /// gate passes its PI candidate's weight on unchanged).
    fn seeded_weights(n: usize, seed: u64, ties: bool) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                if ties {
                    (2.0 * u).round()
                } else {
                    (1.0 + 2.0 * u) * 1e-11
                }
            })
            .collect()
    }

    #[test]
    fn merged_ranking_matches_the_sorted_oracle() {
        for (d, nl) in ranking_designs().iter().enumerate() {
            let csr = NetlistCsr::build(nl);
            let mut scratch = PathScratch::new();
            for ties in [false, true] {
                let w = seeded_weights(nl.num_gates(), 7 + d as u64, ties);
                for k in [1, 2, 3, 8, 20] {
                    let got =
                        k_longest_paths_by_with_csr(nl, &csr, |g| w[g.index()], k, &mut scratch);
                    let want = sorted_oracle(nl, |g| w[g.index()], k);
                    assert_eq!(got, want, "{} k={k} ties={ties}", nl.name());
                }
            }
        }
    }

    #[test]
    fn a_larger_k_ranking_starts_with_the_smaller_one() {
        const BIG: usize = 24;
        for (d, nl) in ranking_designs().iter().enumerate() {
            let csr = NetlistCsr::build(nl);
            let mut scratch = PathScratch::new();
            for ties in [false, true] {
                let w = seeded_weights(nl.num_gates(), 101 + d as u64, ties);
                let weight = |g: GateId| w[g.index()];
                let big = k_longest_paths_by_with_csr(nl, &csr, weight, BIG, &mut scratch);
                for k in 1..BIG {
                    let small = k_longest_paths_by_with_csr(nl, &csr, weight, k, &mut scratch);
                    assert_eq!(
                        small[..],
                        big[..k.min(big.len())],
                        "{} k={k} ties={ties}",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn k_past_the_path_count_returns_every_path_once() {
        let nl = chain(4);
        let paths = k_longest_paths_by(&nl, |_| 1.0, usize::MAX - 1);
        assert_eq!(paths.len(), 1, "a chain has one PI→PO path");
        assert_eq!(paths[0].len(), 4);
    }

    #[test]
    #[should_panic(expected = "finite weights")]
    fn a_non_finite_weight_panics() {
        k_longest_paths_by(&chain(3), |_| f64::NAN, 2);
    }

    #[test]
    fn empty_netlist_has_no_path() {
        let nl = Netlist::new("empty");
        assert!(longest_path_by(&nl, |_| 1.0).is_none());
        assert_eq!(depth(&nl), 0);
    }
}
