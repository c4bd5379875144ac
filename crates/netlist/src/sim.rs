//! Levelized boolean simulation of mapped netlists.
//!
//! The timing substrate never needs logic values, but the circuit
//! *generators* do: this simulator proves that the adders actually add and
//! the multipliers multiply, so the benchmark suite's structures are real
//! datapaths rather than plausible-looking DAGs.

use crate::ir::{NetDriver, Netlist};
use crate::topo::topo_order;
use nsigma_cells::{CellKind, CellLibrary};

/// Evaluates one cell's boolean function.
///
/// Pin order follows the library convention (`A1`, `A2`, `B` = `A3`):
///
/// | kind | function |
/// |---|---|
/// | INV | `!a1` |
/// | BUF | `a1` |
/// | NAND2 | `!(a1 & a2)` |
/// | NOR2 | `!(a1 \| a2)` |
/// | AOI21 | `!((a1 & a2) \| a3)` |
/// | OAI21 | `!((a1 \| a2) & a3)` |
/// | XOR2 | `a1 ^ a2` |
///
/// # Panics
///
/// Panics if the input count does not match the kind.
fn cell_function(kind: CellKind, inputs: &[bool]) -> bool {
    assert_eq!(
        inputs.len(),
        kind.num_inputs(),
        "{} takes {} inputs",
        kind.prefix(),
        kind.num_inputs()
    );
    match kind {
        CellKind::Inv => !inputs[0],
        CellKind::Buf => inputs[0],
        CellKind::Nand2 => !(inputs[0] && inputs[1]),
        CellKind::Nor2 => !(inputs[0] || inputs[1]),
        CellKind::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
        CellKind::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
        CellKind::Xor2 => inputs[0] ^ inputs[1],
    }
}

/// Simulates a netlist for one input vector (`pi_values` in
/// `netlist.inputs()` order); returns the primary outputs in
/// `netlist.outputs()` order.
///
/// # Panics
///
/// Panics if `pi_values.len()` differs from the PI count or a primary
/// output is directly driven by a primary input (no gate to evaluate is
/// fine — the PI value passes through).
pub fn evaluate(netlist: &Netlist, lib: &CellLibrary, pi_values: &[bool]) -> Vec<bool> {
    assert_eq!(
        pi_values.len(),
        netlist.inputs().len(),
        "one value per primary input"
    );
    let mut value = vec![false; netlist.num_nets()];
    for (&net, &v) in netlist.inputs().iter().zip(pi_values) {
        value[net.index()] = v;
    }
    for g in topo_order(netlist) {
        let gate = netlist.gate(g);
        let ins: Vec<bool> = gate.inputs.iter().map(|&i| value[i.index()]).collect();
        let kind = lib.cell(gate.cell).kind();
        value[gate.output.index()] = cell_function(kind, &ins);
    }
    netlist
        .outputs()
        .iter()
        .map(|&o| match netlist.net(o).driver {
            NetDriver::Gate(_) | NetDriver::PrimaryInput => value[o.index()],
        })
        .collect()
}

/// Convenience: evaluates with integer operand packing. `operands` maps a
/// PI-name prefix (e.g. `"a"`) to a little-endian value; unlisted inputs
/// (like `cin`/`one`) get explicit single-bit entries by full name.
///
/// # Panics
///
/// Panics if an input name matches no operand entry.
pub fn evaluate_packed(
    netlist: &Netlist,
    lib: &CellLibrary,
    operands: &[(&str, u64)],
) -> Vec<bool> {
    let pi_values: Vec<bool> = netlist
        .inputs()
        .iter()
        .map(|&n| {
            let name = &netlist.net(n).name;
            // Exact-name single-bit entries first (cin, one, ...).
            if let Some(&(_, v)) = operands.iter().find(|(k, _)| k == name) {
                return v & 1 == 1;
            }
            // Prefix + bit index.
            for &(prefix, v) in operands {
                if let Some(idx) = name.strip_prefix(prefix) {
                    if let Ok(bit) = idx.parse::<u32>() {
                        return (v >> bit) & 1 == 1;
                    }
                }
            }
            panic!("no operand covers primary input '{name}'");
        })
        .collect();
    evaluate(netlist, lib, &pi_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::arith::{array_multiplier, ripple_adder, ripple_subtractor};
    use crate::generators::arith_fast::{cla_adder, wallace_multiplier};
    use crate::mapping::map_to_cells;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn lib() -> CellLibrary {
        CellLibrary::standard()
    }

    #[test]
    fn cell_functions_truth_tables() {
        assert!(cell_function(CellKind::Inv, &[false]));
        assert!(!cell_function(CellKind::Inv, &[true]));
        assert!(cell_function(CellKind::Nand2, &[true, false]));
        assert!(!cell_function(CellKind::Nand2, &[true, true]));
        assert!(cell_function(CellKind::Nor2, &[false, false]));
        assert!(!cell_function(CellKind::Nor2, &[true, false]));
        assert!(cell_function(CellKind::Xor2, &[true, false]));
        assert!(!cell_function(CellKind::Xor2, &[true, true]));
        // AOI21: !((a&b)|c)
        assert!(!cell_function(CellKind::Aoi21, &[true, true, false]));
        assert!(cell_function(CellKind::Aoi21, &[true, false, false]));
        // OAI21: !((a|b)&c)
        assert!(!cell_function(CellKind::Oai21, &[true, false, true]));
        assert!(cell_function(CellKind::Oai21, &[false, false, true]));
    }

    #[test]
    fn ripple_adder_adds() {
        let lib = lib();
        let nl = map_to_cells(&ripple_adder(8), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let a: u64 = rng.gen_range(0..256);
            let b: u64 = rng.gen_range(0..256);
            let cin: u64 = rng.gen_range(0..2);
            let out = evaluate_packed(&nl, &lib, &[("cin", cin), ("a", a), ("b", b)]);
            // Sums are the first 8 outputs, the carry the 9th.
            let mut s = 0u64;
            for (bit, &v) in out.iter().take(8).enumerate() {
                if v {
                    s |= 1 << bit;
                }
            }
            let carry = out[8] as u64;
            let expect = a + b + cin;
            assert_eq!(s | (carry << 8), expect, "a={a} b={b} cin={cin}");
        }
    }

    #[test]
    fn cla_matches_ripple() {
        let lib = lib();
        let cla = map_to_cells(&cla_adder(8), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let a: u64 = rng.gen_range(0..256);
            let b: u64 = rng.gen_range(0..256);
            let cin: u64 = rng.gen_range(0..2);
            let out = evaluate_packed(&cla, &lib, &[("cin", cin), ("a", a), ("b", b)]);
            let mut s = 0u64;
            for (bit, &v) in out.iter().take(8).enumerate() {
                if v {
                    s |= 1 << bit;
                }
            }
            let carry = out[8] as u64;
            assert_eq!(s | (carry << 8), a + b + cin, "a={a} b={b} cin={cin}");
        }
    }

    #[test]
    fn subtractor_subtracts() {
        let lib = lib();
        let nl = map_to_cells(&ripple_subtractor(8), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let a: u64 = rng.gen_range(0..256);
            let b: u64 = rng.gen_range(0..256);
            let out = evaluate_packed(&nl, &lib, &[("one", 1), ("a", a), ("b", b)]);
            let mut d = 0u64;
            for (bit, &v) in out.iter().take(8).enumerate() {
                if v {
                    d |= 1 << bit;
                }
            }
            assert_eq!(d, a.wrapping_sub(b) & 0xFF, "a={a} b={b}");
        }
    }

    #[test]
    fn array_multiplier_multiplies() {
        let lib = lib();
        let nl = map_to_cells(&array_multiplier(6), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..40 {
            let a: u64 = rng.gen_range(0..64);
            let b: u64 = rng.gen_range(0..64);
            let out = evaluate_packed(&nl, &lib, &[("a", a), ("b", b)]);
            let mut p = 0u64;
            for (bit, &v) in out.iter().take(12).enumerate() {
                if v {
                    p |= 1 << bit;
                }
            }
            assert_eq!(p, a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn wallace_multiplier_multiplies() {
        let lib = lib();
        let nl = map_to_cells(&wallace_multiplier(6), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let a: u64 = rng.gen_range(0..64);
            let b: u64 = rng.gen_range(0..64);
            let out = evaluate_packed(&nl, &lib, &[("a", a), ("b", b)]);
            let mut p = 0u64;
            for (bit, &v) in out.iter().take(12).enumerate() {
                if v {
                    p |= 1 << bit;
                }
            }
            assert_eq!(p, a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn divider_divides() {
        use crate::generators::arith::restoring_divider;
        let lib = lib();
        let nl = map_to_cells(&restoring_divider(6), &lib).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..40 {
            let a: u64 = rng.gen_range(0..64);
            let d: u64 = rng.gen_range(1..64);
            let out = evaluate_packed(&nl, &lib, &[("one", 1), ("a", a), ("d", d)]);
            // Outputs: q0..q5 then r0..r5.
            let (mut q, mut r) = (0u64, 0u64);
            for (bit, &v) in out.iter().take(6).enumerate() {
                if v {
                    q |= 1 << bit;
                }
            }
            for (bit, &v) in out.iter().skip(6).take(6).enumerate() {
                if v {
                    r |= 1 << bit;
                }
            }
            assert_eq!(q, a / d, "a={a} d={d} (q)");
            assert_eq!(r, a % d, "a={a} d={d} (r)");
        }
    }

    #[test]
    #[should_panic(expected = "no operand covers")]
    fn missing_operand_panics() {
        let lib = lib();
        let nl = map_to_cells(&ripple_adder(2), &lib).unwrap();
        evaluate_packed(&nl, &lib, &[("a", 1)]);
    }
}
