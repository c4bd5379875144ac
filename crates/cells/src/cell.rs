//! Standard-cell descriptions: logic kind, drive strength and the transistor
//! topology that drives the statistical timing behaviour.

use nsigma_process::{Stack, Technology};

/// The logic function families of the synthetic library.
///
/// These match the cells evaluated in the paper's Table II (NOR2, NAND2,
/// AOI21) plus the inverters/buffers every netlist needs and XOR2 for the
/// arithmetic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (two internal stages).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-1 AND-OR-invert (the paper's "AOI2").
    Aoi21,
    /// 2-1 OR-AND-invert.
    Oai21,
    /// 2-input XOR (two internal stages).
    Xor2,
}

impl CellKind {
    /// All kinds in the library, in a stable order.
    pub const ALL: [CellKind; 7] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Xor2,
    ];

    /// Library name prefix (e.g. `NAND2`).
    pub fn prefix(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Aoi21 => "AOI2",
            CellKind::Oai21 => "OAI2",
            CellKind::Xor2 => "XOR2",
        }
    }

    /// Number of input pins.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::Xor2 => 2,
            CellKind::Aoi21 | CellKind::Oai21 => 3,
        }
    }

    /// Depth of the worst-case (series) transistor stack — the paper's
    /// "number of stacked transistors" `n` in eq. (5).
    pub fn stack_depth(self) -> u32 {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::Xor2 => 2,
            CellKind::Aoi21 | CellKind::Oai21 => 2,
        }
    }

    /// Series-stack depths of the (pull-down, pull-up) networks. A NAND
    /// stacks its NMOS (falling arc), a NOR its PMOS (rising arc); the
    /// complex gates stack both.
    fn arc_depths(self) -> (u32, u32) {
        match self {
            CellKind::Inv | CellKind::Buf => (1, 1),
            CellKind::Nand2 => (2, 1),
            CellKind::Nor2 => (1, 2),
            CellKind::Aoi21 | CellKind::Oai21 | CellKind::Xor2 => (2, 2),
        }
    }

    /// Internal switching stages (BUF and XOR2 are two cascaded stages).
    pub fn stages(self) -> u32 {
        match self {
            CellKind::Buf | CellKind::Xor2 => 2,
            _ => 1,
        }
    }

    /// Multiplier on the output-node parasitic relative to an inverter of
    /// the same strength (wider cells hang more junctions on the output).
    fn parasitic_factor(self) -> f64 {
        match self {
            CellKind::Inv | CellKind::Buf => 1.0,
            CellKind::Nand2 | CellKind::Nor2 => 1.4,
            CellKind::Aoi21 | CellKind::Oai21 => 1.8,
            CellKind::Xor2 => 1.6,
        }
    }

    /// Multiplier on per-pin input capacitance relative to an inverter of
    /// the same strength.
    fn input_cap_factor(self) -> f64 {
        match self {
            CellKind::Inv | CellKind::Buf => 1.0,
            CellKind::Nand2 | CellKind::Nor2 => 1.1,
            CellKind::Aoi21 | CellKind::Oai21 => 1.2,
            CellKind::Xor2 => 1.5,
        }
    }
}

/// A concrete library cell: a [`CellKind`] at a drive strength.
///
/// # Examples
///
/// ```
/// use nsigma_cells::cell::{Cell, CellKind};
///
/// let c = Cell::new(CellKind::Nand2, 4);
/// assert_eq!(c.name(), "NAND2x4");
/// assert_eq!(c.strength(), 4);
/// assert_eq!(c.kind().stack_depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    kind: CellKind,
    strength: u32,
    name: String,
}

impl Cell {
    /// Creates a cell of the given kind and strength (width multiple).
    ///
    /// # Panics
    ///
    /// Panics if `strength == 0`.
    pub fn new(kind: CellKind, strength: u32) -> Self {
        assert!(strength > 0, "cell strength must be at least 1");
        Self {
            kind,
            strength,
            name: format!("{}x{}", kind.prefix(), strength),
        }
    }

    /// Library name, e.g. `"NOR2x8"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The logic kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Drive strength (width multiple: 1, 2, 4, 8 in the standard library).
    pub fn strength(&self) -> u32 {
        self.strength
    }

    /// The worst-case timing arc's transistor stack.
    ///
    /// Standard cells upsize stacked devices to balance the arcs, so a
    /// depth-`d` stack carries `d×` width: the nominal drive matches an
    /// inverter of the same strength while the Pelgrom mismatch still
    /// averages over the stack.
    pub fn worst_stack(&self) -> Stack {
        let d = self.kind.stack_depth();
        Stack::new(d, (d * self.strength) as f64)
    }

    /// Both timing arcs' stacks, `(pull_down, pull_up)`, balanced-sized.
    pub fn arc_stacks(&self) -> (Stack, Stack) {
        let (pd, pu) = self.kind.arc_depths();
        (
            Stack::new(pd, (pd * self.strength) as f64),
            Stack::new(pu, (pu * self.strength) as f64),
        )
    }

    /// Input capacitance of one pin (F).
    pub fn input_cap(&self, tech: &Technology) -> f64 {
        tech.gate_cap(self.strength as f64) * self.kind.input_cap_factor()
    }

    /// Parasitic capacitance the cell contributes to its own output node (F).
    pub fn output_parasitic(&self, tech: &Technology) -> f64 {
        tech.drain_cap(self.strength as f64) * self.kind.parasitic_factor()
    }

    /// Nominal (no-variation) drive resistance of the worst arc (Ω):
    /// `V_dd / (2·I_on)`.
    pub fn drive_resistance(&self, tech: &Technology) -> f64 {
        let i = self.worst_stack().drive_current(tech, 0.0, 1.0);
        tech.vdd / (2.0 * i)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_library_convention() {
        assert_eq!(Cell::new(CellKind::Inv, 1).name(), "INVx1");
        assert_eq!(Cell::new(CellKind::Aoi21, 8).name(), "AOI2x8");
        assert_eq!(Cell::new(CellKind::Nor2, 2).to_string(), "NOR2x2");
    }

    #[test]
    fn stronger_cells_drive_harder_and_load_more() {
        let t = Technology::synthetic_28nm();
        let x1 = Cell::new(CellKind::Inv, 1);
        let x4 = Cell::new(CellKind::Inv, 4);
        assert!(x4.drive_resistance(&t) < x1.drive_resistance(&t));
        assert!((x1.drive_resistance(&t) / x4.drive_resistance(&t) - 4.0).abs() < 1e-9);
        assert!(x4.input_cap(&t) > x1.input_cap(&t));
    }

    #[test]
    fn balanced_sizing_matches_inverter_drive_but_averages_mismatch() {
        let t = Technology::synthetic_28nm();
        let inv = Cell::new(CellKind::Inv, 2);
        let nand = Cell::new(CellKind::Nand2, 2);
        // Balanced stacks drive like the same-strength inverter…
        assert!((nand.drive_resistance(&t) / inv.drive_resistance(&t) - 1.0).abs() < 1e-9);
        // …and their effective mismatch is smaller (wider devices + stack
        // averaging), the Pelgrom behaviour eq. (5) builds on.
        assert!(
            nand.worst_stack().effective_local_sigma(&t)
                < inv.worst_stack().effective_local_sigma(&t)
        );
        // But they load the output with more parasitic junctions.
        assert!(nand.output_parasitic(&t) > inv.output_parasitic(&t));
    }

    #[test]
    fn stack_depth_matches_paper_n() {
        assert_eq!(CellKind::Inv.stack_depth(), 1);
        assert_eq!(CellKind::Nand2.stack_depth(), 2);
        assert_eq!(CellKind::Aoi21.stack_depth(), 2);
    }

    #[test]
    #[should_panic(expected = "strength must be at least 1")]
    fn zero_strength_rejected() {
        Cell::new(CellKind::Inv, 0);
    }
}
