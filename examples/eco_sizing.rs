//! ECO gate-sizing walkthrough with an N-sigma timing session: fix a
//! +3σ timing violation by upsizing cells on the critical path, re-analyzing
//! only the affected cone after each edit — the gate-sizing context the
//! paper's correction-factor citation [8] lives in.
//!
//! Run with: `cargo run --release -p nsigma --example eco_sizing`

use nsigma::cells::cell::{Cell, CellKind};
use nsigma::cells::CellLibrary;
use nsigma::core::session::TimingSession;
use nsigma::core::sta::{NsigmaTimer, TimerConfig};
use nsigma::core::stat_max::MergeRule;
use nsigma::mc::design::Design;
use nsigma::mc::path_sim::find_critical_path;
use nsigma::netlist::generators::arith::ripple_adder;
use nsigma::netlist::mapping::map_to_cells;
use nsigma::process::Technology;
use nsigma::stats::quantile::SigmaLevel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::synthetic_28nm();
    let mut lib = CellLibrary::new();
    for kind in [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Xor2,
    ] {
        for s in [1, 2, 4, 8] {
            lib.add(Cell::new(kind, s));
        }
    }
    let netlist = map_to_cells(&ripple_adder(12), &lib)?;
    let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 0xEC0);
    let total_gates = design.netlist.num_gates();

    println!("building N-sigma timer...");
    let mut cfg = TimerConfig::standard(0xEC0);
    cfg.char_samples = 2000;
    let timer = NsigmaTimer::build(&tech, &lib, &cfg)?;

    // Critical path before any edit.
    let path = find_critical_path(&design).expect("path");
    let mut inc = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;
    let before = inc.analyze_design();
    println!(
        "\ninitial worst +3σ arrival: {:.1} ps ({} gates, {}-stage critical path)",
        before[SigmaLevel::PlusThree] * 1e12,
        total_gates,
        path.len()
    );

    // Sign-off target: 10% under the current +3σ.
    let target = before[SigmaLevel::PlusThree] * 0.90;
    println!("ECO target: {:.1} ps (+3σ)", target * 1e12);

    // Greedy sizing: walk the critical path from the endpoint backwards,
    // upsizing x1/x2 cells to x4, until the target holds.
    let mut edits = 0;
    let mut touched = 0;
    for &g in path.gates.iter().rev() {
        let current = inc.analyze_design()[SigmaLevel::PlusThree];
        if current <= target {
            break;
        }
        let strength = {
            let d = inc.design();
            d.lib.cell(d.netlist.gate(g).cell).strength()
        };
        if strength >= 8 {
            continue;
        }
        let new_strength = (strength * 2).min(8);
        let after = inc.resize_gate(g, new_strength)?;
        edits += 1;
        touched += inc.last_recompute_count();
        println!(
            "  upsized {} x{} -> x{}: +3σ now {:.1} ps (recomputed {} of {} gates)",
            inc.design().netlist.gate(g).name,
            strength,
            new_strength,
            after[SigmaLevel::PlusThree] * 1e12,
            inc.last_recompute_count(),
            total_gates
        );
    }

    let after = inc.analyze_design();
    println!(
        "\n{} edits, {} cone re-evaluations total (vs {} full re-analyses = {} gate visits)",
        edits,
        touched,
        edits,
        edits * total_gates
    );
    println!(
        "final +3σ: {:.1} ps ({}target {:.1} ps)",
        after[SigmaLevel::PlusThree] * 1e12,
        if after[SigmaLevel::PlusThree] <= target {
            "meets "
        } else {
            "missed "
        },
        target * 1e12
    );
    Ok(())
}
