//! Cross-crate integration: substrate pieces composed in ways no single
//! crate's unit tests cover (SPEF round trips through designs, .bench
//! through the golden simulator, baselines over generated benchmarks).

use nsigma::baselines::cell_fit::{burr_quantiles, lsn_quantiles};
use nsigma::cells::cell::{Cell, CellKind};
use nsigma::cells::timing::sample_arc;
use nsigma::cells::CellLibrary;
use nsigma::interconnect::spef::{parse as parse_spef, write as write_spef, SpefNet};
use nsigma::mc::design::Design;
use nsigma::mc::path_sim::{find_critical_path, simulate_path_mc, PathMcConfig};
use nsigma::mc::CircuitPlan;
use nsigma::netlist::bench_format;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::netlist::mapping::map_to_cells;
use nsigma::netlist::topo::NetlistCsr;
use nsigma::process::{Technology, VariationModel};
use nsigma::stats::par;
use nsigma::stats::quantile::{QuantileSet, SigmaLevel};
use nsigma::stats::rng::SeedStream;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn bench_text_to_golden_mc() {
    // .bench text → logic → mapped netlist → design → golden MC.
    let text = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
w1 = NAND(a, b)\nw2 = XOR(w1, c)\nw3 = NOR(w2, a)\ny = NOT(w3)\n";
    let logic = bench_format::parse("mini", text).expect("parses");
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&logic, &lib).expect("maps");
    let design = Design::with_generated_parasitics(Technology::synthetic_28nm(), lib, netlist, 77);
    let path = find_critical_path(&design).expect("path");
    let r = simulate_path_mc(
        &design,
        &path,
        &PathMcConfig {
            samples: 500,
            seed: 1,
            input_slew: 10e-12,
        },
    );
    assert!(r.moments.mean > 0.0);
    assert!(r.quantiles.is_monotone());
}

#[test]
fn design_parasitics_survive_spef_round_trip() {
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&Iscas85::C432.generate(), &lib).expect("maps");
    let design = Design::with_generated_parasitics(Technology::synthetic_28nm(), lib, netlist, 3);

    // Export every net's parasitics to SPEF-lite and read them back.
    let nets: Vec<SpefNet> = design
        .netlist
        .net_ids()
        .filter_map(|n| {
            design.parasitic(n).map(|tree| SpefNet {
                name: design.netlist.net(n).name.clone(),
                tree: tree.clone(),
            })
        })
        .collect();
    assert!(
        nets.len() > 500,
        "c432 has many routed nets: {}",
        nets.len()
    );
    let text = write_spef(&nets);
    let parsed = parse_spef(&text).expect("SPEF parses back");
    assert_eq!(parsed, nets);
}

/// Mean worst-PO arrival over `samples` whole-circuit trials: the golden
/// [`CircuitPlan::trial`] walk the yield engine runs, trial `t` seeded by
/// `tagged_seed(t)` like path MC.
fn circuit_mc_mean(design: &Design, cfg: &PathMcConfig) -> f64 {
    let csr = NetlistCsr::build(&design.netlist);
    let plan = CircuitPlan::new(design, &csr, cfg.input_slew);
    let seeds = SeedStream::new(cfg.seed);
    let mut delays = vec![0.0; cfg.samples];
    let mut scratches: Vec<_> = (0..par::host_threads()).map(|_| plan.scratch()).collect();
    par::fill(&mut delays, 1, &mut scratches, |t, scratch, out| {
        let mut rng = SmallRng::seed_from_u64(seeds.tagged_seed(t as u64));
        let global = plan.variation().sample_global(&mut rng);
        out[0] = plan.trial(&global, scratch, &mut rng);
    })
    .expect("no trial panics");
    delays.iter().sum::<f64>() / delays.len() as f64
}

#[test]
fn circuit_mc_bounds_path_mc_on_a_benchmark() {
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&Iscas85::C432.generate(), &lib).expect("maps");
    let design = Design::with_generated_parasitics(Technology::synthetic_28nm(), lib, netlist, 4);
    let cfg = PathMcConfig {
        samples: 300,
        seed: 6,
        input_slew: 10e-12,
    };
    let path = find_critical_path(&design).expect("path");
    let path_mc = simulate_path_mc(&design, &path, &cfg);
    let circuit_mean = circuit_mc_mean(&design, &cfg);
    assert!(
        circuit_mean >= path_mc.moments.mean * 0.9,
        "max over POs {:.1} ps should not fall far below the nominal critical path {:.1} ps",
        circuit_mean * 1e12,
        path_mc.moments.mean * 1e12
    );
}

#[test]
fn table_ii_ordering_holds_cross_crate() {
    // N-sigma (empirical quantiles here) ≤ LSN ≤ Burr at the +3σ tail, on a
    // cell none of those crates generated themselves.
    let tech = Technology::synthetic_28nm();
    let variation = VariationModel::new(&tech);
    let cell = Cell::new(CellKind::Oai21, 2);
    let mut rng = SmallRng::seed_from_u64(99);
    let load = 4.0 * cell.input_cap(&tech);
    let xs: Vec<f64> = (0..8000)
        .map(|_| {
            let g = variation.sample_global(&mut rng);
            sample_arc(&tech, &variation, &cell, 10e-12, load, &g, &mut rng).delay
        })
        .collect();
    let golden = QuantileSet::from_samples(&xs);
    let lsn = lsn_quantiles(&xs).expect("lsn");
    let burr = burr_quantiles(&xs).expect("burr");
    let e = |q: &QuantileSet| {
        ((q[SigmaLevel::PlusThree] - golden[SigmaLevel::PlusThree]) / golden[SigmaLevel::PlusThree])
            .abs()
    };
    assert!(
        e(&lsn) <= e(&burr),
        "LSN {:.3} should fit at least as well as Burr {:.3}",
        e(&lsn),
        e(&burr)
    );
}

#[test]
fn pulpino_unit_depths_are_ordered() {
    use nsigma::netlist::generators::arith::{array_multiplier, restoring_divider, ripple_adder};
    use nsigma::netlist::topo::depth;
    let lib = CellLibrary::standard();
    let add = map_to_cells(&ripple_adder(16), &lib).expect("add");
    let mul = map_to_cells(&array_multiplier(8), &lib).expect("mul");
    let div = map_to_cells(&restoring_divider(8), &lib).expect("div");
    // DIV is the deepest, as in the paper's runtime/delay ordering.
    assert!(depth(&div) > depth(&mul));
    assert!(depth(&mul) > depth(&add) / 2);
}
