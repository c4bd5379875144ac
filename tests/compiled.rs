//! Differential-equivalence suite for the session query engine: every
//! query the server or CLI can issue must produce bit-identical answers
//! whether it runs through the production [`TimingSession`] (interned/CSR
//! compiled graph) or the legacy string-keyed oracle in
//! [`nsigma_core::reference`] — across generator-driven random circuits,
//! both merge rules, early mode, and ECO resize sequences — and stays
//! bit-identical when eight threads query one session at once.

use nsigma_cells::CellLibrary;
use nsigma_core::sta::TimerConfig;
use nsigma_core::{reference, MergeRule, NsigmaTimer, TimingSession};
use nsigma_mc::design::Design;
use nsigma_mc::path_sim::find_critical_path;
use nsigma_netlist::generators::random_dag::{synthetic_circuit, Iscas85, SyntheticConfig};
use nsigma_netlist::logic::LogicCircuit;
use nsigma_netlist::mapping::map_to_cells;
use nsigma_netlist::{k_longest_paths_by, GateId, Path};
use nsigma_process::Technology;
use nsigma_stats::quantile::QuantileSet;

const SEED: u64 = 11;
const PARASITIC_SEED: u64 = 7;

fn timer_config() -> TimerConfig {
    let mut cfg = TimerConfig::standard(SEED);
    cfg.char_samples = 300;
    cfg.wire.nets = 1;
    cfg.wire.samples = 200;
    cfg
}

fn build_timer(tech: &Technology, lib: &CellLibrary) -> NsigmaTimer {
    NsigmaTimer::build(tech, lib, &timer_config()).expect("timer build")
}

fn design_of(tech: &Technology, lib: &CellLibrary, circuit: &LogicCircuit, seed: u64) -> Design {
    let netlist = map_to_cells(circuit, lib).expect("mapping");
    Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, seed)
}

fn c432_design(tech: &Technology, lib: &CellLibrary) -> Design {
    design_of(tech, lib, &Iscas85::C432.generate(), PARASITIC_SEED)
}

/// Random circuits for the differential sweep: several shapes and seeds
/// from the synthetic-DAG generator, plus a real ISCAS85 benchmark.
fn generated_designs(tech: &Technology, lib: &CellLibrary) -> Vec<Design> {
    let mut designs = vec![c432_design(tech, lib)];
    for (i, (gates, inputs, outputs, depth)) in [(80, 8, 6, 6), (120, 12, 8, 8), (200, 16, 10, 10)]
        .into_iter()
        .enumerate()
    {
        let seed = 100 + 37 * i as u64;
        let circuit = synthetic_circuit(&SyntheticConfig {
            name: format!("rand{i}"),
            gates,
            inputs,
            outputs,
            depth,
            seed,
        });
        designs.push(design_of(tech, lib, &circuit, seed ^ 0x5a));
    }
    designs
}

/// The session's critical path (from the compiled critical weights) must
/// be the path `find_critical_path` picks on the session's design, and its
/// quantiles must equal the string-keyed oracle's on the twin design.
fn assert_critical_path_matches(
    timer: &NsigmaTimer,
    session: &TimingSession<&NsigmaTimer>,
    twin: &Design,
    what: &str,
) {
    let (path, timing) = session.critical_path().expect("critical path");
    let expected = find_critical_path(session.design()).expect("critical path");
    assert_eq!(path.gates, expected.gates, "{what}: critical path gates");
    assert_eq!(path.nets, expected.nets, "{what}: critical path nets");
    let (_, oracle) = reference::analyze_critical_path(timer, twin).expect("path");
    assert_bits_eq(
        &oracle.quantiles,
        &timing.quantiles,
        &format!("{what}: critical path quantiles"),
    );
}

fn assert_bits_eq(a: &QuantileSet, b: &QuantileSet, what: &str) {
    for (i, (x, y)) in a.as_array().iter().zip(b.as_array()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: quantile {i} differs ({x} vs {y})"
        );
    }
}

/// The legacy worst-path ranking, inlined exactly as the pre-compiled
/// server and `report_worst_paths` computed it.
fn legacy_ranked_paths(design: &Design, k: usize) -> Vec<Path> {
    let weights: Vec<f64> = design
        .netlist
        .gate_ids()
        .map(|g| {
            let gate = design.netlist.gate(g);
            let cell = design.lib.cell(gate.cell);
            nsigma_cells::timing::nominal_arc(
                &design.tech,
                cell,
                20e-12,
                design.stage_effective_load(gate.output),
            )
            .delay
        })
        .collect();
    k_longest_paths_by(&design.netlist, |g| weights[g.index()], k)
}

#[test]
fn generated_designs_match_reference_bit_for_bit() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = build_timer(&tech, &lib);

    for design in generated_designs(&tech, &lib) {
        let name = design.netlist.name().to_string();
        for rule in [MergeRule::Pessimistic, MergeRule::Clark { rho: 0.3 }] {
            let session = TimingSession::new(&timer, design.clone(), rule).expect("session build");
            let oracle = reference::analyze_design_with(&timer, &design, rule);
            assert_bits_eq(
                &oracle,
                &session.analyze_design(),
                &format!("{name}: analyze_design {rule:?}"),
            );
            assert_bits_eq(
                &reference::analyze_design_early(&timer, &design),
                &session.analyze_design_early(),
                &format!("{name}: analyze_design_early {rule:?}"),
            );
        }
    }
}

#[test]
fn generated_paths_match_reference_bit_for_bit() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = build_timer(&tech, &lib);

    for design in generated_designs(&tech, &lib) {
        let name = design.netlist.name().to_string();
        let session = TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic)
            .expect("session build");

        for path in legacy_ranked_paths(&design, 5) {
            let oracle = reference::analyze_path(&timer, &design, &path);
            let fast = session.analyze_path(&path).expect("in-design path");
            assert_bits_eq(
                &oracle.quantiles,
                &fast.quantiles,
                &format!("{name}: analyze_path total"),
            );
            assert_eq!(oracle.stages.len(), fast.stages.len());
            for (ls, fs) in oracle.stages.iter().zip(&fast.stages) {
                assert_eq!(ls.gate, fs.gate);
                assert_eq!(ls.cell, fs.cell);
                assert_eq!(ls.input_slew.to_bits(), fs.input_slew.to_bits());
                assert_bits_eq(&ls.cell_quantiles, &fs.cell_quantiles, "stage cell");
                assert_bits_eq(&ls.wire_quantiles, &fs.wire_quantiles, "stage wire");
            }
        }
    }
}

#[test]
fn worst_paths_ranking_matches_legacy() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = build_timer(&tech, &lib);
    let design = c432_design(&tech, &lib);
    let session =
        TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).expect("session build");

    let legacy = legacy_ranked_paths(&design, 8);
    let fast = session.worst_paths(8);
    assert_eq!(legacy.len(), fast.len());
    for (lp, fp) in legacy.iter().zip(&fast) {
        assert_eq!(lp.gates, fp.gates, "path gate sequence differs");
        assert_eq!(lp.nets, fp.nets, "path net sequence differs");
    }
    // A second identical query answers from the held list, unchanged.
    let again = session.worst_paths(8);
    for (fp, ap) in fast.iter().zip(&again) {
        assert_eq!(fp.gates, ap.gates);
    }
}

/// Deterministic xorshift64 stream for the seeded resize sequences.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

const RESIZE_STEPS: usize = 100;

/// A circuit small enough to have fewer PI→PO paths than the ranked reads
/// of the resize sequences ask for.
fn few_path_design(tech: &Technology, lib: &CellLibrary) -> Design {
    let circuit = synthetic_circuit(&SyntheticConfig {
        name: "few_paths".to_string(),
        gates: 5,
        inputs: 2,
        outputs: 1,
        depth: 3,
        seed: 3,
    });
    design_of(tech, lib, &circuit, 5)
}

/// Ranked reads between two edits, each checked against a fresh ranking
/// of the twin design at the asked `k`: a first read at `a` (it ranks),
/// one at `b > a` (it must rank again), a `path_by_rank` and one more
/// read, both at seeded ranks in 1–8.
fn assert_ranked_reads_match(
    session: &TimingSession<&NsigmaTimer>,
    twin: &Design,
    rng: &mut XorShift,
    what: &str,
) {
    let a = 1 + rng.next() as usize % 7;
    let b = a + 1 + rng.next() as usize % (8 - a);
    let c = 1 + rng.next() as usize % 8;
    for k in [a, b, c] {
        let oracle = legacy_ranked_paths(twin, k);
        assert_eq!(session.worst_paths(k), oracle, "{what}: worst_paths({k})");
    }
    let rank = rng.next() as usize % 8;
    let oracle = legacy_ranked_paths(twin, rank + 1);
    match session.path_by_rank(rank) {
        Ok((path, _)) => assert_eq!(Some(&path), oracle.get(rank), "{what}: rank {rank}"),
        Err(e) => assert!(oracle.len() <= rank, "{what}: rank {rank}: {e}"),
    }
}

/// Seeded random resizes under both merge rules. After every step the
/// session's incremental state must equal a full re-analysis bit for bit:
/// the returned and reported worst outputs against the string-keyed
/// oracle on a twin design, and every net's arrival (all seven levels)
/// against a fresh session built on that twin. Between resizes, ranked
/// reads at mixed `k` must equal a fresh ranking of the twin, including
/// on a design with fewer paths than they ask for.
#[test]
fn resize_sequences_match_reference_full_reanalysis() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = build_timer(&tech, &lib);
    let few_paths = few_path_design(&tech, &lib);
    let few = legacy_ranked_paths(&few_paths, 64).len();
    assert!(
        (2..8).contains(&few),
        "the small design has {few} paths; the reads must ask for more"
    );
    let mut designs = generated_designs(&tech, &lib);
    designs.push(few_paths);

    for design in designs {
        for rule in [MergeRule::Pessimistic, MergeRule::Clark { rho: 0.3 }] {
            let name = format!("{} {rule:?}", design.netlist.name());
            let mut twin = design.clone();
            let mut session =
                TimingSession::new(&timer, design.clone(), rule).expect("session build");
            assert_bits_eq(
                &reference::analyze_design_with(&timer, &twin, rule),
                &session.analyze_design(),
                &format!("{name}: initial full analysis"),
            );
            assert_critical_path_matches(&timer, &session, &twin, &format!("{name}: initial"));

            let total_gates = twin.netlist.num_gates();
            let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
            for step in 0..RESIZE_STEPS {
                let gate = GateId::from_index(rng.next() as usize % total_gates);
                let strength = [1u32, 2, 4, 8][rng.next() as usize % 4];
                let kind = twin.lib.cell(twin.netlist.gate(gate).cell).kind();
                let cell = twin
                    .lib
                    .find_kind(kind, strength)
                    .expect("standard strength");
                twin.replace_gate_cell(gate, cell);
                let what = format!("{name}: after resize {step}");

                let returned = session.resize_gate(gate, strength).expect("resize");
                let oracle = reference::analyze_design_with(&timer, &twin, rule);
                assert_bits_eq(&oracle, &returned, &format!("{what} (returned)"));
                assert_bits_eq(&oracle, &session.analyze_design(), &what);

                let fresh = TimingSession::new(&timer, twin.clone(), rule).expect("fresh");
                for net in twin.netlist.net_ids() {
                    assert_bits_eq(
                        fresh.arrival(net),
                        session.arrival(net),
                        &format!("{what}: arrival at net {}", net.index()),
                    );
                }
                if step % 10 == 0 {
                    assert_critical_path_matches(&timer, &session, &twin, &what);
                }
                assert_ranked_reads_match(&session, &twin, &mut rng, &what);
                assert!(
                    session.last_recompute_count() <= total_gates,
                    "recompute visited more gates than the design has"
                );
            }
        }
    }
}

#[test]
fn eight_threads_match_reference_bit_for_bit() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = build_timer(&tech, &lib);
    let design = c432_design(&tech, &lib);

    const THREADS: u64 = 8;
    const ITERS: u64 = 16;
    let session =
        TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).expect("session build");
    let reference_q = reference::analyze_design_with(&timer, &design, MergeRule::Pessimistic);
    let reference_early = reference::analyze_design_early(&timer, &design);
    // Thread t asks for t + 1 paths, so the held list is read below,
    // at and above its `k` while the others rerank it.
    let reference_paths: Vec<Vec<Path>> = (1..=THREADS as usize)
        .map(|k| legacy_ranked_paths(&design, k))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = reference_paths
            .iter()
            .enumerate()
            .map(|(t, reference_paths)| {
                let (session, reference_q, reference_early) =
                    (&session, &reference_q, &reference_early);
                scope.spawn(move || {
                    for _ in 0..ITERS {
                        let q = session.analyze_design();
                        assert_bits_eq(reference_q, &q, "concurrent analyze_design");
                        let early = session.analyze_design_early();
                        assert_bits_eq(reference_early, &early, "concurrent early");
                        assert_eq!(&session.worst_paths(t + 1), reference_paths);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    });
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the bits of a sequence of floats.
fn fnv1a_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Hashes of the nominal wire outputs on c432 (seed-7 parasitics): every
/// net's golden scales, every net's nominal wire means (actual driver, or
/// the FO4 port driver on primary inputs), and the SDF text of a session,
/// which reads the compiled per-sink wire arrays and the calibrated wire
/// model. The session-vs-reference suite cannot see drift here because
/// both sides share `nominal_wire_means`. Re-pinned when the ziggurat
/// replaced the polar normal sampler: the net generator draws through it,
/// so the parasitic values moved (the topology did not).
const PINNED_GOLDEN_SCALES: u64 = 0x85e7_0f27_37f4_78fa;
const PINNED_NOMINAL_MEANS: u64 = 0xe7f2_84d4_3157_588d;
const PINNED_SDF: u64 = 0xd6f5_a6dc_93da_fcbc;

#[test]
fn nominal_wire_outputs_are_pinned() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let design = c432_design(&tech, &lib);
    let fo4 = nsigma_cells::Cell::new(nsigma_cells::CellKind::Inv, 4);
    let mut scales = Vec::new();
    let mut means = Vec::new();
    for net in design.netlist.net_ids() {
        scales.extend(design.wire_golden_scale(net).unwrap_or_default());
        let Some(tree) = design.parasitic(net) else {
            continue;
        };
        let driver = design.driver_cell(net).unwrap_or(&fo4);
        let loads = design.load_cells(net);
        means.extend(nsigma_core::wire_model::nominal_wire_means(
            &tech, tree, &loads, driver,
        ));
    }
    let timer = build_timer(&tech, &lib);
    let session =
        TimingSession::new(&timer, design, MergeRule::Pessimistic).expect("session build");
    let sdf = nsigma_core::sdf::write_sdf(&session);
    assert_eq!(fnv1a_bits(&scales), PINNED_GOLDEN_SCALES, "golden scales");
    assert_eq!(
        fnv1a_bits(&means),
        PINNED_NOMINAL_MEANS,
        "nominal wire means"
    );
    assert_eq!(fnv1a(sdf.bytes()), PINNED_SDF, "SDF text");
}

/// Hash of the coefficients file of a small timer build (the suite's
/// `timer_config`): the per-cell moment calibrations and the Table I fit
/// read every characterized (cell, grid point), and the wire model reads
/// the wire Monte-Carlo runs, so a fan-out that moved a point or a trial
/// shows here. Recorded before the characterization and wire-MC fan-outs
/// were folded into `nsigma_stats::par::fill`; re-pinned when the ziggurat
/// replaced the polar normal sampler, which moved every characterization
/// draw.
const PINNED_COEFFICIENTS: u64 = 0xa68b_58c5_d170_bba3;

#[test]
fn timer_build_coefficients_are_pinned() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let text = nsigma_core::write_coefficients(&build_timer(&tech, &lib));
    assert_eq!(
        fnv1a(text.bytes()),
        PINNED_COEFFICIENTS,
        "coefficients file"
    );
}

/// Generated nets for the wire-kernel pins: `generate_net` at fanouts 1–4
/// and `random_net` at 1–4 sinks, from one seeded stream.
fn pinned_nets() -> Vec<nsigma_interconnect::RcTree> {
    use nsigma_interconnect::{generate_net, random_net, NetGenConfig};
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2023);
    let mut nets = Vec::new();
    for sinks in 1..=4 {
        nets.push(generate_net(
            &mut rng,
            &NetGenConfig::default_28nm().with_fanout(sinks),
        ));
        nets.push(random_net(&mut rng, sinks));
    }
    nets
}

/// Hashes of the two wire kernels on generated nets: every node's
/// impulse-response moments (m1, m2), and the ramp-driven transient's
/// source, root and sink crossings behind a resistive driver. Recorded
/// before the RC tree moved to flat parent/R/C arrays; re-pinned when the
/// ziggurat replaced the polar normal sampler, which `generate_net` draws
/// its wire lengths from.
const PINNED_MOMENTS: u64 = 0xe30a_f7ab_855c_d4c0;
const PINNED_RAMP_CROSSINGS: u64 = 0xf483_cd26_7d26_5468;

#[test]
fn wire_kernel_outputs_are_pinned() {
    use nsigma_interconnect::{moments_all, simulate_ramp, TransientConfig};
    let mut moments = Vec::new();
    let mut crossings = Vec::new();
    for (i, tree) in pinned_nets().iter().enumerate() {
        let (m1, m2) = moments_all(tree);
        moments.extend(m1);
        moments.extend(m2);
        let driver_res = 500.0 + 700.0 * i as f64;
        let res = simulate_ramp(tree, &TransientConfig::auto(tree, 0.9, 10e-12, driver_res));
        crossings.push(res.source_cross);
        crossings.push(res.root_cross);
        crossings.extend(res.sink_cross);
    }
    assert_eq!(fnv1a_bits(&moments), PINNED_MOMENTS, "moments");
    assert_eq!(
        fnv1a_bits(&crossings),
        PINNED_RAMP_CROSSINGS,
        "ramp crossings"
    );
}

/// Hash of a transient-mode wire Monte Carlo on a three-sink `random_net`:
/// every sample of every sink, so the sampled-tree transient path of the
/// golden kernel is pinned bit for bit. Recorded before the transient ran
/// on the kernel's flat arrays; re-pinned when the ziggurat replaced the
/// polar normal sampler.
const PINNED_TRANSIENT_MC: u64 = 0xee34_96d6_6d7d_3347;

#[test]
fn transient_wire_mc_is_pinned() {
    use nsigma_cells::{Cell, CellKind};
    use nsigma_mc::wire_sim::{simulate_wire_mc, WireGoldenMode, WireMcConfig};
    use rand::SeedableRng;
    let tech = Technology::synthetic_28nm();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let tree = nsigma_interconnect::random_net(&mut rng, 3);
    let driver = Cell::new(CellKind::Nand2, 2);
    let loads = [
        Cell::new(CellKind::Inv, 1),
        Cell::new(CellKind::Nor2, 2),
        Cell::new(CellKind::Inv, 4),
    ];
    let cfg = WireMcConfig {
        samples: 300,
        seed: 17,
        input_slew: 10e-12,
        mode: WireGoldenMode::Transient,
    };
    let results = simulate_wire_mc(&tech, &tree, &driver, &loads.each_ref(), &cfg);
    let samples: Vec<f64> = results
        .iter()
        .flat_map(|r| r.samples().iter().copied())
        .collect();
    assert_eq!(samples.len(), 900);
    assert_eq!(
        fnv1a_bits(&samples),
        PINNED_TRANSIENT_MC,
        "transient wire MC"
    );
}
