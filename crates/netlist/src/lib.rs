//! # nsigma-netlist
//!
//! Gate-level netlist substrate for the `nsigma` workspace (reproduction of
//! Jin et al., DATE 2023).
//!
//! * [`ir`] — the netlist IR: gates, nets, PIs/POs;
//! * [`logic`] / [`bench_format`] — technology-independent circuits and the
//!   ISCAS85 `.bench` parser;
//! * [`mapping`] — the Design Compiler substitute: decomposition onto the
//!   standard library plus fanout-based sizing;
//! * [`topo`] — topological order, levelization and critical-path extraction;
//! * [`generators`] — ISCAS85-like synthetic benchmarks sized to the paper's
//!   Table III counts and arithmetic datapaths standing in for the PULPino
//!   ADD/SUB/MUL/DIV units;
//! * [`verilog`] — structural Verilog subset writer/parser (the interchange
//!   of real synthesis/sign-off flows);
//! * [`sim`] — levelized boolean simulation (functional verification of the
//!   generated datapaths);
//! * [`optimize`] — AOI/OAI complex-gate extraction (the synthesis pattern
//!   that puts Table II's AOI cells into real netlists).
//!
//! # Examples
//!
//! ```
//! use nsigma_cells::CellLibrary;
//! use nsigma_netlist::bench_format::parse;
//! use nsigma_netlist::mapping::map_to_cells;
//! use nsigma_netlist::topo;
//!
//! let lib = CellLibrary::standard();
//! let logic = parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n")
//!     .expect("valid bench text");
//! let netlist = map_to_cells(&logic, &lib).expect("maps onto the library");
//! assert_eq!(topo::depth(&netlist), 1);
//! ```

#![warn(missing_docs)]

pub mod bench_format;
pub mod generators;
pub mod ir;
pub mod logic;
pub mod mapping;
pub mod optimize;
pub mod sim;
pub mod topo;
pub mod verilog;

pub use ir::{Gate, GateId, Net, NetDriver, NetId, Netlist};
pub use logic::{LogicCircuit, LogicGate, LogicOp};
pub use mapping::map_to_cells;
pub use topo::{
    depth, k_longest_paths_by, k_longest_paths_by_with_csr, levels, longest_path_by,
    longest_path_by_with_order, topo_order, NetlistCsr, Path, PathScratch,
};
