//! Gate-level netlist substrate for self-checking alternating logic.
//!
//! The paper's objects of study are *networks* — gate-level implementations of
//! logic functions (its Definition: "a network is an implementation of a
//! function, and a system is a combination of networks"). This crate provides
//! that substrate:
//!
//! * [`Circuit`] — a directed netlist of typed gates ([`GateKind`]), primary
//!   inputs, constants, and D flip-flops, built through a small builder API;
//! * [`Circuit::eval`]-style combinational evaluation, scalar and 64-lane bit-parallel,
//!   with optional forced values at a [`Site`] (the hook `scal-faults` uses to
//!   inject stuck-at faults);
//! * [`Sim`] — a synchronous sequential simulator stepping one clock per call;
//! * structural queries ([`Structure`]) — fanout, cones, path parity, unate
//!   paths — the raw material for the paper's Algorithm 3.1;
//! * [`Cost`] accounting (gates, gate inputs, flip-flops) matching the cost
//!   measures of Table 4.1 and Chapter 5.
//!
//! # Example
//!
//! ```
//! use scal_netlist::{Circuit, GateKind};
//!
//! // Build MAJ(a, b, c) from NAND gates.
//! let mut c = Circuit::new();
//! let a = c.input("a");
//! let b = c.input("b");
//! let cc = c.input("c");
//! let nab = c.gate(GateKind::Nand, &[a, b]);
//! let nac = c.gate(GateKind::Nand, &[a, cc]);
//! let nbc = c.gate(GateKind::Nand, &[b, cc]);
//! let maj = c.gate(GateKind::Nand, &[nab, nac, nbc]);
//! c.mark_output("maj", maj);
//!
//! assert_eq!(c.eval(&[true, true, false]), vec![true]);
//! assert_eq!(c.cost().gates, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_fmt;
mod builder;
mod circuit;
mod cost;
mod eval;
mod export;
pub mod io;
mod kind;
mod reader;
mod sim;
mod structure;
pub mod synth;
mod text;
mod verilog;

pub use circuit::{Circuit, NetlistError, NodeId, NodeView, Output};
pub use cost::Cost;
pub use eval::Override;
pub use export::node_level;
pub use io::{assert_circuit_eq, circuit_eq, IoError, NetlistFormat};
pub use kind::GateKind;
pub use reader::ParseError;
pub use sim::Sim;
pub use structure::{PathParity, Structure};
pub use synth::SynthKind;

/// A physical *line* in a network at which a stuck-at fault may occur.
///
/// The paper's fault model places faults on every line of the logic diagram:
/// both gate-output *stems* and the individual *branches* a stem fans out
/// into (its Fig. 3.4 numbers every branch separately, and distinguishing
/// them is what makes the multiple-output analysis of §3.4 non-trivial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// The output stem of a node.
    Stem(NodeId),
    /// The branch feeding fanin pin `pin` of node `node`.
    Branch {
        /// The consuming node.
        node: NodeId,
        /// The fanin position within the consuming node.
        pin: usize,
    },
}

impl core::fmt::Display for Site {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Site::Stem(n) => write!(f, "stem({n})"),
            Site::Branch { node, pin } => write!(f, "branch({node}.{pin})"),
        }
    }
}
