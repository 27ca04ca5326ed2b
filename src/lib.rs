//! # polymorphic-hw
//!
//! A simulator-level reproduction of **"A Polymorphic Hardware Platform"**
//! (Paul Beckett, IPDPS 2003): a very fine-grained reconfigurable fabric
//! whose undifferentiated leaf cells — complementary double-gate MOSFET
//! pairs biased by resonant-tunnelling-diode multi-valued RAM — can be
//! configured as **state, logic, interconnect, or combinations of all
//! three**.
//!
//! The workspace builds every layer the paper describes or depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`device`] | DG-MOSFET + RTD compact models, configurable gates, Monte-Carlo variation |
//! | [`sim`] | event-driven four-valued logic simulator |
//! | [`fabric`] | the 6×6 NAND-block fabric, 128-bit block configs, elaboration |
//! | [`synth`] | truth tables, Quine–McCluskey, LUT/FF/adder/accumulator tiles, routing |
//! | [`asynchronous`] | C-elements, micropipelines, ECSEs, arbiters, GALS |
//! | [`fpga`] | the conventional island-style FPGA baseline |
//!
//! ## Quickstart
//!
//! ```rust
//! use polymorphic_hw::prelude::*;
//!
//! // Map the paper's Fig. 9 3-LUT (x + y + z) onto a small fabric…
//! let tt = TruthTable::from_fn(3, |m| m != 0);
//! let mut fabric = Fabric::new(4, 1);
//! let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
//!
//! // …elaborate to a gate netlist and simulate it.
//! let elab = elaborate(&fabric, &FabricTiming::default());
//! let mut sim = Simulator::new(&elab.netlist);
//! for (v, p) in ports.inputs.iter().enumerate() {
//!     sim.drive(p.net(&elab), Logic::from_bool(v == 1));
//! }
//! sim.settle(100_000).unwrap();
//! assert_eq!(sim.value(ports.output.net(&elab)), Logic::L1);
//! ```

pub mod flow;

pub use pmorph_async as asynchronous;
pub use pmorph_core as fabric;
pub use pmorph_device as device;
pub use pmorph_fpga as fpga;
pub use pmorph_sim as sim;
pub use pmorph_synth as synth;

// Package-name re-exports too, so downstream code can use either spelling.
pub use pmorph_async;
pub use pmorph_core;
pub use pmorph_device;
pub use pmorph_fpga;
pub use pmorph_sim;
pub use pmorph_synth;

/// The items most programs need.
pub mod prelude {
    pub use pmorph_async::{
        c_element, ecse, pausible_clock, GalsSystem, MetastabilityModel, PipelineHarness,
    };
    pub use pmorph_core::{
        elaborate::elaborate, AreaModel, BlockConfig, DefectMap, Edge, Fabric, FabricTiming,
        InputSource, OutMode, OutputDest, PowerModel, LANES,
    };
    pub use pmorph_device::{
        CellMode, ConfigurableInverter, ConfigurableNand, DgMosfet, Rtd, RtdRamCell, Technology,
        Trit,
    };
    pub use pmorph_fpga::{tech_map, FpgaArch, FpgaTiming};
    pub use pmorph_sim::{Logic, NetlistBuilder, Simulator};
    pub use pmorph_synth::{
        d_latch, dff, lut3, map_function, minimize, ripple_adder, shift_register, Accumulator,
        BitSerialAdder, Counter, PortLoc, Router, TruthTable,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_links_all_crates() {
        use crate::prelude::*;
        let _ = Fabric::new(2, 2);
        let _ = TruthTable::parity(3);
        let _ = DgMosfet::nmos();
        let _ = FpgaArch::default();
        let _ = MetastabilityModel::default();
        let _ = Logic::L1;
    }
}
