//! Tile plumbing shared by the macro generators.
//!
//! A *tile* is a hand-crafted block configuration pattern written into a
//! region of a [`Fabric`] — the mechanised equivalent of the paper's
//! hand-drawn layouts (Figs. 9, 10, 12). Tiles expose their connection
//! points as [`PortLoc`]s: a boundary-lane address that resolves to a
//! concrete net once the fabric is elaborated.

use pmorph_core::{BlockConfig, Edge, Elaborated, OutMode};
use pmorph_sim::NetId;

/// A boundary-lane address: lane `lane` on edge `edge` of block `(x, y)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortLoc {
    /// Block column.
    pub x: usize,
    /// Block row.
    pub y: usize,
    /// Which edge of the block.
    pub edge: Edge,
    /// Lane index on that edge.
    pub lane: usize,
}

impl PortLoc {
    /// Construct a port.
    pub fn new(x: usize, y: usize, edge: Edge, lane: usize) -> Self {
        PortLoc { x, y, edge, lane }
    }

    /// Resolve to the elaborated net.
    pub fn net(&self, elab: &Elaborated) -> NetId {
        elab.edge_lane(self.x, self.y, self.edge, self.lane)
    }
}

/// Configure term `t` as a **feed-through** of input column `col`:
/// `NAND(col)` followed by an inverting driver reproduces the input
/// (two restoring stages — the paper's "data feed-through from an
/// adjacent cell").
pub fn ft(cfg: &mut BlockConfig, t: usize, col: usize) {
    cfg.set_term(t, &[col]);
    cfg.drivers[t] = OutMode::Inv;
}

/// Configure term `t` as an **inverter** of input column `col`:
/// `NAND(col)` with a buffering driver.
pub fn ft_inv(cfg: &mut BlockConfig, t: usize, col: usize) {
    cfg.set_term(t, &[col]);
    cfg.drivers[t] = OutMode::Buf;
}

/// Mapping failures shared by the generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The minimised cover needs more product terms than a block offers.
    TooManyTerms {
        /// Terms required.
        needed: usize,
        /// Terms available.
        available: usize,
    },
    /// The function has more variables than the tile supports.
    TooManyVars {
        /// Variables in the function.
        needed: usize,
        /// Variables supported.
        available: usize,
    },
    /// The requested region falls outside the fabric or is occupied.
    OutOfRoom,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::TooManyTerms { needed, available } => {
                write!(f, "cover needs {needed} product terms, block offers {available}")
            }
            MapError::TooManyVars { needed, available } => {
                write!(f, "function has {needed} variables, tile supports {available}")
            }
            MapError::OutOfRoom => write!(f, "tile does not fit in the fabric region"),
        }
    }
}

impl std::error::Error for MapError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, Fabric, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    #[test]
    fn ft_is_identity_and_ft_inv_inverts() {
        let mut f = Fabric::new(1, 1);
        {
            let b = f.block_mut(0, 0);
            ft(b, 0, 0);
            ft_inv(b, 1, 0);
        }
        let elab = elaborate(&f, &FabricTiming::default());
        for v in [Logic::L0, Logic::L1] {
            let mut sim = Simulator::new(&elab.netlist);
            sim.drive(PortLoc::new(0, 0, Edge::West, 0).net(&elab), v);
            sim.settle(100_000).unwrap();
            assert_eq!(sim.value(PortLoc::new(0, 0, Edge::East, 0).net(&elab)), v);
            assert_eq!(sim.value(PortLoc::new(0, 0, Edge::East, 1).net(&elab)), v.not());
        }
    }
}
