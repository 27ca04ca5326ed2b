//! Flat component/net graph.
//!
//! A [`Netlist`] is a set of nets (wires) and components (gates, drivers,
//! state elements, stimulus generators). Components reference nets by
//! [`NetId`]; the simulation engine owns all values. The component set is a
//! closed enum — the hot evaluation path stays monomorphic and allocation
//! free, per the HPC guidance this project follows.

use crate::logic::Logic;
use std::borrow::Cow;

/// Index of a net (wire) in a [`Netlist`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a component in a [`Netlist`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CompId(pub u32);

/// A driver endpoint: output port `port` of component `comp`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortRef {
    /// Driving component.
    pub comp: CompId,
    /// Output port index within that component.
    pub port: u8,
}

/// Tri-state driver mode, mirroring the paper's Fig. 5 configurable buffer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DriveMode {
    /// Output follows the input.
    NonInverting,
    /// Output is the complement of the input.
    Inverting,
}

/// A circuit component.
///
/// Multi-input gates own their input net lists; state-holding components
/// (flip-flops, latches, C-elements, mutexes) carry their state inline so a
/// `Netlist` clone is an independent, resettable circuit.
#[derive(Clone, Debug)]
pub enum Component {
    /// N-input NAND — the fabric's native gate (paper Fig. 7).
    Nand { inputs: Vec<NetId>, output: NetId },
    /// N-input NOR.
    Nor { inputs: Vec<NetId>, output: NetId },
    /// N-input AND.
    And { inputs: Vec<NetId>, output: NetId },
    /// N-input OR.
    Or { inputs: Vec<NetId>, output: NetId },
    /// N-input XOR (odd parity).
    Xor { inputs: Vec<NetId>, output: NetId },
    /// Inverter.
    Inv { input: NetId, output: NetId },
    /// Non-inverting buffer (also used as an explicit delay element).
    Buf { input: NetId, output: NetId },
    /// Tri-state driver: when `enable` is high the output follows `mode`;
    /// when low it contributes `Z`. Models the abutment driver of Fig. 5.
    TriBuf { input: NetId, enable: NetId, output: NetId, mode: DriveMode },
    /// Constant driver.
    Const { value: Logic, output: NetId },
    /// Behavioural Muller C-element: output goes high when both inputs are
    /// high, low when both are low, otherwise holds (paper §4.1).
    CElement { a: NetId, b: NetId, output: NetId, state: Logic },
    /// Behavioural rising-edge D flip-flop with optional active-low reset;
    /// used as the *reference* model that fabric-mapped flip-flops are
    /// checked against.
    Dff { d: NetId, clk: NetId, reset_n: Option<NetId>, q: NetId, last_clk: Logic, state: Logic },
    /// Behavioural transparent latch (level-sensitive, transparent high).
    Latch { d: NetId, en: NetId, q: NetId, state: Logic },
    /// Free-running clock generator: first edge at `phase`, half-period
    /// `half_period`, starting from `L0`.
    Clock { output: NetId, half_period: u64, phase: u64, value: Logic },
    /// Plays back an explicit waveform `(time, value)`; times must be
    /// strictly increasing.
    Stimulus { output: NetId, events: Vec<(u64, Logic)>, next: usize },
    /// Two-way mutual-exclusion element (asynchronous arbiter). Grants at
    /// most one of `g1`/`g2`; requests arriving strictly earlier win, exact
    /// ties go to `r1` (a deterministic stand-in for metastability
    /// resolution — see `pmorph-async::arbiter` for the stochastic model).
    Mutex { r1: NetId, r2: NetId, g1: NetId, g2: NetId, owner: u8 },
}

/// Maximum number of output ports any component kind can have (`Mutex` has
/// two); sizes the fixed evaluation scratch buffers so the hot loop never
/// allocates.
pub const MAX_OUTPUTS: usize = 2;

/// Borrowed, allocation-free iterator over a component's input nets.
///
/// Gate variants yield straight from their stored slice; fixed-arity
/// components yield from an inline array. Either way no `Vec` is built,
/// so netlist finalization and the builder stop allocating per query.
#[derive(Debug, Clone)]
pub enum InputIter<'a> {
    /// Inputs stored as a slice (the N-input gate variants).
    Slice(std::slice::Iter<'a, NetId>),
    /// Up to three inline input nets.
    Fixed {
        /// The nets, valid up to `len`.
        nets: [NetId; 3],
        /// Number of valid entries.
        len: u8,
        /// Next entry to yield.
        next: u8,
    },
}

impl InputIter<'_> {
    fn fixed(nets: &[NetId]) -> Self {
        let mut buf = [NetId(0); 3];
        buf[..nets.len()].copy_from_slice(nets);
        InputIter::Fixed { nets: buf, len: nets.len() as u8, next: 0 }
    }
}

impl Iterator for InputIter<'_> {
    type Item = NetId;

    fn next(&mut self) -> Option<NetId> {
        match self {
            InputIter::Slice(it) => it.next().copied(),
            InputIter::Fixed { nets, len, next } => {
                if next < len {
                    let n = nets[*next as usize];
                    *next += 1;
                    Some(n)
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            InputIter::Slice(it) => it.len(),
            InputIter::Fixed { len, next, .. } => (*len - *next) as usize,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for InputIter<'_> {}

/// A component's output nets in port order, held inline. Derefs to a
/// slice and iterates by value, so callers index it or loop over it
/// without the per-component `Vec` a connectivity pass would otherwise
/// allocate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OutputNets {
    nets: [NetId; MAX_OUTPUTS],
    len: u8,
}

impl std::ops::Deref for OutputNets {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.nets[..self.len as usize]
    }
}

impl IntoIterator for OutputNets {
    type Item = NetId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NetId, MAX_OUTPUTS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nets.into_iter().take(self.len as usize)
    }
}

/// Compact snapshot of a component's mutable state (flip-flop contents,
/// C-element keepers, generator cursors). [`Component::save_state`] /
/// [`Component::load_state`] let the simulator's sweep path reset a
/// circuit without recloning the whole netlist.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct CompState {
    a: Logic,
    b: Logic,
    n: u64,
}

impl Component {
    /// The component kind's display name (used in diagnostics, e.g. the
    /// levelizer's "not combinational" error names the offending kind).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Component::Nand { .. } => "nand",
            Component::Nor { .. } => "nor",
            Component::And { .. } => "and",
            Component::Or { .. } => "or",
            Component::Xor { .. } => "xor",
            Component::Inv { .. } => "inv",
            Component::Buf { .. } => "buf",
            Component::TriBuf { .. } => "tribuf",
            Component::Const { .. } => "const",
            Component::CElement { .. } => "celement",
            Component::Dff { .. } => "dff",
            Component::Latch { .. } => "latch",
            Component::Clock { .. } => "clock",
            Component::Stimulus { .. } => "stimulus",
            Component::Mutex { .. } => "mutex",
        }
    }

    /// Nets read by this component (borrowed; no allocation).
    pub fn inputs(&self) -> InputIter<'_> {
        match self {
            Component::Nand { inputs, .. }
            | Component::Nor { inputs, .. }
            | Component::And { inputs, .. }
            | Component::Or { inputs, .. }
            | Component::Xor { inputs, .. } => InputIter::Slice(inputs.iter()),
            Component::Inv { input, .. } | Component::Buf { input, .. } => {
                InputIter::fixed(&[*input])
            }
            Component::TriBuf { input, enable, .. } => InputIter::fixed(&[*input, *enable]),
            Component::Const { .. } | Component::Clock { .. } | Component::Stimulus { .. } => {
                InputIter::fixed(&[])
            }
            Component::CElement { a, b, .. } => InputIter::fixed(&[*a, *b]),
            Component::Dff { d, clk, reset_n, .. } => match reset_n {
                Some(r) => InputIter::fixed(&[*d, *clk, *r]),
                None => InputIter::fixed(&[*d, *clk]),
            },
            Component::Latch { d, en, .. } => InputIter::fixed(&[*d, *en]),
            Component::Mutex { r1, r2, .. } => InputIter::fixed(&[*r1, *r2]),
        }
    }

    /// Nets driven by this component, in port order (inline; no
    /// allocation).
    pub fn outputs(&self) -> OutputNets {
        let one = |n: NetId| OutputNets { nets: [n; MAX_OUTPUTS], len: 1 };
        match self {
            Component::Nand { output, .. }
            | Component::Nor { output, .. }
            | Component::And { output, .. }
            | Component::Or { output, .. }
            | Component::Xor { output, .. }
            | Component::Inv { output, .. }
            | Component::Buf { output, .. }
            | Component::TriBuf { output, .. }
            | Component::Const { output, .. }
            | Component::CElement { output, .. }
            | Component::Clock { output, .. }
            | Component::Stimulus { output, .. } => one(*output),
            Component::Dff { q, .. } | Component::Latch { q, .. } => one(*q),
            Component::Mutex { g1, g2, .. } => OutputNets { nets: [*g1, *g2], len: 2 },
        }
    }

    /// True for components that schedule their own future events
    /// (clocks and stimulus players).
    pub fn is_generator(&self) -> bool {
        matches!(self, Component::Clock { .. } | Component::Stimulus { .. })
    }

    /// Evaluate the component against current net values, returning
    /// `(port, value)` pairs for each output. `read` maps a net to its
    /// resolved value. Stateful components update their state here.
    pub fn evaluate<F: Fn(NetId) -> Logic>(&mut self, read: F) -> Vec<(u8, Logic)> {
        match self {
            Component::Nand { inputs, .. } => {
                vec![(0, Logic::nand_all(inputs.iter().map(|&n| read(n))))]
            }
            Component::Nor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(n));
                }
                vec![(0, acc.not())]
            }
            Component::And { inputs, .. } => {
                let mut acc = Logic::L1;
                for &n in inputs.iter() {
                    acc = acc.and(read(n));
                }
                vec![(0, acc)]
            }
            Component::Or { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(n));
                }
                vec![(0, acc)]
            }
            Component::Xor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.xor(read(n));
                }
                vec![(0, acc)]
            }
            Component::Inv { input, .. } => vec![(0, read(*input).not())],
            Component::Buf { input, .. } => vec![(0, read(*input).input())],
            Component::TriBuf { input, enable, mode, .. } => {
                let v = match read(*enable).input() {
                    Logic::L1 => {
                        let i = read(*input).input();
                        match mode {
                            DriveMode::NonInverting => i,
                            DriveMode::Inverting => i.not(),
                        }
                    }
                    Logic::L0 => Logic::Z,
                    _ => Logic::X,
                };
                vec![(0, v)]
            }
            Component::Const { value, .. } => vec![(0, *value)],
            Component::CElement { a, b, state, .. } => {
                let (va, vb) = (read(*a).input(), read(*b).input());
                // Switch only on a definite consensus; anything else —
                // mixed inputs *or* unknowns — holds the present state.
                // (Real C-elements power up into a defined state via their
                // keeper; modelling X-propagation here would deadlock every
                // cold-started handshake ring.)
                let next = match (va, vb) {
                    (Logic::L1, Logic::L1) => Logic::L1,
                    (Logic::L0, Logic::L0) => Logic::L0,
                    _ => *state,
                };
                *state = next;
                vec![(0, next)]
            }
            Component::Dff { d, clk, reset_n, last_clk, state, .. } => {
                let c = read(*clk).input();
                let rising = *last_clk == Logic::L0 && c == Logic::L1;
                *last_clk = c;
                if let Some(r) = reset_n {
                    if read(*r).input() == Logic::L0 {
                        *state = Logic::L0;
                        return vec![(0, *state)];
                    }
                }
                if rising {
                    *state = read(*d).input();
                }
                vec![(0, *state)]
            }
            Component::Latch { d, en, state, .. } => {
                match read(*en).input() {
                    Logic::L1 => *state = read(*d).input(),
                    Logic::L0 => {}
                    _ => *state = Logic::X,
                }
                vec![(0, *state)]
            }
            Component::Clock { value, .. } => vec![(0, *value)],
            Component::Stimulus { events, next, .. } => {
                // Value most recently played; before the first event the
                // output is X (undriven stimulus is unknown, not Z, to make
                // forgotten initialisation loudly visible).
                let v = if *next == 0 { Logic::X } else { events[*next - 1].1 };
                vec![(0, v)]
            }
            Component::Mutex { r1, r2, g1: _, g2: _, owner } => {
                let (a, b) = (read(*r1).input(), read(*r2).input());
                match *owner {
                    1 if a != Logic::L1 => *owner = 0,
                    2 if b != Logic::L1 => *owner = 0,
                    _ => {}
                }
                if *owner == 0 {
                    if a == Logic::L1 {
                        *owner = 1;
                    } else if b == Logic::L1 {
                        *owner = 2;
                    }
                }
                vec![(0, Logic::from_bool(*owner == 1)), (1, Logic::from_bool(*owner == 2))]
            }
        }
    }

    /// In-place evaluation: like [`Component::evaluate`] but reads resolved
    /// net values straight from a slice and writes outputs into a fixed
    /// scratch buffer (port `p`'s value lands in `out[p]`), returning the
    /// number of output ports. This is the simulation kernel's hot path —
    /// no closure dispatch, no `Vec` per evaluation. The closure-based
    /// `evaluate` stays as the reference implementation; the differential
    /// kernel test pins the two together.
    pub fn evaluate_into(&mut self, values: &[Logic], out: &mut [Logic; MAX_OUTPUTS]) -> usize {
        #[inline]
        fn read(values: &[Logic], n: NetId) -> Logic {
            values[n.0 as usize]
        }
        match self {
            Component::Nand { inputs, .. } => {
                out[0] = Logic::nand_all(inputs.iter().map(|&n| read(values, n)));
                1
            }
            Component::Nor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(values, n));
                }
                out[0] = acc.not();
                1
            }
            Component::And { inputs, .. } => {
                let mut acc = Logic::L1;
                for &n in inputs.iter() {
                    acc = acc.and(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Or { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.or(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Xor { inputs, .. } => {
                let mut acc = Logic::L0;
                for &n in inputs.iter() {
                    acc = acc.xor(read(values, n));
                }
                out[0] = acc;
                1
            }
            Component::Inv { input, .. } => {
                out[0] = read(values, *input).not();
                1
            }
            Component::Buf { input, .. } => {
                out[0] = read(values, *input).input();
                1
            }
            Component::TriBuf { input, enable, mode, .. } => {
                out[0] = match read(values, *enable).input() {
                    Logic::L1 => {
                        let i = read(values, *input).input();
                        match mode {
                            DriveMode::NonInverting => i,
                            DriveMode::Inverting => i.not(),
                        }
                    }
                    Logic::L0 => Logic::Z,
                    _ => Logic::X,
                };
                1
            }
            Component::Const { value, .. } => {
                out[0] = *value;
                1
            }
            Component::CElement { a, b, state, .. } => {
                let (va, vb) = (read(values, *a).input(), read(values, *b).input());
                let next = match (va, vb) {
                    (Logic::L1, Logic::L1) => Logic::L1,
                    (Logic::L0, Logic::L0) => Logic::L0,
                    _ => *state,
                };
                *state = next;
                out[0] = next;
                1
            }
            Component::Dff { d, clk, reset_n, last_clk, state, .. } => {
                let c = read(values, *clk).input();
                let rising = *last_clk == Logic::L0 && c == Logic::L1;
                *last_clk = c;
                if let Some(r) = reset_n {
                    if read(values, *r).input() == Logic::L0 {
                        *state = Logic::L0;
                        out[0] = *state;
                        return 1;
                    }
                }
                if rising {
                    *state = read(values, *d).input();
                }
                out[0] = *state;
                1
            }
            Component::Latch { d, en, state, .. } => {
                match read(values, *en).input() {
                    Logic::L1 => *state = read(values, *d).input(),
                    Logic::L0 => {}
                    _ => *state = Logic::X,
                }
                out[0] = *state;
                1
            }
            Component::Clock { value, .. } => {
                out[0] = *value;
                1
            }
            Component::Stimulus { events, next, .. } => {
                out[0] = if *next == 0 { Logic::X } else { events[*next - 1].1 };
                1
            }
            Component::Mutex { r1, r2, g1: _, g2: _, owner } => {
                let (a, b) = (read(values, *r1).input(), read(values, *r2).input());
                match *owner {
                    1 if a != Logic::L1 => *owner = 0,
                    2 if b != Logic::L1 => *owner = 0,
                    _ => {}
                }
                if *owner == 0 {
                    if a == Logic::L1 {
                        *owner = 1;
                    } else if b == Logic::L1 {
                        *owner = 2;
                    }
                }
                out[0] = Logic::from_bool(*owner == 1);
                out[1] = Logic::from_bool(*owner == 2);
                2
            }
        }
    }

    /// Number of output ports (compile-time property of the component kind).
    pub fn output_count(&self) -> usize {
        match self {
            Component::Mutex { .. } => 2,
            _ => 1,
        }
    }

    /// Capture the component's mutable state (see [`CompState`]). Stateless
    /// components return the default.
    pub fn save_state(&self) -> CompState {
        match self {
            Component::CElement { state, .. } | Component::Latch { state, .. } => {
                CompState { a: *state, ..CompState::default() }
            }
            Component::Dff { last_clk, state, .. } => CompState { a: *last_clk, b: *state, n: 0 },
            Component::Clock { value, .. } => CompState { a: *value, ..CompState::default() },
            Component::Stimulus { next, .. } => {
                CompState { n: *next as u64, ..CompState::default() }
            }
            Component::Mutex { owner, .. } => {
                CompState { n: *owner as u64, ..CompState::default() }
            }
            _ => CompState::default(),
        }
    }

    /// Restore state captured by [`Component::save_state`].
    pub fn load_state(&mut self, s: CompState) {
        match self {
            Component::CElement { state, .. } | Component::Latch { state, .. } => *state = s.a,
            Component::Dff { last_clk, state, .. } => {
                *last_clk = s.a;
                *state = s.b;
            }
            Component::Clock { value, .. } => *value = s.a,
            Component::Stimulus { next, .. } => *next = s.n as usize,
            Component::Mutex { owner, .. } => *owner = s.n as u8,
            _ => {}
        }
    }

    /// For generator components: advance internal state and return the next
    /// self-scheduled `(time, port, value)` event at or after `now`.
    pub fn next_generated(&mut self, now: u64) -> Option<(u64, u8, Logic)> {
        match self {
            Component::Clock { half_period, phase, value, .. } => {
                let t = if now < *phase { *phase } else { now + *half_period };
                *value = if *value == Logic::L1 { Logic::L0 } else { Logic::L1 };
                Some((t, 0, *value))
            }
            Component::Stimulus { events, next, .. } => {
                if *next < events.len() {
                    let (t, v) = events[*next];
                    *next += 1;
                    Some((t.max(now), 0, v))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A named net plus its structural connectivity (filled by `finalize`).
#[derive(Clone, Debug, Default)]
pub struct Net {
    /// Human-readable name (used in traces and VCD output).
    pub name: String,
    /// Components reading this net.
    pub fanout: Vec<CompId>,
    /// Driver endpoints writing this net.
    pub drivers: Vec<PortRef>,
}

/// A borrowed netlist: [`crate::Simulator::new`] clones only what it
/// simulates (components and delays).
impl<'a> From<&'a Netlist> for Cow<'a, Netlist> {
    fn from(netlist: &'a Netlist) -> Self {
        Cow::Borrowed(netlist)
    }
}

/// An owned netlist: [`crate::Simulator::new`] moves its components and
/// delays without copying them.
impl From<Netlist> for Cow<'_, Netlist> {
    fn from(netlist: Netlist) -> Self {
        Cow::Owned(netlist)
    }
}

/// A complete circuit: nets, components and per-component delays.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// All nets.
    pub nets: Vec<Net>,
    /// All components.
    pub comps: Vec<Component>,
    /// Propagation delay (picoseconds) of each component.
    pub delays: Vec<u64>,
    finalized: bool,
}

impl Netlist {
    /// Create an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a named net, returning its id. A new net has no readers and no
    /// drivers, so a finalized netlist stays finalized.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name: name.into(), ..Net::default() });
        id
    }

    /// Add a component with the given propagation delay (ps ≥ 1 enforced by
    /// the engine), returning its id. On a finalized netlist the new
    /// component's fan-out and driver entries are appended in place —
    /// exactly what [`Netlist::finalize`] would derive, since the new
    /// component has the highest id — so the tables stay current without
    /// a rebuild.
    pub fn add_comp(&mut self, comp: Component, delay_ps: u64) -> CompId {
        let id = CompId(self.comps.len() as u32);
        if self.finalized {
            for n in comp.inputs() {
                let fanout = &mut self.nets[n.0 as usize].fanout;
                if fanout.last() != Some(&id) {
                    fanout.push(id);
                }
            }
            for (p, n) in comp.outputs().into_iter().enumerate() {
                self.nets[n.0 as usize].drivers.push(PortRef { comp: id, port: p as u8 });
            }
        }
        self.comps.push(comp);
        self.delays.push(delay_ps);
        id
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of components.
    pub fn comp_count(&self) -> usize {
        self.comps.len()
    }

    /// Find a net by exact name (first match).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets.iter().position(|n| n.name == name).map(|i| NetId(i as u32))
    }

    /// Rebuild fanout and driver lists. Idempotent. Once finalized, the
    /// tables stay current through later [`Netlist::add_net`] and
    /// [`Netlist::add_comp`] calls. The event simulator does not need
    /// them: it compiles its own connectivity from the components.
    pub fn finalize(&mut self) {
        for net in &mut self.nets {
            net.fanout.clear();
            net.drivers.clear();
        }
        for (i, comp) in self.comps.iter().enumerate() {
            let cid = CompId(i as u32);
            for n in comp.inputs() {
                self.nets[n.0 as usize].fanout.push(cid);
            }
            for (p, n) in comp.outputs().into_iter().enumerate() {
                self.nets[n.0 as usize].drivers.push(PortRef { comp: cid, port: p as u8 });
            }
        }
        for net in &mut self.nets {
            net.fanout.dedup();
        }
        self.finalized = true;
    }

    /// Whether connectivity tables are up to date.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Nets with no drivers at all — these are the circuit's primary inputs
    /// (they can only change via [`crate::Simulator::drive`]).
    pub fn undriven_nets(&self) -> Vec<NetId> {
        assert!(self.finalized, "call finalize() first");
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.drivers.is_empty())
            .map(|(i, _)| NetId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectivity_tables() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        let g = nl.add_comp(Component::Nand { inputs: vec![a, b], output: y }, 10);
        nl.finalize();
        assert_eq!(nl.nets[a.0 as usize].fanout, vec![g]);
        assert_eq!(nl.nets[y.0 as usize].drivers, vec![PortRef { comp: g, port: 0 }]);
        assert_eq!(nl.undriven_nets(), vec![a, b]);
    }

    #[test]
    fn duplicate_input_single_fanout_entry() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        nl.add_comp(Component::Nand { inputs: vec![a, a], output: y }, 1);
        nl.finalize();
        assert_eq!(nl.nets[a.0 as usize].fanout.len(), 1);
    }

    #[test]
    fn celement_holds_state() {
        let mut c =
            Component::CElement { a: NetId(0), b: NetId(1), output: NetId(2), state: Logic::L0 };
        let vals = [Logic::L1, Logic::L0];
        let out = c.evaluate(|n| vals[n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L0)], "mixed inputs hold");
        let vals = [Logic::L1, Logic::L1];
        let out = c.evaluate(|n| vals[n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L1)], "both high sets");
        let vals = [Logic::L0, Logic::L1];
        let out = c.evaluate(|n| vals[n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L1)], "mixed holds high");
        let vals = [Logic::L0, Logic::L0];
        let out = c.evaluate(|n| vals[n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L0)], "both low clears");
    }

    #[test]
    fn dff_edge_behaviour() {
        let mut ff = Component::Dff {
            d: NetId(0),
            clk: NetId(1),
            reset_n: None,
            q: NetId(2),
            last_clk: Logic::L0,
            state: Logic::L0,
        };
        // clk low, d high: no capture
        let out = ff.evaluate(|n| [Logic::L1, Logic::L0][n.0 as usize]);
        assert_eq!(out[0].1, Logic::L0);
        // rising edge captures d
        let out = ff.evaluate(|n| [Logic::L1, Logic::L1][n.0 as usize]);
        assert_eq!(out[0].1, Logic::L1);
        // d falls while clk high: hold
        let out = ff.evaluate(|n| [Logic::L0, Logic::L1][n.0 as usize]);
        assert_eq!(out[0].1, Logic::L1);
    }

    #[test]
    fn mutex_first_wins_and_releases() {
        let mut m =
            Component::Mutex { r1: NetId(0), r2: NetId(1), g1: NetId(2), g2: NetId(3), owner: 0 };
        let out = m.evaluate(|n| [Logic::L1, Logic::L1][n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L1), (1, Logic::L0)], "tie goes to r1");
        let out = m.evaluate(|n| [Logic::L0, Logic::L1][n.0 as usize]);
        assert_eq!(out, vec![(0, Logic::L0), (1, Logic::L1)], "release then grant r2");
    }
}
