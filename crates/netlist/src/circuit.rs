//! Circuit, net and pin data structures.

use mebl_geom::{Layer, Point, Rect};

/// Index of a net within its [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl std::fmt::Display for NetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A fixed pin: a grid position on a routing layer.
///
/// Pins sit on layer 0 in the generated benchmarks (standard-cell pins on
/// the lowest metal). Pins are *fixed*: the router may not move them, which
/// is why via violations can only be tolerated at pins (paper, Problem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pin {
    /// Grid position.
    pub position: Point,
    /// Layer the pin belongs to.
    pub layer: Layer,
}

impl Pin {
    /// Creates a pin.
    pub const fn new(position: Point, layer: Layer) -> Self {
        Self { position, layer }
    }
}

/// A net: a set of pins that must be electrically connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    name: String,
    pins: Vec<Pin>,
}

impl Net {
    /// Creates a net from a name and its pins.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two pins are supplied — a routable net needs at
    /// least a source and a sink.
    pub fn new(name: impl Into<String>, pins: Vec<Pin>) -> Self {
        assert!(pins.len() >= 2, "a net needs at least two pins");
        Self {
            name: name.into(),
            pins,
        }
    }

    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pins of the net.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Number of pins.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }

    /// Bounding box of the pin positions.
    pub fn bounding_box(&self) -> Rect {
        Rect::bounding(self.pins.iter().map(|p| p.position))
            .expect("net has at least two pins")
    }

    /// Half-perimeter wirelength of the pin bounding box.
    pub fn hpwl(&self) -> u64 {
        let bb = self.bounding_box();
        (bb.width() - 1) + (bb.height() - 1)
    }
}

/// A circuit: an outline, a layer stack and a list of nets.
///
/// ```
/// use mebl_geom::{Layer, Point, Rect};
/// use mebl_netlist::{Circuit, Net, Pin};
///
/// let net = Net::new("a", vec![
///     Pin::new(Point::new(0, 0), Layer::new(0)),
///     Pin::new(Point::new(5, 5), Layer::new(0)),
/// ]);
/// let c = Circuit::new("demo", Rect::new(0, 0, 9, 9), 3, vec![net]);
/// assert_eq!(c.pin_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    outline: Rect,
    layer_count: u8,
    nets: Vec<Net>,
    blockages: Vec<Rect>,
}

impl Circuit {
    /// Creates a circuit without blockages.
    ///
    /// # Panics
    ///
    /// Panics if `layer_count < 2` (routing needs at least one horizontal
    /// and one vertical layer) or if any pin lies outside the outline or on
    /// a layer `>= layer_count`.
    pub fn new(
        name: impl Into<String>,
        outline: Rect,
        layer_count: u8,
        nets: Vec<Net>,
    ) -> Self {
        Self::with_blockages(name, outline, layer_count, nets, Vec::new())
    }

    /// Creates a circuit with routing blockages.
    ///
    /// A blockage is an all-layer keep-out rectangle: the detailed router
    /// treats every cell it covers as permanently occupied. A blockage
    /// covering a pin makes the circuit unroutable — the constructor
    /// tolerates it so such circuits can be built and rejected through
    /// [`Circuit::validate`] with a typed error instead of a panic.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Circuit::new`], plus any
    /// blockage not fully inside the outline.
    pub fn with_blockages(
        name: impl Into<String>,
        outline: Rect,
        layer_count: u8,
        nets: Vec<Net>,
        blockages: Vec<Rect>,
    ) -> Self {
        assert!(layer_count >= 2, "need at least two routing layers");
        for net in &nets {
            for pin in net.pins() {
                assert!(
                    outline.contains(pin.position),
                    "pin {:?} of net {} outside outline {}",
                    pin.position,
                    net.name(),
                    outline
                );
                assert!(
                    pin.layer.index() < layer_count,
                    "pin layer above the stack"
                );
            }
        }
        for b in &blockages {
            assert!(
                outline.contains_rect(*b),
                "blockage {b} outside outline {outline}"
            );
        }
        Self {
            name: name.into(),
            outline,
            layer_count,
            nets,
            blockages,
        }
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Chip outline in track coordinates.
    pub fn outline(&self) -> Rect {
        self.outline
    }

    /// Number of routing layers.
    pub fn layer_count(&self) -> u8 {
        self.layer_count
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All-layer routing blockages (keep-out rectangles).
    pub fn blockages(&self) -> &[Rect] {
        &self.blockages
    }

    /// Iterates `(id, net)` pairs.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Total number of pins over all nets.
    pub fn pin_count(&self) -> usize {
        self.nets.iter().map(Net::degree).sum()
    }

    /// Pre-flight validation: structural checks a router should run
    /// before committing a budget to the circuit.
    ///
    /// `stitch_lines` are the x coordinates of the stitching lines the
    /// run will use (pass `&[]` to skip stitch-related checks — the
    /// netlist layer has no notion of a stitch plan of its own).
    ///
    /// Errors (outline degenerate or absurdly large, pin outside the
    /// outline, pin layer above the stack, pin under a blockage, a net
    /// whose pins all sit on one cell) make the circuit unroutable as
    /// given; warnings (pin on a stitching line, duplicate pin cells
    /// across nets) are tolerated by the flow but worth surfacing. The
    /// constructor already rejects some error cases for circuits built
    /// through [`Circuit::new`]; `validate` re-checks them so circuits
    /// from any future source get the same scrutiny.
    pub fn validate(&self, stitch_lines: &[i32]) -> Vec<CircuitIssue> {
        let mut issues = Vec::new();
        let o = self.outline;

        if o.width() < 2 || o.height() < 2 {
            issues.push(CircuitIssue::error(
                None,
                format!(
                    "degenerate outline {}x{}: routing needs at least a 2x2 grid",
                    o.width(),
                    o.height()
                ),
            ));
        }
        // Grid memory scales with outline area x layers; reject sizes
        // that would exhaust memory long before any budget fires.
        const MAX_CELLS: u64 = 1 << 28;
        let cells = o.area().saturating_mul(u64::from(self.layer_count));
        if cells > MAX_CELLS {
            issues.push(CircuitIssue::error(
                None,
                format!("outline spans {cells} grid cells (limit {MAX_CELLS})"),
            ));
        }

        for b in &self.blockages {
            if !o.contains_rect(*b) {
                issues.push(CircuitIssue::error(
                    None,
                    format!("blockage {b} extends outside outline {o}"),
                ));
            }
        }

        let shared_with = self.shared_pin_cells();
        let mut k = 0;
        for (idx, net) in self.nets.iter().enumerate() {
            for pin in net.pins() {
                let p = pin.position;
                if !o.contains(p) {
                    issues.push(CircuitIssue::error(
                        Some(idx),
                        format!("pin ({}, {}) outside outline {o}", p.x, p.y),
                    ));
                }
                if pin.layer.index() >= self.layer_count {
                    issues.push(CircuitIssue::error(
                        Some(idx),
                        format!(
                            "pin layer {} above the {}-layer stack",
                            pin.layer.index(),
                            self.layer_count
                        ),
                    ));
                }
                if let Some(b) = self.blockages.iter().find(|b| b.contains(p)) {
                    issues.push(CircuitIssue::error(
                        Some(idx),
                        format!(
                            "pin ({}, {}) is covered by blockage {b}: the net \
                             cannot reach it",
                            p.x, p.y
                        ),
                    ));
                }
                if stitch_lines.contains(&p.x) {
                    issues.push(CircuitIssue::warning(
                        Some(idx),
                        format!(
                            "pin ({}, {}) sits on stitching line x={}: its via stack \
                             will count as a tolerated violation",
                            p.x, p.y, p.x
                        ),
                    ));
                }
                if let Some(other) = shared_with[k] {
                    issues.push(CircuitIssue::warning(
                        Some(idx),
                        format!(
                            "pin ({}, {}) layer {} is shared with net {other}",
                            p.x,
                            p.y,
                            pin.layer.index()
                        ),
                    ));
                }
                k += 1;
            }
            if let Some((first, rest)) = net.pins().split_first() {
                if rest.iter().all(|pin| pin == first) {
                    issues.push(CircuitIssue::error(
                        Some(idx),
                        format!(
                            "all {} pins sit on cell ({}, {}) layer {}: a net needs at \
                             least two distinct pin cells",
                            net.degree(),
                            first.position.x,
                            first.position.y,
                            first.layer.index()
                        ),
                    ));
                }
            }
        }
        issues
    }

    /// For every pin in net-then-pin order, the net it shares its cell
    /// (x, y, layer) with: the net of the cell's first pin, named on
    /// each later pin of a different net. One sort of
    /// `(cell, pin order, net)` groups each cell's pins in pin order.
    fn shared_pin_cells(&self) -> Vec<Option<usize>> {
        let mut cells: Vec<((i32, i32, u8), usize, usize)> = Vec::with_capacity(self.pin_count());
        for (idx, net) in self.nets.iter().enumerate() {
            for pin in net.pins() {
                let p = pin.position;
                cells.push(((p.x, p.y, pin.layer.index()), cells.len(), idx));
            }
        }
        cells.sort_unstable();
        let mut shared_with = vec![None; cells.len()];
        for run in cells.chunk_by(|a, b| a.0 == b.0) {
            let owner = run[0].2;
            for &(_, k, net) in &run[1..] {
                if net != owner {
                    shared_with[k] = Some(owner);
                }
            }
        }
        shared_with
    }
}

/// Severity of a [`CircuitIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueSeverity {
    /// The circuit cannot be routed as given.
    Error,
    /// Tolerated by the flow, but worth surfacing.
    Warning,
}

/// One finding of [`Circuit::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitIssue {
    /// Severity class.
    pub severity: IssueSeverity,
    /// Net index the issue concerns, if any.
    pub net: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl CircuitIssue {
    fn error(net: Option<usize>, message: String) -> Self {
        Self {
            severity: IssueSeverity::Error,
            net,
            message,
        }
    }

    fn warning(net: Option<usize>, message: String) -> Self {
        Self {
            severity: IssueSeverity::Warning,
            net,
            message,
        }
    }

    /// Whether the issue is an [`IssueSeverity::Error`].
    pub fn is_error(&self) -> bool {
        self.severity == IssueSeverity::Error
    }
}

impl std::fmt::Display for CircuitIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            IssueSeverity::Error => "error",
            IssueSeverity::Warning => "warning",
        };
        write!(f, "{sev}: ")?;
        if let Some(net) = self.net {
            write!(f, "net {net}: ")?;
        }
        f.write_str(&self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pin(x: i32, y: i32) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(0))
    }

    #[test]
    fn net_bbox_and_hpwl() {
        let n = Net::new("x", vec![pin(1, 2), pin(6, 9), pin(3, 3)]);
        assert_eq!(n.bounding_box(), Rect::new(1, 2, 6, 9));
        assert_eq!(n.hpwl(), 5 + 7);
    }

    #[test]
    #[should_panic(expected = "at least two pins")]
    fn single_pin_net_rejected() {
        let _ = Net::new("bad", vec![pin(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside outline")]
    fn out_of_outline_pin_rejected() {
        let net = Net::new("a", vec![pin(0, 0), pin(50, 50)]);
        let _ = Circuit::new("c", Rect::new(0, 0, 9, 9), 3, vec![net]);
    }

    #[test]
    #[should_panic(expected = "outside outline")]
    fn out_of_outline_blockage_rejected() {
        let net = Net::new("a", vec![pin(0, 0), pin(1, 1)]);
        let _ = Circuit::with_blockages(
            "c",
            Rect::new(0, 0, 9, 9),
            3,
            vec![net],
            vec![Rect::new(5, 5, 12, 7)],
        );
    }

    #[test]
    fn blockage_covering_pin_is_a_validate_error() {
        let net = Net::new("a", vec![pin(2, 2), pin(8, 8)]);
        let c = Circuit::with_blockages(
            "c",
            Rect::new(0, 0, 9, 9),
            3,
            vec![net],
            vec![Rect::new(1, 1, 3, 3)],
        );
        assert_eq!(c.blockages().len(), 1);
        let issues = c.validate(&[]);
        assert!(
            issues.iter().any(|i| i.is_error() && i.message.contains("blockage")),
            "{issues:?}"
        );
    }

    #[test]
    fn clear_blockage_passes_validate() {
        let net = Net::new("a", vec![pin(0, 0), pin(9, 9)]);
        let c = Circuit::with_blockages(
            "c",
            Rect::new(0, 0, 9, 9),
            3,
            vec![net],
            vec![Rect::new(4, 4, 5, 5)],
        );
        assert!(c.validate(&[]).iter().all(|i| !i.is_error()));
    }

    #[test]
    fn circuit_counts() {
        let nets = vec![
            Net::new("a", vec![pin(0, 0), pin(1, 1)]),
            Net::new("b", vec![pin(2, 2), pin(3, 3), pin(4, 4)]),
        ];
        let c = Circuit::new("c", Rect::new(0, 0, 9, 9), 3, nets);
        assert_eq!(c.net_count(), 2);
        assert_eq!(c.pin_count(), 5);
        assert_eq!(c.nets()[1].degree(), 3);
        let ids: Vec<NetId> = c.iter_nets().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NetId(0), NetId(1)]);
    }

    #[test]
    fn coincident_pins_are_a_validate_error() {
        let p = Pin::new(Point::new(4, 4), Layer::new(1));
        let c = Circuit::new(
            "c",
            Rect::new(0, 0, 9, 9),
            3,
            vec![
                Net::new("ok", vec![pin(0, 0), pin(9, 9)]),
                Net::new("dot", vec![p, p, p]),
                Net::new("stack", vec![pin(5, 5), Pin::new(Point::new(5, 5), Layer::new(2))]),
                Net::new("dup", vec![pin(7, 1), pin(7, 1), pin(8, 1)]),
            ],
        );
        let errors: Vec<String> = c
            .validate(&[])
            .iter()
            .filter(|i| i.is_error())
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            errors,
            vec![
                "error: net 1: all 3 pins sit on cell (4, 4) layer 1: a net needs at least \
                 two distinct pin cells"
            ]
        );
    }

    /// Shared pin cells as `validate` found them before the sort: one
    /// `BTreeMap` from cell to the first net seen there, filled in pin
    /// order; a later pin of another net is shared with that first net.
    fn shared_pin_cells_btree_reference(c: &Circuit) -> Vec<Option<usize>> {
        let mut seen: std::collections::BTreeMap<(i32, i32, u8), usize> =
            std::collections::BTreeMap::new();
        let mut shared_with = Vec::new();
        for (idx, net) in c.nets.iter().enumerate() {
            for pin in net.pins() {
                let key = (pin.position.x, pin.position.y, pin.layer.index());
                let owner = *seen.entry(key).or_insert(idx);
                shared_with.push((owner != idx).then_some(owner));
            }
        }
        shared_with
    }

    #[test]
    fn sorted_shared_pin_scan_matches_btree_reference() {
        use mebl_testkit::{Rng, SplitMix64};
        let mut rng = SplitMix64::from_seed(0x5a1d_a7e0);
        let mut shared = 0;
        for case in 0..200 {
            // A cramped outline so pins collide by chance.
            let draw = |rng: &mut SplitMix64| {
                Pin::new(
                    Point::new(rng.gen_range(0i32..=7), rng.gen_range(0i32..=7)),
                    Layer::new(rng.gen_index(3) as u8),
                )
            };
            let mut nets: Vec<Net> = Vec::new();
            for i in 0..1 + rng.gen_index(12) {
                let mut pins: Vec<Pin> =
                    (0..2 + rng.gen_index(4)).map(|_| draw(&mut rng)).collect();
                // Forced sharing: a pin of an earlier net (cross-net) and
                // a repeat of one of this net's own pins (same-net).
                if let Some(earlier) = (i > 0).then(|| &nets[rng.gen_index(i)]) {
                    if rng.gen_bool(0.5) {
                        pins.push(earlier.pins()[rng.gen_index(earlier.degree())]);
                    }
                }
                if rng.gen_bool(0.3) {
                    pins.push(pins[rng.gen_index(pins.len())]);
                }
                nets.push(Net::new(format!("n{i}"), pins));
            }
            let c = Circuit::new(format!("case{case}"), Rect::new(0, 0, 7, 7), 3, nets);
            let shared_with = c.shared_pin_cells();
            assert_eq!(shared_with, shared_pin_cells_btree_reference(&c), "case {case}");
            let warned =
                c.validate(&[]).iter().filter(|i| i.message.contains("shared with")).count();
            assert_eq!(warned, shared_with.iter().flatten().count(), "case {case}");
            shared += shared_with.iter().flatten().count();
        }
        assert!(shared > 100, "only {shared} shared pins over the cases");
    }
}
