//! Routing layers and preferred directions.

/// Preferred routing direction of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Wires run along the x axis (constant y track).
    Horizontal,
    /// Wires run along the y axis (constant x track).
    Vertical,
}

impl Orientation {
    /// The other orientation.
    ///
    /// ```
    /// use mebl_geom::Orientation;
    /// assert_eq!(Orientation::Horizontal.flipped(), Orientation::Vertical);
    /// ```
    pub const fn flipped(self) -> Self {
        match self {
            Orientation::Horizontal => Orientation::Vertical,
            Orientation::Vertical => Orientation::Horizontal,
        }
    }
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Orientation::Horizontal => write!(f, "H"),
            Orientation::Vertical => write!(f, "V"),
        }
    }
}

/// A routing layer identified by its index.
///
/// Layer 0 is the lowest metal. The stack alternates preferred directions:
/// **even layers are horizontal, odd layers are vertical** — the convention
/// assumed throughout the stitch-aware router, where stitching lines are
/// vertical and therefore only constrain vertical layers and vias.
///
/// ```
/// use mebl_geom::{Layer, Orientation};
/// assert_eq!(Layer::new(0).orientation(), Orientation::Horizontal);
/// assert_eq!(Layer::new(1).orientation(), Orientation::Vertical);
/// assert_eq!(Layer::new(1).above(), Layer::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Layer(u8);

impl Layer {
    /// Creates a layer from its index.
    pub const fn new(index: u8) -> Self {
        Self(index)
    }

    /// The layer index.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Preferred routing direction (even = horizontal, odd = vertical).
    pub const fn orientation(self) -> Orientation {
        if self.0.is_multiple_of(2) {
            Orientation::Horizontal
        } else {
            Orientation::Vertical
        }
    }

    /// `true` if this layer routes horizontally.
    pub const fn is_horizontal(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The next layer up.
    ///
    /// # Panics
    ///
    /// Panics if the index would overflow `u8`.
    pub fn above(self) -> Layer {
        Layer(self.0.checked_add(1).expect("layer index overflow"))
    }

    /// The next layer down, or `None` on layer 0.
    pub fn below(self) -> Option<Layer> {
        self.0.checked_sub(1).map(Layer)
    }

    /// Iterates over all layers `0..count`.
    ///
    /// ```
    /// use mebl_geom::Layer;
    /// let v: Vec<u8> = Layer::stack(3).map(Layer::index).collect();
    /// assert_eq!(v, vec![0, 1, 2]);
    /// ```
    pub fn stack(count: u8) -> impl Iterator<Item = Layer> {
        (0..count).map(Layer)
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u8> for Layer {
    fn from(i: u8) -> Self {
        Layer(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_orientations() {
        for i in 0..10u8 {
            let expect = if i % 2 == 0 {
                Orientation::Horizontal
            } else {
                Orientation::Vertical
            };
            assert_eq!(Layer::new(i).orientation(), expect);
        }
    }

    #[test]
    fn neighbours() {
        let m2 = Layer::new(2);
        assert_eq!(m2.above(), Layer::new(3));
        assert_eq!(m2.below(), Some(Layer::new(1)));
        assert_eq!(Layer::new(0).below(), None);
    }

    #[test]
    fn adjacent_layers_have_opposite_orientation() {
        for i in 0..9u8 {
            let a = Layer::new(i);
            assert_eq!(a.orientation().flipped(), a.above().orientation());
        }
    }

    #[test]
    fn stack_iterates_in_order() {
        let layers: Vec<Layer> = Layer::stack(4).collect();
        assert_eq!(
            layers,
            vec![Layer::new(0), Layer::new(1), Layer::new(2), Layer::new(3)]
        );
    }

    #[test]
    fn display() {
        assert_eq!(Layer::new(5).to_string(), "M5");
        assert_eq!(Orientation::Vertical.to_string(), "V");
    }
}
