//! Integer grid geometry for the MEBL stitch-aware routing stack.
//!
//! Everything in the routing stack works on a uniform track grid where one
//! unit equals one routing pitch. This crate provides the shared geometric
//! vocabulary: [`Point`], [`Interval`], [`Rect`], [`Layer`] (with its
//! preferred routing [`Orientation`]), wire [`Segment`]s, [`Via`]s and the
//! per-net [`RouteGeometry`] that the violation checker consumes.
//!
//! # Conventions
//!
//! * Coordinates are `i32` track indices; the origin is the lower-left
//!   corner of the chip.
//! * Even layer indices route **horizontally** (along x), odd indices route
//!   **vertically** (along y). Layer 0 is the lowest metal.
//! * Stitching lines (defined in `mebl-stitch`) are vertical `x = const`
//!   lines, so horizontal wires *cross* them and vertical wires may
//!   illegally *ride* them.
//!
//! # Examples
//!
//! ```
//! use mebl_geom::{Layer, Orientation, Point, Segment};
//!
//! let m1 = Layer::new(0);
//! assert_eq!(m1.orientation(), Orientation::Horizontal);
//!
//! let seg = Segment::horizontal(m1, 7, 2, 12);
//! assert_eq!(seg.len(), 10);
//! assert!(seg.contains_point(Point::new(5, 7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod layer;
mod point;
mod rect;
mod wire;

pub use interval::Interval;
pub use layer::{Layer, Orientation};
pub use point::{GridPoint, Point};
pub use rect::Rect;
pub use wire::{RouteGeometry, Segment, Via};

/// Scalar coordinate type used across the stack (one unit = one pitch).
pub type Coord = i32;
