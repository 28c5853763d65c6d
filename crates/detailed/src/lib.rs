//! Stitch-aware detailed routing (paper §III-D).
//!
//! The final stage realises every net on the full track grid. Assigned
//! segments from track assignment are pre-placed as **seeds**; a dense-grid
//! Dial (bucket-queue) search — with precomputed per-column cost layers and
//! solver state reused across nets — then performs pin-to-segment and
//! segment-to-segment connection with the stitch-aware weighted grid cost
//! of eq. (10):
//!
//! `Cgrid(j) = Cgrid(i) + α·Cwl(i,j) + β·Cvsu(i,j) + γ·Cesc(j)`
//!
//! * `Cwl` — wirelength (and via) cost of the step;
//! * `Cvsu` — large cost for a z-move (via) inside a stitch unfriendly
//!   region, so line ends avoid landing vias there;
//! * `Cesc` — cost for occupying the **escape region** (the four tracks
//!   nearest a stitching line), reserving it for paths that must cross.
//!
//! Hard constraints are enforced structurally: wires may only cross a
//! stitching line in the x-direction, and z-moves on a line are allowed
//! only at the net's own fixed pins. **Stitch-aware net ordering** routes
//! nets with more bad ends first (Fig. 14). Both stitch levers can be
//! switched off ([`DetailedConfig`]) to reproduce the "w/o stitch
//! consideration" detailed router of Table VIII.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod grid;
mod router;
mod seeds;

pub use dense::GridWindow;
pub use grid::DetailedGrid;
pub use router::{route_detailed, route_incremental, DetailedConfig, DetailedResult, BLOCKAGE_NET};
pub use seeds::realize_seeds;
