//! MEBL data-preparation substrate: rasterization with error diffusion.
//!
//! MEBL is maskless: before exposure a layout is rasterized into a
//! black/white bitmap so each beam can be switched on or off per pixel
//! (paper §II-A). Rasterization has two steps:
//!
//! 1. **Rendering** — patterns become grey-level pixel intensities
//!    proportional to pattern coverage ([`render`] → [`GrayMap`]).
//! 2. **Dithering with error diffusion** — the grey map becomes a
//!    black/white map; each pixel's quantisation error is pushed to its
//!    unprocessed right/lower neighbours ([`GrayMap::dither`] →
//!    [`BitMap`]), which creates irregular pixels on feature edges.
//!
//! The paper's Fig. 4 observation is that a **short polygon** — the stub a
//! stitching line cuts off a wire — has so few pixels that these edge
//! errors dominate it, distorting the pattern under its landing via.
//! [`defect_score`] quantifies exactly that: the fraction of a feature's
//! pixels the dithered bitmap gets wrong. This crate backs the Fig. 3/4
//! reproduction and motivates the short-polygon routing constraint; the
//! router itself never calls it (as in the paper).
//!
//! ```
//! use mebl_raster::{render, FRect};
//!
//! // A 6x1-pixel wire, offset half a pixel vertically so every covered
//! // pixel is 50% grey.
//! let wire = FRect::new(0.0, 0.5, 6.0, 1.5);
//! let gray = render(&[wire], 6, 2);
//! let bw = gray.dither();
//! let score = mebl_raster::defect_score(&gray, &bw);
//! assert!(score <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// An axis-aligned rectangle in continuous pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FRect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl FRect {
    /// Creates a rectangle, normalising corner order.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Area of overlap with the unit pixel at `(px, py)`.
    fn pixel_coverage(&self, px: usize, py: usize) -> f64 {
        let (px0, py0) = (px as f64, py as f64);
        let w = (self.x1.min(px0 + 1.0) - self.x0.max(px0)).max(0.0);
        let h = (self.y1.min(py0 + 1.0) - self.y0.max(py0)).max(0.0);
        w * h
    }
}

/// A grey-level pixel map with intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayMap {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl GrayMap {
    /// Creates an all-black (zero intensity) map.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Intensity at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets intensity at `(x, y)`, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v.clamp(0.0, 1.0);
    }

    /// Dithers to black/white with Floyd–Steinberg error diffusion in
    /// raster order — the paper's Fig. 3 data-preparation step (error
    /// flows to the right and lower grids).
    ///
    /// Pixels are processed row by row, left to right; each pixel's
    /// quantisation error is pushed to its unprocessed neighbours with
    /// the Floyd–Steinberg weights, which sum to 1 so dose is conserved
    /// away from the boundary.
    pub fn dither(&self) -> BitMap {
        // (dx, dy, weight) relative to the current pixel.
        const TAPS: [(i64, i64, f64); 4] = [
            (1, 0, 7.0 / 16.0),
            (-1, 1, 3.0 / 16.0),
            (0, 1, 5.0 / 16.0),
            (1, 1, 1.0 / 16.0),
        ];
        let mut acc = self.data.clone();
        let mut bits = vec![false; self.data.len()];
        let w = self.width as i64;
        let h = self.height as i64;
        for y in 0..h {
            for x in 0..w {
                let idx = (y * w + x) as usize;
                let old = acc[idx];
                let on = old >= 0.5;
                bits[idx] = on;
                let err = old - if on { 1.0 } else { 0.0 };
                for (dx, dy, weight) in TAPS {
                    let (nx, ny) = (x + dx, y + dy);
                    if (0..w).contains(&nx) && (0..h).contains(&ny) {
                        acc[(ny * w + nx) as usize] += err * weight;
                    }
                }
            }
        }
        BitMap {
            width: self.width,
            height: self.height,
            data: bits,
        }
    }
}

/// A black/white exposure bitmap (`true` = beam on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMap {
    width: usize,
    height: usize,
    data: Vec<bool>,
}

impl BitMap {
    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether the beam is on at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }
}

/// Renders rectangles into a grey map of the given pixel dimensions.
///
/// Intensity of each pixel is its total coverage by the (assumed
/// non-overlapping) rectangles, accumulated in input order and clamped
/// to 1 after each rectangle.
pub fn render(rects: &[FRect], width: usize, height: usize) -> GrayMap {
    let mut map = GrayMap::new(width, height);
    for r in rects {
        let x_lo = (r.x0.floor().max(0.0)) as usize;
        let y_lo = (r.y0.floor().max(0.0)) as usize;
        let x_hi = (r.x1.ceil().min(width as f64)) as usize;
        let y_hi = (r.y1.ceil().min(height as f64)) as usize;
        for y in y_lo..y_hi {
            for x in x_lo..x_hi {
                let v = map.get(x, y) + r.pixel_coverage(x, y);
                map.set(x, y, v);
            }
        }
    }
    map
}

/// Fraction of *feature* pixels that the dithered bitmap exposes wrongly.
///
/// A pixel counts as wrong when the ideal exposure (grey intensity rounded
/// at 0.5, with no neighbour influence) differs from the dithered value.
/// Only pixels with non-zero intended coverage (plus lit pixels outside the
/// feature) enter the numerator; the denominator is the covered-pixel
/// count, so *small features score worse for the same absolute edge error*
/// — the paper's short-polygon failure mode.
///
/// Returns 0 for an empty feature.
pub fn defect_score(ideal: &GrayMap, exposed: &BitMap) -> f64 {
    assert_eq!(ideal.width(), exposed.width());
    assert_eq!(ideal.height(), exposed.height());
    let mut covered = 0usize;
    let mut wrong = 0usize;
    for y in 0..ideal.height() {
        for x in 0..ideal.width() {
            let g = ideal.get(x, y);
            let want = g >= 0.5;
            let got = exposed.get(x, y);
            if g > 0.0 {
                covered += 1;
                if want != got {
                    wrong += 1;
                }
            } else if got {
                // Spill outside the feature counts as error too.
                wrong += 1;
            }
        }
    }
    if covered == 0 {
        0.0
    } else {
        wrong as f64 / covered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::{f64s, vecs};
    use mebl_testkit::{prop_assert, prop_check};

    /// Number of lit pixels.
    fn lit(b: &BitMap) -> usize {
        b.data.iter().filter(|&&on| on).count()
    }

    #[test]
    fn full_coverage_renders_to_one() {
        let g = render(&[FRect::new(0.0, 0.0, 4.0, 4.0)], 4, 4);
        for y in 0..4 {
            for x in 0..4 {
                assert!((g.get(x, y) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn half_pixel_coverage() {
        let g = render(&[FRect::new(0.5, 0.0, 1.0, 1.0)], 1, 1);
        assert!((g.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dither_full_intensity_is_all_on() {
        let g = render(&[FRect::new(0.0, 0.0, 5.0, 5.0)], 5, 5);
        let b = g.dither();
        assert_eq!(lit(&b), 25);
    }

    #[test]
    fn dither_zero_intensity_is_all_off() {
        let g = GrayMap::new(5, 5);
        assert_eq!(lit(&g.dither()), 0);
    }

    #[test]
    fn dither_preserves_total_dose_approximately() {
        // A 50% grey field of 10x10 should light about half the pixels.
        let mut g = GrayMap::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                g.set(x, y, 0.5);
            }
        }
        let on = lit(&g.dither());
        assert!((40..=60).contains(&on), "on = {on}");
    }

    #[test]
    fn misaligned_short_polygon_is_heavily_defective() {
        // Fig. 4: a stitch-cut stub sits sub-pixel misaligned relative to
        // the raster grid of the second beam; error diffusion then flips a
        // large *percentage* of its few pixels, while a grid-aligned
        // feature of any size prints perfectly.
        let short = FRect::new(0.0, 0.45, 3.0, 1.45);
        let gs = render(&[short], 8, 4);
        let ss = defect_score(&gs, &gs.dither());
        assert!(ss >= 0.25, "short misaligned polygon score {ss} too benign");

        let aligned = FRect::new(0.0, 1.0, 30.0, 2.0);
        let ga = render(&[aligned], 32, 4);
        assert_eq!(defect_score(&ga, &ga.dither()), 0.0);
    }

    #[test]
    fn default_dither_is_floyd_steinberg_raster() {
        // 2x2 at 0.4, raster order: (0,0) stays off and pushes 7/16 of its
        // error right, lighting (1,0) at 0.575; what is left leaves (0,1)
        // at 0.445 and (1,1) at 0.487, both off. A serpentine scan would
        // also light (0,1); thresholding alone would light nothing.
        let mut g = GrayMap::new(2, 2);
        let pixels = [(0, 0), (1, 0), (0, 1), (1, 1)];
        for (x, y) in pixels {
            g.set(x, y, 0.4);
        }
        let b = g.dither();
        let on: Vec<bool> = pixels.iter().map(|&(x, y)| b.get(x, y)).collect();
        assert_eq!(on, [false, true, false, false]);
    }

    #[test]
    fn defect_score_zero_for_aligned_feature() {
        let g = render(&[FRect::new(1.0, 1.0, 5.0, 3.0)], 8, 4);
        let score = defect_score(&g, &g.dither());
        assert_eq!(score, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gray_get_bounds_checked() {
        GrayMap::new(2, 2).get(2, 0);
    }

    #[test]
    fn prop_render_intensity_in_unit_range() {
        prop_check!(
            (f64s(-2.0..10.0), f64s(-2.0..10.0), f64s(0.0..8.0), f64s(0.0..8.0)),
            |(x0, y0, w, h)| {
                let g = render(&[FRect::new(x0, y0, x0 + w, y0 + h)], 8, 8);
                for y in 0..8 {
                    for x in 0..8 {
                        let v = g.get(x, y);
                        prop_assert!((0.0..=1.0).contains(&v));
                    }
                }
            }
        );
    }

    #[test]
    fn prop_dither_dose_error_bounded() {
        prop_check!(vecs(f64s(0.0..1.0), 36usize), |vals| {
            // Error diffusion conserves dose up to the error pushed off the
            // boundary: |lit - total_gray| <= perimeter-ish bound.
            let mut g = GrayMap::new(6, 6);
            for (i, &v) in vals.iter().enumerate() {
                g.set(i % 6, i / 6, v);
            }
            let total: f64 = (0..36).map(|i| g.get(i % 6, i / 6)).sum();
            let on = lit(&g.dither()) as f64;
            prop_assert!((on - total).abs() <= 7.0, "on {on} vs dose {total}");
        });
    }
}
