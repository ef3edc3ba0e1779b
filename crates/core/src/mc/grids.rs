//! XSBench-like nuclide/energy grids and materials.
//!
//! The Hoogenboom–Martin reactor model drives XSBench's defaults: 12
//! materials, fuel containing 34 nuclides, large read-only energy/cross-
//! section grids. We reproduce the structure at configurable scale: each
//! nuclide has a sorted energy grid of `grid_points` entries with 5
//! cross-section values per point; a lookup binary-searches the grid of
//! every nuclide in the sampled material and interpolates.

use std::sync::Arc;

use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

use super::rng::{mix64, unit_f64};
use super::XS_CHANNELS;

/// Host-side description of the MC problem. The grids are immutable and
/// shared, so a clone (every `McSim` holds one) costs the material lists,
/// not the grid data.
#[derive(Debug, Clone)]
pub struct McProblem {
    pub n_nuclides: usize,
    pub grid_points: usize,
    /// Per-material nuclide lists; material 0 is fuel (the largest).
    pub materials: Vec<Vec<u16>>,
    /// Cumulative material-selection distribution.
    pub mat_cdf: Vec<f64>,
    /// Sorted energies, nuclide-major: `energy[nuc * grid_points + g]`.
    pub energy: Arc<[f64]>,
    /// Cross sections: `xs[(nuc * grid_points + g) * 5 + c]`.
    pub xs: Arc<[f64]>,
}

/// XSBench's material-selection probabilities (H-M model, `pick_mat`).
const MAT_PROBS: [f64; 12] = [
    0.140, 0.052, 0.275, 0.134, 0.154, 0.064, 0.066, 0.055, 0.008, 0.015, 0.025, 0.013,
];

/// XSBench's H-M-small per-material nuclide counts (fuel first).
const MAT_NUCLIDES: [usize; 12] = [34, 5, 4, 4, 27, 21, 21, 21, 21, 21, 9, 9];

impl McProblem {
    /// Generate a deterministic problem. `n_nuclides` should be at least
    /// 34 + 34 = 68 (fuel nuclides are `0..34`, others drawn from the
    /// rest, as in the paper's "34 fuel nuclides in a Hoogenboom-Martin
    /// reactor model").
    pub fn generate(n_nuclides: usize, grid_points: usize, seed: u64) -> Self {
        assert!(n_nuclides >= 35, "need at least 35 nuclides");
        assert!(grid_points >= 2);
        // Materials: fuel gets nuclides 0..34; the rest sample from the
        // full range deterministically.
        let mut materials = Vec::with_capacity(12);
        materials.push((0u16..34).collect::<Vec<u16>>());
        for (m, &count) in MAT_NUCLIDES.iter().enumerate().skip(1) {
            let mut list = Vec::with_capacity(count);
            let mut x = mix64(seed ^ (m as u64) << 32);
            for _ in 0..count {
                x = mix64(x);
                list.push((x % n_nuclides as u64) as u16);
            }
            list.sort_unstable();
            list.dedup();
            materials.push(list);
        }
        let total: f64 = MAT_PROBS.iter().sum();
        let mut acc = 0.0;
        let mat_cdf = MAT_PROBS
            .iter()
            .map(|p| {
                acc += p / total;
                acc
            })
            .collect();

        // Energy grids: sorted uniform-with-jitter in (0, 1); cross
        // sections positive in (0.1, 1.1).
        let mut energy = Vec::with_capacity(n_nuclides * grid_points);
        let mut xs = Vec::with_capacity(n_nuclides * grid_points * XS_CHANNELS);
        for nuc in 0..n_nuclides as u64 {
            for g in 0..grid_points as u64 {
                let jitter = unit_f64(mix64(seed ^ (nuc << 32) ^ g));
                let e = (g as f64 + jitter) / grid_points as f64;
                energy.push(e);
                for c in 0..XS_CHANNELS as u64 {
                    let v = 0.1 + unit_f64(mix64(seed ^ (nuc << 40) ^ (g << 8) ^ c));
                    xs.push(v);
                }
            }
        }
        McProblem {
            n_nuclides,
            grid_points,
            materials,
            mat_cdf,
            energy: energy.into(),
            xs: xs.into(),
        }
    }

    /// Select a material from a unit sample.
    pub fn pick_material(&self, u: f64) -> usize {
        self.mat_cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.mat_cdf.len() - 1)
    }

    /// Grid bytes (for sizing the simulated NVM).
    pub fn grid_bytes(&self) -> usize {
        (self.energy.len() + self.xs.len()) * 8
    }
}

/// The grids resident in simulated NVM (read-only at run time).
#[derive(Clone, Copy)]
pub struct SimMcGrids {
    pub energy: PArray<f64>,
    pub xs: PArray<f64>,
    pub n_nuclides: usize,
    pub grid_points: usize,
}

impl SimMcGrids {
    /// Seed the problem's grids into NVM (uncharged input state).
    pub fn seed_from(sys: &mut MemorySystem, p: &McProblem) -> Self {
        let energy = PArray::<f64>::alloc_nvm(sys, p.energy.len());
        let xs = PArray::<f64>::alloc_nvm(sys, p.xs.len());
        energy.seed_slice(sys, &p.energy);
        xs.seed_slice(sys, &p.xs);
        SimMcGrids {
            energy,
            xs,
            n_nuclides: p.n_nuclides,
            grid_points: p.grid_points,
        }
    }
}

/// The memory one lookup runs against: the two read-only grids, the
/// five-element `macro_xs` accumulator and the flop meter. The lookup's
/// arithmetic ([`search`], [`interpolate`], `McSim::lookup`) is written once
/// over this trait, so the simulated run and the host-side tally of
/// `McSim::recover_and_resume` cannot drift apart.
pub(super) trait LookupMem {
    /// `energy[i]` (nuclide-major, as [`McProblem::energy`]).
    fn energy(&mut self, i: usize) -> f64;
    /// `xs[i]` (as [`McProblem::xs`]).
    fn xs(&mut self, i: usize) -> f64;
    /// `macro_xs[c]`.
    fn macro_xs(&mut self, c: usize) -> f64;
    /// `macro_xs[c] = v`.
    fn set_macro_xs(&mut self, c: usize, v: f64);
    /// Account `n` floating-point operations.
    fn charge_flops(&mut self, n: u64);
}

/// [`LookupMem`] over the simulated machine: every element access is a
/// charged `PArray` access, every flop lands on the simulated clock.
pub(super) struct Charged<'a> {
    pub(super) sys: &'a mut MemorySystem,
    pub(super) grids: SimMcGrids,
    pub(super) macro_xs: PArray<f64>,
}

impl LookupMem for Charged<'_> {
    #[inline]
    fn energy(&mut self, i: usize) -> f64 {
        self.grids.energy.get(self.sys, i)
    }
    #[inline]
    fn xs(&mut self, i: usize) -> f64 {
        self.grids.xs.get(self.sys, i)
    }
    #[inline]
    fn macro_xs(&mut self, c: usize) -> f64 {
        self.macro_xs.get(self.sys, c)
    }
    #[inline]
    fn set_macro_xs(&mut self, c: usize, v: f64) {
        self.macro_xs.set(self.sys, c, v);
    }
    #[inline]
    fn charge_flops(&mut self, n: u64) {
        self.sys.charge_flops(n);
    }
}

/// Binary search nuclide `nuc`'s energy grid for the last index with
/// `energy[idx] <= e` (clamped to `grid_points - 2` so idx+1 is valid).
#[inline]
pub(super) fn search<M: LookupMem>(mem: &mut M, grid_points: usize, nuc: usize, e: f64) -> usize {
    let base = nuc * grid_points;
    let mut lo = 0usize;
    let mut hi = grid_points - 1;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        let v = mem.energy(base + mid);
        if v <= e {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo.min(grid_points - 2)
}

/// Interpolate the five cross sections of nuclide `nuc` at energy `e`
/// between grid points `g` and `g+1`.
#[inline]
pub(super) fn interpolate<M: LookupMem>(
    mem: &mut M,
    grid_points: usize,
    nuc: usize,
    g: usize,
    e: f64,
) -> [f64; XS_CHANNELS] {
    let base = nuc * grid_points;
    let e0 = mem.energy(base + g);
    let e1 = mem.energy(base + g + 1);
    let f = if e1 > e0 { (e - e0) / (e1 - e0) } else { 0.0 };
    let f = f.clamp(0.0, 1.0);
    let mut out = [0.0; XS_CHANNELS];
    let row0 = (base + g) * XS_CHANNELS;
    let row1 = (base + g + 1) * XS_CHANNELS;
    for (c, o) in out.iter_mut().enumerate() {
        let lo = mem.xs(row0 + c);
        let hi = mem.xs(row1 + c);
        *o = lo + f * (hi - lo);
    }
    mem.charge_flops(3 + 3 * XS_CHANNELS as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::system::SystemConfig;

    fn charged<'a>(sys: &'a mut MemorySystem, p: &McProblem) -> Charged<'a> {
        let grids = SimMcGrids::seed_from(sys, p);
        let macro_xs = PArray::<f64>::alloc_nvm(sys, XS_CHANNELS);
        Charged {
            sys,
            grids,
            macro_xs,
        }
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let p = McProblem::generate(40, 64, 1);
        let q = McProblem::generate(40, 64, 1);
        assert_eq!(p.energy, q.energy);
        assert_eq!(p.materials.len(), 12);
        assert_eq!(p.materials[0].len(), 34);
        assert_eq!(p.energy.len(), 40 * 64);
        assert_eq!(p.xs.len(), 40 * 64 * 5);
    }

    #[test]
    fn energy_grids_are_sorted_per_nuclide() {
        let p = McProblem::generate(36, 128, 2);
        for nuc in 0..p.n_nuclides {
            let g = &p.energy[nuc * 128..(nuc + 1) * 128];
            assert!(g.windows(2).all(|w| w[0] <= w[1]), "nuclide {nuc} unsorted");
        }
    }

    #[test]
    fn material_cdf_covers_unit_interval() {
        let p = McProblem::generate(36, 16, 3);
        assert!((p.mat_cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(p.pick_material(0.0), 0);
        assert_eq!(p.pick_material(1.0), 11);
    }

    #[test]
    fn search_brackets_energy() {
        let p = McProblem::generate(36, 256, 4);
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(
            32 << 10,
            (p.grid_bytes() + (1 << 20)).next_power_of_two(),
        ));
        let mut mem = charged(&mut sys, &p);
        for &e in &[0.001, 0.25, 0.5, 0.75, 0.999] {
            for nuc in [0usize, 17, 35] {
                let idx = search(&mut mem, 256, nuc, e);
                let base = nuc * 256;
                let lo = p.energy[base + idx];
                let hi = p.energy[base + idx + 1];
                // e is inside or clamped to an end bracket.
                assert!(
                    (lo <= e && e <= hi) || idx == 0 || idx == 254,
                    "nuc {nuc} e {e}: [{lo}, {hi}] idx {idx}"
                );
            }
        }
    }

    #[test]
    fn interpolation_is_convex() {
        let p = McProblem::generate(36, 64, 5);
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(32 << 10, 8 << 20));
        let mut mem = charged(&mut sys, &p);
        let e = 0.4;
        let idx = search(&mut mem, 64, 3, e);
        let out = interpolate(&mut mem, 64, 3, idx, e);
        for (c, v) in out.iter().enumerate() {
            let lo = p.xs[(3 * 64 + idx) * 5 + c];
            let hi = p.xs[(3 * 64 + idx + 1) * 5 + c];
            let (mn, mx) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            assert!(*v >= mn - 1e-12 && *v <= mx + 1e-12);
        }
    }
}
