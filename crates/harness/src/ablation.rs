//! Ablations quoted in the paper's text:
//!
//! * §III-B: "51.9% of the [hetero checkpoint] overhead comes from data
//!   copying and 48.1% comes from cache flushing".
//! * §III-D: flushing the MC state at every iteration "causes 16%
//!   performance loss" (motivating the 0.01% interval).
//! * Design alternative: undo vs redo logging cost for the same
//!   protected region (the paper uses PMDK's undo; redo is the classic
//!   counterpart).

use adcc_core::mc::sim::{McMode, McSim};
use adcc_linalg::spd::CgClass;
use adcc_pmem::redo::RedoPool;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashTrigger};
use adcc_sim::line::LINE_SIZE;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

use crate::cases::Case;
use crate::fig10::McDims;
use crate::fig4;
use crate::platform::{Platform, Scale};
use crate::report::Table;

/// Checkpoint-overhead breakdown on the heterogeneous platform (Fig. 4's
/// text): share of copy vs flush in the total persistence overhead.
pub fn ckpt_breakdown(scale: Scale) -> Table {
    breakdown(fig4::class_for(scale), 41)
}

/// [`ckpt_breakdown`] of one CG class: the overhead is the NVM/DRAM
/// checkpoint run over the native run on the same platform.
fn breakdown(class: CgClass, seed: u64) -> Table {
    let native = fig4::time_on(Case::Native, Platform::Hetero, class, seed);
    let hetero = fig4::time_on(Case::CkptNvmDram, Platform::Hetero, class, seed);
    let overhead = hetero.loop_ps.saturating_sub(native.loop_ps).max(1);
    let copy_share = hetero.copy_ps as f64 / (hetero.copy_ps + hetero.flush_ps).max(1) as f64;

    let mut t = Table::new(
        "Ablation — NVM/DRAM checkpoint overhead breakdown (CG)",
        &["component", "time (ms)", "share of copy+flush"],
    );
    t.row(vec![
        "data copying".into(),
        format!("{:.2}", hetero.copy_ps as f64 / 1e9),
        format!("{:.1}%", copy_share * 100.0),
    ]);
    t.row(vec![
        "cache flushing (CLFLUSH + DRAM-cache drain)".into(),
        format!("{:.2}", hetero.flush_ps as f64 / 1e9),
        format!("{:.1}%", (1.0 - copy_share) * 100.0),
    ]);
    t.note(format!(
        "Total checkpoint overhead: {:.2} ms over native. Paper: 51.9% copying / 48.1% flushing.",
        overhead as f64 / 1e9
    ));
    t
}

/// MC flush-frequency ablation (the paper's 16% every-iteration figure).
pub fn mc_flush_frequency(scale: Scale) -> Table {
    let dims = McDims::for_scale(scale);
    let p = dims.problem(11);
    let cap = dims.nvm_capacity(&p);
    let time_with = |mode: McMode| -> u64 {
        let cfg = Platform::Hetero.mc_config(cap);
        let mut sys = MemorySystem::new(cfg);
        let mc = McSim::setup(&mut sys, p.clone(), dims.lookups, 11, mode);
        let t0 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, dims.lookups).completed().unwrap();
        (emu.now() - t0).ps()
    };
    let native = time_with(McMode::Native);
    let every = time_with(McMode::EveryIteration);
    let selective = time_with(McMode::Selective {
        interval: dims.interval(),
    });

    let mut t = Table::new(
        "Ablation — MC state-flush frequency (NVM/DRAM platform)",
        &["policy", "normalized time", "overhead"],
    );
    for (name, ps) in [
        ("no flushing", native),
        ("every iteration", every),
        ("every 0.01% of lookups (paper's policy)", selective),
    ] {
        let norm = ps as f64 / native as f64;
        t.row(vec![
            name.into(),
            format!("{norm:.4}"),
            crate::report::pct_overhead(norm),
        ]);
    }
    t.note("Paper: every-iteration flushing costs 16%; the 0.01% interval is negligible.");
    t
}

/// Undo- vs redo-log cost for protecting and committing the same region.
pub fn undo_vs_redo() -> Table {
    let region_lines = 64usize;
    let cfg = Platform::NvmOnly.mc_config(16 << 20);

    // Undo: snapshot pre-images, modify in place, commit.
    let undo_ps = {
        let mut sys = MemorySystem::new(cfg.clone());
        let data = PArray::<f64>::alloc_nvm(&mut sys, region_lines * 8);
        let mut pool = UndoPool::new(&mut sys, region_lines + 4);
        let t0 = sys.now();
        pool.tx_begin(&mut sys);
        pool.tx_add_range(&mut sys, data.base(), data.byte_len());
        for i in 0..data.len() {
            data.set(&mut sys, i, i as f64);
        }
        pool.tx_commit(&mut sys);
        (sys.now() - t0).ps()
    };

    // Redo: stage new values in the log, apply at commit.
    let redo_ps = {
        let mut sys = MemorySystem::new(cfg);
        let data = PArray::<f64>::alloc_nvm(&mut sys, region_lines * 8);
        let mut pool = RedoPool::new(&mut sys, region_lines + 4);
        let t0 = sys.now();
        pool.tx_begin();
        for line in 0..region_lines {
            let mut payload = [0u8; LINE_SIZE];
            for w in 0..8 {
                let v = (line * 8 + w) as f64;
                payload[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            pool.tx_stage_line(&mut sys, data.base() + (line * LINE_SIZE) as u64, &payload);
        }
        pool.tx_commit(&mut sys);
        (sys.now() - t0).ps()
    };

    let mut t = Table::new(
        "Ablation — undo vs redo logging (one transaction over a 4 KiB region)",
        &["scheme", "time (us)"],
    );
    t.row(vec![
        "undo log".into(),
        format!("{:.1}", undo_ps as f64 / 1e6),
    ]);
    t.row(vec![
        "redo log".into(),
        format!("{:.1}", redo_ps as f64 / 1e6),
    ]);
    t.note("Undo pays per-line ordering fences at snapshot time; redo defers them to commit.");
    t
}

/// The paper's §III-C rank tradeoff: "a smaller k results in larger
/// number of temporal matrices (more memory consumption) and smaller
/// recomputation cost".
pub fn mm_rank_tradeoff(scale: Scale) -> Table {
    use adcc_core::abft::{sites, TwoLoopAbft};
    use adcc_linalg::dense::Matrix;
    use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger};

    let n = if scale.is_quick() { 64 } else { 192 };
    let ranks: &[usize] = if scale.is_quick() {
        &[8, 16, 32]
    } else {
        &[16, 32, 64]
    };
    let a = Matrix::random(n, n, 61);
    let b = Matrix::random(n, n, 62);

    let mut t = Table::new(
        format!("Ablation — ABFT rank size k: memory vs recomputation (n = {n})"),
        &[
            "k",
            "temporal matrices",
            "temporal memory (MiB)",
            "recompute after loop-1 crash (ms)",
        ],
    );
    for &k in ranks {
        let blocks = n / k;
        let mem_bytes = blocks * (n + 1) * (n + 1) * 8;
        let cfg = Platform::Hetero.mm_config(crate::fig7::mm_nvm_capacity(n, k));
        let mut sys = MemorySystem::new(cfg.clone());
        let mm = TwoLoopAbft::setup(&mut sys, &a, &b, k);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOP1, blocks as u64 - 1),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mm.run(&mut emu).crashed().expect("crash in last block");
        let (_, rec) = mm.recover_and_resume(&image, cfg);
        t.row(vec![
            k.to_string(),
            blocks.to_string(),
            format!("{:.2}", mem_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", rec.report.resume_time.ps() as f64 / 1e9),
        ]);
    }
    t.note("Paper §III-C: smaller k -> more temporal-matrix memory, less recomputation per lost block.");
    t
}

/// All ablations.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![
        ckpt_breakdown(scale),
        mc_flush_frequency(scale),
        undo_vs_redo(),
        mm_rank_tradeoff(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_overhead_is_over_native_on_the_same_platform() {
        let class = CgClass::TEST;
        let on = |case| fig4::time_on(case, Platform::Hetero, class, 41).loop_ps;
        let overhead = on(Case::CkptNvmDram) - on(Case::Native);
        let note = format!(
            "Total checkpoint overhead: {:.2} ms over native.",
            overhead as f64 / 1e9
        );
        let t = breakdown(class, 41);
        assert!(
            t.notes.iter().any(|n| n.starts_with(&note)),
            "{:?}",
            t.notes
        );
        // The NVM-only native run is a different platform's baseline.
        let nvm_only = fig4::time_on(Case::Native, Platform::NvmOnly, class, 41).loop_ps;
        assert_ne!(nvm_only, on(Case::Native));
    }

    #[test]
    fn undo_redo_table_has_two_rows() {
        let t = undo_vs_redo();
        assert_eq!(t.rows.len(), 2);
    }
}
