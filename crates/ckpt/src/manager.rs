//! A uniform front-end over the checkpoint mechanisms.
//!
//! Experiment code registers the critical data objects once and calls
//! `checkpoint`/`restore` regardless of target — exactly how the paper's
//! seven test cases swap mechanisms while keeping the application fixed.

use adcc_sim::system::MemorySystem;
use adcc_sim::timing::HddTiming;

use crate::hdd::HddCheckpoint;
use crate::mem::MemCheckpoint;

/// Which device backs the checkpoints.
pub enum CkptTarget {
    /// Double-buffered region in NVM (optionally draining the DRAM cache,
    /// as the heterogeneous platform requires).
    Nvm(MemCheckpoint),
    /// Local hard drive.
    Hdd(HddCheckpoint),
}

/// Checkpoint manager: registered regions plus a target.
pub struct CkptManager {
    regions: Vec<(u64, usize)>,
    target: CkptTarget,
}

impl CkptManager {
    /// NVM-backed manager sized for the registered regions.
    pub fn new_nvm(sys: &mut MemorySystem, regions: Vec<(u64, usize)>, drain_dram: bool) -> Self {
        let total: usize = regions.iter().map(|r| r.1).sum();
        let mem = MemCheckpoint::new(sys, total.max(64), drain_dram);
        CkptManager {
            regions,
            target: CkptTarget::Nvm(mem),
        }
    }

    /// HDD-backed manager.
    pub fn new_hdd(regions: Vec<(u64, usize)>, timing: HddTiming) -> Self {
        CkptManager {
            regions,
            target: CkptTarget::Hdd(HddCheckpoint::new(timing)),
        }
    }

    /// The registered regions.
    pub fn regions(&self) -> &[(u64, usize)] {
        &self.regions
    }

    /// Take a checkpoint; returns its sequence number.
    pub fn checkpoint(&mut self, sys: &mut MemorySystem) -> u64 {
        match &mut self.target {
            CkptTarget::Nvm(m) => m.checkpoint(sys, &self.regions),
            CkptTarget::Hdd(h) => h.checkpoint(sys, &self.regions),
        }
    }

    /// Restore the newest valid checkpoint; returns its sequence number.
    pub fn restore(&self, sys: &mut MemorySystem) -> Option<u64> {
        match &self.target {
            CkptTarget::Nvm(m) => m.restore(sys, &self.regions),
            CkptTarget::Hdd(h) => h.restore(sys, &self.regions),
        }
    }

    /// Access the underlying target (e.g. for layout extraction).
    pub fn target(&self) -> &CkptTarget {
        &self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::parray::PArray;
    use adcc_sim::system::SystemConfig;

    #[test]
    fn manager_roundtrip_nvm() {
        let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        let a = PArray::<f64>::alloc_nvm(&mut s, 16);
        a.store_slice(&mut s, &[1.0; 16]);
        let mut m = CkptManager::new_nvm(&mut s, vec![(a.base(), a.byte_len())], false);
        let seq = m.checkpoint(&mut s);
        a.fill(&mut s, 0.0);
        assert_eq!(m.restore(&mut s), Some(seq));
        assert_eq!(a.load_vec(&mut s), vec![1.0; 16]);
    }

    #[test]
    fn manager_roundtrip_hdd() {
        let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        let a = PArray::<f64>::alloc_nvm(&mut s, 16);
        a.store_slice(&mut s, &[2.0; 16]);
        let mut m = CkptManager::new_hdd(vec![(a.base(), a.byte_len())], HddTiming::local_disk());
        let seq = m.checkpoint(&mut s);
        a.fill(&mut s, 0.0);
        assert_eq!(m.restore(&mut s), Some(seq));
        assert_eq!(a.load_vec(&mut s), vec![2.0; 16]);
    }

    #[test]
    fn hetero_checkpoint_drains_dram_cache() {
        let mut s = MemorySystem::new(SystemConfig::heterogeneous(4096, 16384, 1 << 20));
        let a = PArray::<f64>::alloc_nvm(&mut s, 16);
        a.store_slice(&mut s, &[3.0; 16]);
        let mut m = CkptManager::new_nvm(&mut s, vec![(a.base(), a.byte_len())], true);
        m.checkpoint(&mut s);
        assert!(s.stats().dram_drains >= 1);
        // Checkpointed data survives a crash even on the hetero platform.
        let img = s.crash();
        let mut s2 =
            MemorySystem::from_image(SystemConfig::heterogeneous(4096, 16384, 1 << 20), &img);
        a.fill(&mut s2, 0.0);
        assert_eq!(m.restore(&mut s2), Some(1));
        assert_eq!(a.load_vec(&mut s2), vec![3.0; 16]);
    }
}
