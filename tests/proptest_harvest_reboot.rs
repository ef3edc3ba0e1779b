//! Harvest-vs-crash reboot equivalence: a crash state captured by an
//! armed harvest plan (a copy-on-write `DeltaImage` taken mid-superstep,
//! while the execution keeps running) must reboot into exactly the machine
//! a per-trial crash at the same poll site produces.
//!
//! Two layers:
//!
//! 1. A sim-level property over random partially-persisted workloads: at
//!    *every* poll site, `materialize()` of the harvested delta is
//!    byte-identical to the `crash_now` image of a dedicated triggered
//!    run, carries the same dirty-residency metadata, and a
//!    `MemorySystem::from_image` reboot from either reads the same values
//!    at the same simulated time.
//! 2. A cluster-level check that `Cluster::reboot_rank` re-aligns the
//!    rebooted rank's clock to the same frontier — with the same
//!    `Detect`-bucket restart charge — whether the image came from
//!    `crash_rank` or from a materialized mid-superstep harvest.

use proptest::prelude::*;

use adcc::dist::cluster::{Cluster, ClusterConfig};
use adcc::dist::net::NetTiming;
use adcc::sim::clock::Bucket;
use adcc::sim::crash::{CrashEmulator, CrashSite, CrashTrigger};
use adcc::sim::parray::PArray;
use adcc::sim::system::{MemorySystem, SystemConfig};

fn cfg() -> SystemConfig {
    SystemConfig::nvm_only(4 << 10, 1 << 20)
}

/// One epoch of a random workload: per-element stores, a persisted prefix
/// (flush + fence), and a dirty tail left in the volatile hierarchy — the
/// "mid-superstep" shape where a crash image and the live machine differ
/// the most.
#[derive(Debug, Clone)]
struct Epoch {
    values: Vec<u64>,
    persist_prefix: usize,
}

fn epoch_strategy() -> impl Strategy<Value = Epoch> {
    (proptest::collection::vec(any::<u64>(), 16), 0usize..=16).prop_map(
        |(values, persist_prefix)| Epoch {
            values,
            persist_prefix,
        },
    )
}

const PHASE: u32 = 7;

/// Drive `epochs` through `emu`, polling site `(PHASE, e)` after each
/// epoch (1-based). Returns the array handle; stops early (after the
/// fired poll) when the emulator's trigger fires.
fn drive(emu: &mut CrashEmulator, epochs: &[Epoch]) -> PArray<u64> {
    let a = PArray::<u64>::alloc_nvm(emu.system_mut(), 16);
    for (k, ep) in epochs.iter().enumerate() {
        let sys = emu.system_mut();
        a.store_slice(sys, &ep.values);
        a.slice(0, ep.persist_prefix).persist_all(sys);
        if emu.poll(CrashSite::new(PHASE, k as u64 + 1)) {
            break;
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn materialized_harvest_reboots_like_a_per_trial_crash_at_every_site(
        epochs in proptest::collection::vec(epoch_strategy(), 1..5),
    ) {
        // Batch: one execution, every poll site harvested.
        let mut batch = CrashEmulator::from_system(MemorySystem::new(cfg()), CrashTrigger::Never);
        batch.arm_harvest((1..=epochs.len() as u64).map(|e| {
            (
                CrashTrigger::AtSite {
                    site: CrashSite::new(PHASE, e),
                    occurrence: 1,
                },
                e,
            )
        }));
        let batch_arr = drive(&mut batch, &epochs);
        let harvests = batch.take_harvests();
        prop_assert_eq!(harvests.len(), epochs.len());

        for h in &harvests {
            // Per-trial: a dedicated run crashing at this site.
            let mut per = CrashEmulator::from_system(
                MemorySystem::new(cfg()),
                CrashTrigger::AtSite { site: h.site, occurrence: 1 },
            );
            let per_arr = drive(&mut per, &epochs);
            prop_assert!(per.fired());
            let per_now = per.system().now().ps();
            let crashed = per.crash_now();

            // The materialized harvest is the per-trial image, byte for
            // byte, dirty-residency metadata included.
            let materialized = h.image.materialize();
            prop_assert_eq!(materialized, crashed, "site {:?}", h.site);
            prop_assert_eq!(
                materialized.dirty_lines_at_crash(),
                crashed.dirty_lines_at_crash(),
                "site {:?}",
                h.site
            );

            // Reboot both: same NVM contents, same boot clock.
            let from_harvest = MemorySystem::from_image(cfg(), &materialized);
            let from_crash = MemorySystem::from_image(cfg(), &crashed);
            prop_assert_eq!(from_harvest.now().ps(), from_crash.now().ps());
            for i in 0..16 {
                prop_assert_eq!(
                    batch_arr.peek(&from_harvest, i),
                    per_arr.peek(&from_crash, i),
                    "site {:?} element {i}",
                    h.site
                );
            }

            // The capture was uncharged: the shared execution's clock at
            // the capture instant equals the per-trial clock at its crash.
            prop_assert_eq!(h.at.now_ps, per_now, "site {:?}", h.site);
        }
    }
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        ranks: 4,
        sys: SystemConfig::nvm_only(4 << 10, 1 << 16),
        net: NetTiming::cluster_2017(),
        net_seed: 42,
        faults: adcc::dist::net::FaultPlan::none(),
    }
}

/// Drive an identical two-superstep store pattern on every rank of `cl`,
/// leaving a dirty tail unpersisted (mid-superstep state), polling
/// `(PHASE, step)` on every rank in rank order at each boundary. Returns
/// the per-rank arrays and the crash image the armed rank produced, if
/// its poll fired.
fn drive_cluster(
    cl: &mut Cluster,
    armed: usize,
) -> (Vec<PArray<u64>>, Option<adcc::sim::image::NvmImage>) {
    let arrays: Vec<PArray<u64>> = (0..cl.ranks())
        .map(|r| PArray::<u64>::alloc_nvm(cl.system_mut(r), 16))
        .collect();
    for step in 1..=2u64 {
        for (r, a) in arrays.iter().enumerate() {
            let sys = cl.system_mut(r);
            a.fill(sys, step * 10 + r as u64);
            a.slice(0, 8).persist_all(sys);
        }
        let site = CrashSite::new(PHASE, step);
        for r in 0..cl.ranks() {
            if cl.poll(r, site) {
                let image = cl.crash_rank(r);
                return (arrays, Some(image));
            }
        }
        cl.barrier();
    }
    (arrays, Some(cl.crash_rank(armed)))
}

#[test]
fn reboot_rank_aligns_identically_for_crash_and_materialized_harvest_images() {
    let armed = 1usize;
    let site = CrashSite::new(PHASE, 2);
    let trigger = CrashTrigger::AtSite {
        site,
        occurrence: 1,
    };

    // Per-trial: rank 1 crashes at the second mid-superstep boundary.
    let mut per = Cluster::new(cluster_cfg(), Some((armed, trigger)));
    let (per_arrays, per_image) = drive_cluster(&mut per, armed);
    let per_image = per_image.expect("trigger fired");

    // Batch: same execution with a harvest plan; the poll captures
    // instead of crashing, and the drain at the boundary materializes.
    let mut batch = Cluster::new(cluster_cfg(), None);
    batch.arm_harvest(armed, [(trigger, 7u64)]);
    let arrays: Vec<PArray<u64>> = (0..batch.ranks())
        .map(|r| PArray::<u64>::alloc_nvm(batch.system_mut(r), 16))
        .collect();
    let mut harvested = None;
    for step in 1..=2u64 {
        for (r, a) in arrays.iter().enumerate() {
            let sys = batch.system_mut(r);
            a.fill(sys, step * 10 + r as u64);
            a.slice(0, 8).persist_all(sys);
        }
        let s = CrashSite::new(PHASE, step);
        for r in 0..batch.ranks() {
            assert!(!batch.poll(r, s), "armed harvest must not crash");
        }
        let mut drained = batch.drain_harvests(armed);
        if let Some(h) = drained.pop() {
            assert_eq!(h.site, site);
            harvested = Some(h.image.materialize());
            break; // replay happens at the drain boundary, like the driver
        }
        batch.barrier();
    }
    let batch_image = harvested.expect("harvest captured");
    assert_eq!(batch_image, per_image, "images identical");

    // Reboot both clusters' armed rank from their respective images: the
    // clock re-alignment (frontier, Detect restart charge) and the
    // restored NVM must be indistinguishable.
    per.reboot_rank(armed, &per_image);
    batch.reboot_rank(armed, &batch_image);
    assert_eq!(per.max_now_ps(), batch.max_now_ps(), "frontiers match");
    for r in 0..per.ranks() {
        assert_eq!(
            per.system(r).now().ps(),
            batch.system(r).now().ps(),
            "rank {r} clock"
        );
    }
    assert_eq!(
        per.system(armed).clock().bucket_total(Bucket::Detect).ps(),
        batch
            .system(armed)
            .clock()
            .bucket_total(Bucket::Detect)
            .ps(),
        "restart latency charge"
    );
    assert!(per.system(armed).clock().bucket_total(Bucket::Detect).ps() > 0);
    for i in 0..16 {
        assert_eq!(
            per_arrays[armed].peek(per.system(armed), i),
            arrays[armed].peek(batch.system(armed), i),
            "element {i}"
        );
    }
}
