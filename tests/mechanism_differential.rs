//! The cross-mechanism differential oracle (ROADMAP item 1(c), first row):
//! same kernel, same problem seed ⇒ the same completed answer. Native,
//! checkpoint and undo-log runs of a plain kernel share their arithmetic
//! and differ only in what they persist, so their answers are equal *bit
//! for bit*; the extended (or checksum) kernel lays its data out
//! differently and agrees within the campaign scenario's tolerance. One
//! function over [`Baseline`], instantiated at the campaign's problems.

mod common;

use adcc::core::baseline::{Baseline, Mechanism};
use adcc::core::iterative::Extended;
use adcc::prelude::*;

/// Run the kernel `setup` builds to completion under each mechanism and
/// compare with `extended`, the algorithm-directed kernel's answer.
fn mechanisms_agree<K: Baseline>(
    cfg: SystemConfig,
    setup: impl Fn(&mut MemorySystem) -> (K, K::Carry),
    extended: Vec<f64>,
    tol: f64,
) where
    K::Answer: Into<Vec<f64>>,
{
    // `Some(ckpt)`: a checkpoint or a transaction every unit.
    let arms = [
        ("native", None),
        ("checkpoint", Some(true)),
        ("undo-log", Some(false)),
    ];
    let answers: Vec<Vec<u64>> = arms
        .iter()
        .map(|&(name, ckpt)| {
            let mut sys = MemorySystem::new(cfg.clone());
            let (k, carry0) = setup(&mut sys);
            let mut mechanism = match ckpt {
                None => Mechanism::Native,
                Some(ckpt) => common::arm(ckpt, 1, &mut sys, &k),
            };
            let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
            mechanism
                .run(&mut emu, &k, carry0)
                .completed()
                .expect("trigger is Never");
            let answer: Vec<f64> = k.peek(&emu).into();
            let diff = max_diff(&answer, &extended);
            assert!(diff < tol, "{name} is {diff} off the extended kernel");
            answer.into_iter().map(f64::to_bits).collect()
        })
        .collect();
    assert_eq!(answers[0], answers[1], "checkpoint moved a bit");
    assert_eq!(answers[0], answers[2], "undo-log moved a bit");
}

/// The answer of a crash-free run of an iterate-history kernel.
fn extended_answer<K: Extended>(
    cfg: &SystemConfig,
    setup: impl FnOnce(&mut MemorySystem) -> (K, K::Carry),
) -> Vec<f64> {
    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    let carry = k.run(&mut emu, 0, k.units(), carry0).completed().unwrap();
    k.peek(&emu, carry).into()
}

fn machine(cache_kb: usize) -> SystemConfig {
    SystemConfig::nvm_only(cache_kb << 10, 64 << 20)
}

#[test]
fn cg_answers_agree_across_mechanisms() {
    let a = CgClass::TEST.matrix(301);
    let b = CgClass::TEST.rhs(&a);
    let extended = extended_answer(&machine(16), |sys| ExtendedCg::setup(sys, &a, &b, 12));
    mechanisms_agree(
        machine(16),
        |sys| PlainCg::setup(sys, &a, &b, 12),
        extended,
        1e-9,
    );
}

#[test]
fn jacobi_answers_agree_across_mechanisms() {
    let a = CgClass::TEST.matrix(303);
    let b = CgClass::TEST.rhs(&a);
    let extended = extended_answer(&machine(16), |sys| {
        (ExtendedJacobi::setup(sys, &a, &b, 12), ())
    });
    let plain = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 12), ());
    mechanisms_agree(machine(16), plain, extended, 1e-9);
}

#[test]
fn stencil_answers_agree_across_mechanisms() {
    let extended = extended_answer(&machine(4), |sys| {
        (ExtendedStencil::setup(sys, 24, 24, 10, 3, 4), ())
    });
    let plain = |sys: &mut MemorySystem| (PlainStencil::setup(sys, 24, 24, 10), ());
    mechanisms_agree(machine(4), plain, extended, 1e-9);
}

#[test]
fn lu_answers_agree_across_mechanisms() {
    let a = dominant_matrix(32, 304);
    // The checksum kernel's own run: flushed checksums, same factor.
    let mut sys = MemorySystem::new(machine(8));
    let lu = ChecksumLu::setup(&mut sys, &a, 4);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    lu.run(&mut emu, 0).completed().unwrap();
    let extended = lu.peek_factor(&emu).into();
    let plain = |sys: &mut MemorySystem| (ChecksumLu::setup(sys, &a, 4), ());
    mechanisms_agree(machine(8), plain, extended, 1e-8);
}
