//! Differential test of the charged spans (`parray::{span, load_span,
//! map_span, gather_span}` and `PArray::store_span`) against the element
//! loops they stand for.
//!
//! Two machines start equal. One runs every step through a span, the other
//! through the `get`/`set` loop the span documents. After each step they
//! must agree on everything a later charge, read or crash could show: the
//! values the step computed, the clock per bucket, `MemStats`, the access
//! count, `dirty_nvm_lines`, the `crash_fork` image, `lead` joining them as one machine (where
//! it answers at all: LRU and FIFO without a recorder), the recorded
//! events, and the CPU- and DRAM-cache hit/miss sequence of the next 1,000
//! random reads.
//!
//! The arrays sit at random offsets into their first line, so elements
//! straddle lines; a span loads one to four arrays and stores zero to
//! three; outputs alias inputs, in place or shifted, and several outputs
//! interleave in one array (`slot[j]`, `slot[m + j]`, `slot[2m + j]` with
//! `m < 8`, so they share lines) as inputs can; the caches
//! are a few lines of 2 or 4 ways, so one operand's miss or a gather
//! evicts another operand's line in the middle of a chunk. Every case runs
//! on the NVM-only and the heterogeneous platform under all four
//! replacement policies.

use proptest::prelude::*;

use adcc_sim::parray::{gather_span, load_span, map_span, span};
use adcc_sim::policy::XorShift;
use adcc_sim::prelude::*;
use adcc_sim::system::Follower;

/// Elements per array.
const LEN: usize = 40;
/// NVM pool size.
const CAP: usize = 1 << 14;
/// f64 arrays: four NVM-homed, the last DRAM-homed.
const F64S: usize = 5;
/// u32 arrays (gather indexes), NVM-homed.
const U32S: usize = 2;

/// One operand: an array and the element the span starts at.
type Operand = (usize, usize);

#[derive(Debug, Clone)]
enum Op {
    /// Fold over up to four f64 operands.
    Load { ins: Vec<Operand>, len: usize },
    /// `outs[s][i] = f_s(ins[..][i])` for each output `s` in order; an
    /// output may be one of `ins`, shifted or not, or share lines with
    /// the other outputs.
    Map {
        ins: Vec<Operand>,
        outs: Vec<Operand>,
        len: usize,
    },
    /// `out[i] = g(i)`.
    Store { out: Operand, len: usize },
    /// Fold over the two u32 arrays.
    LoadU32 { ins: Vec<Operand>, len: usize },
    /// spmv's inner loop: an index and a value streamed, a third array
    /// gathered through the index.
    Gather {
        idx: Operand,
        vals: Operand,
        target: usize,
        len: usize,
    },
    /// One charged element read or write.
    Touch { arr: usize, i: usize, write: bool },
    /// CLFLUSH the line of an element.
    Flush { arr: usize, i: usize },
    /// SFENCE plus a drain of the DRAM cache (no-op on NVM-only).
    Drain,
}

fn operand(arrays: usize) -> impl Strategy<Value = Operand> {
    (0..arrays, 0..LEN)
}

/// `count` operands at `stride` elements apart in one array: the
/// `slot[j]`, `slot[m + j]`, `slot[2m + j]` layout of an iterate slot.
fn interleaved((arr, start, stride): (usize, usize, usize), count: usize) -> Vec<Operand> {
    (0..count)
        .map(|t| (arr, (start + t * stride).min(LEN - 1)))
        .collect()
}

/// One to four inputs: independent, or interleaved in one array.
fn inputs() -> impl Strategy<Value = Vec<Operand>> {
    prop_oneof![
        3 => proptest::collection::vec(operand(F64S), 1..5),
        1 => ((0..F64S, 0..LEN, 1..8usize), 1..5usize).prop_map(|(at, n)| interleaved(at, n)),
    ]
}

fn map_strategy() -> impl Strategy<Value = Op> {
    (
        inputs(),
        proptest::collection::vec(operand(F64S), 0..4),
        0..3usize,
        (0..F64S, 0..LEN, 1..8usize),
        0..=LEN,
    )
        .prop_map(|(ins, drawn, kind, at, len)| {
            let outs = match kind {
                // Independent outputs.
                0 => drawn,
                // Each output over an input, in place or shifted.
                1 => drawn
                    .iter()
                    .map(|&(k, start)| {
                        let (arr, at) = ins[k % ins.len()];
                        (arr, if start % 2 == 0 { at } else { start })
                    })
                    .collect(),
                // Outputs interleaved in one array, a line-sharing stride
                // apart, each output `stride` elements long.
                _ => interleaved(at, drawn.len()),
            };
            let len = if kind == 2 { len.min(at.2) } else { len };
            Op::Map { ins, outs, len }
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ins = |arrays| proptest::collection::vec(operand(arrays), 1..5);
    prop_oneof![
        3 => (inputs(), 0..=LEN).prop_map(|(ins, len)| Op::Load { ins, len }),
        5 => map_strategy(),
        2 => (operand(F64S), 0..=LEN).prop_map(|(out, len)| Op::Store { out, len }),
        1 => (ins(U32S), 0..=LEN).prop_map(|(ins, len)| Op::LoadU32 { ins, len }),
        2 => (operand(U32S), operand(F64S), 0..F64S, 0..=LEN).prop_map(
            |(idx, vals, target, len)| Op::Gather { idx, vals, target, len }
        ),
        3 => (0..F64S, 0..LEN, any::<bool>()).prop_map(|(arr, i, write)| Op::Touch { arr, i, write }),
        1 => (0..F64S, 0..LEN).prop_map(|(arr, i)| Op::Flush { arr, i }),
        1 => Just(Op::Drain),
    ]
}

/// The arrays of one machine.
struct Pool {
    f: [PArray<f64>; F64S],
    u: [PArray<u32>; U32S],
}

impl Pool {
    /// Allocate and seed (uncharged) the arrays, each `offsets[k]` bytes
    /// into its first line.
    fn new(sys: &mut MemorySystem, offsets: &[usize]) -> Pool {
        let mut at = offsets.iter().copied();
        let mut nvm = |sys: &mut MemorySystem, bytes| {
            sys.alloc_nvm_at_line_offset(bytes, at.next().expect("an offset per array"))
        };
        let f: [PArray<f64>; F64S] = std::array::from_fn(|k| {
            let base = if k + 1 < F64S {
                nvm(sys, LEN * 8)
            } else {
                sys.alloc_dram(LEN * 8 + LINE_SIZE) + offsets[F64S + U32S] as u64
            };
            PArray::new(base, LEN)
        });
        let u: [PArray<u32>; U32S] = std::array::from_fn(|_| PArray::new(nvm(sys, LEN * 4), LEN));
        for (k, a) in f.iter().enumerate() {
            let v: Vec<f64> = (0..LEN).map(|i| (k * LEN + i) as f64 * 0.5 + 1.0).collect();
            a.seed_slice(sys, &v);
        }
        for (k, a) in u.iter().enumerate() {
            let v: Vec<u32> = (0..LEN).map(|i| ((i * 7 + k * 13) % LEN) as u32).collect();
            a.seed_slice(sys, &v);
        }
        Pool { f, u }
    }

    /// The operands' views, `len` clamped so every one fits.
    fn views<T: Pod>(arrays: &[PArray<T>], ops: &[Operand], len: usize) -> Vec<PArray<T>> {
        let len = ops
            .iter()
            .fold(len, |len, &(_, start)| len.min(LEN - start));
        ops.iter()
            .map(|&(k, start)| arrays[k].slice(start, len))
            .collect()
    }
}

/// What a step computed, as bits.
type Answer = u64;

fn fold(acc: f64, i: usize, xs: &[f64]) -> f64 {
    let sum = xs
        .iter()
        .enumerate()
        .fold(0.0, |s, (l, x)| s + (l + 1) as f64 * x);
    acc * 0.75 + sum + i as f64
}

/// Output `out`'s value at element `i`.
fn map(i: usize, out: usize, xs: &[f64]) -> f64 {
    xs.iter()
        .enumerate()
        .fold(-0.25 * i as f64 - out as f64, |s, (l, x)| {
            s + (l as f64 + 1.5 + out as f64) * x
        })
}

/// `v[..L]` in, `v[L..]` out, through one span.
fn map_by_span<const L: usize, const S: usize>(sys: &mut MemorySystem, v: &[PArray<f64>]) {
    let ins: [_; L] = std::array::from_fn(|l| v[l]);
    let outs: [_; S] = std::array::from_fn(|s| v[L + s]);
    span(sys, ins, outs, |i, xs: [f64; L]| {
        std::array::from_fn(|s| map(i, s, &xs))
    });
}

/// [`map_by_span`] with one output, through `map_span`.
fn map_one<const L: usize>(sys: &mut MemorySystem, v: &[PArray<f64>]) {
    let ins: [_; L] = std::array::from_fn(|l| v[l]);
    map_span(sys, ins, v[L], |i, xs| map(i, 0, &xs));
}

/// The fold of `v`, through one load span.
fn fold_by_span<T: Pod, const L: usize>(
    sys: &mut MemorySystem,
    v: &[PArray<T>],
    fold: impl FnMut(usize, [T; L]),
) {
    load_span(sys, std::array::from_fn(|l| v[l]), fold);
}

fn fold_u32(acc: u64, xs: &[u32]) -> u64 {
    xs.iter()
        .fold(acc.wrapping_mul(31), |a, &x| a.wrapping_add(x as u64))
}

/// Run `op` on `sys` through the spans.
fn by_span(sys: &mut MemorySystem, p: &Pool, op: &Op) -> Answer {
    match op {
        Op::Load { ins, len } => {
            let v = Pool::views(&p.f, ins, *len);
            let mut acc = 0.0;
            let mut f = |i, xs: &[f64]| acc = fold(acc, i, xs);
            match v.len() {
                1 => fold_by_span::<_, 1>(sys, &v, |i, xs| f(i, &xs)),
                2 => fold_by_span::<_, 2>(sys, &v, |i, xs| f(i, &xs)),
                3 => fold_by_span::<_, 3>(sys, &v, |i, xs| f(i, &xs)),
                _ => fold_by_span::<_, 4>(sys, &v, |i, xs| f(i, &xs)),
            }
            acc.to_bits()
        }
        Op::Map { ins, outs, len } => {
            let all: Vec<Operand> = ins.iter().chain(outs).copied().collect();
            let v = Pool::views(&p.f, &all, *len);
            match (ins.len(), outs.len()) {
                (1, 0) => map_by_span::<1, 0>(sys, &v),
                (1, 1) => map_one::<1>(sys, &v),
                (1, 2) => map_by_span::<1, 2>(sys, &v),
                (1, 3) => map_by_span::<1, 3>(sys, &v),
                (2, 0) => map_by_span::<2, 0>(sys, &v),
                (2, 1) => map_one::<2>(sys, &v),
                (2, 2) => map_by_span::<2, 2>(sys, &v),
                (2, 3) => map_by_span::<2, 3>(sys, &v),
                (3, 0) => map_by_span::<3, 0>(sys, &v),
                (3, 1) => map_one::<3>(sys, &v),
                (3, 2) => map_by_span::<3, 2>(sys, &v),
                (3, 3) => map_by_span::<3, 3>(sys, &v),
                (4, 0) => map_by_span::<4, 0>(sys, &v),
                (4, 1) => map_one::<4>(sys, &v),
                (4, 2) => map_by_span::<4, 2>(sys, &v),
                (4, 3) => map_by_span::<4, 3>(sys, &v),
                arity => unreachable!("{arity:?}"),
            }
            0
        }
        Op::Store { out, len } => {
            let v = Pool::views(&p.f, &[*out], *len);
            v[0].store_span(sys, |i| i as f64 * 3.0 - 7.0);
            0
        }
        Op::LoadU32 { ins, len } => {
            let v = Pool::views(&p.u, ins, *len);
            let mut acc = 1;
            let mut f = |xs: &[u32]| acc = fold_u32(acc, xs);
            match v.len() {
                1 => fold_by_span::<_, 1>(sys, &v, |_, xs| f(&xs)),
                2 => fold_by_span::<_, 2>(sys, &v, |_, xs| f(&xs)),
                3 => fold_by_span::<_, 3>(sys, &v, |_, xs| f(&xs)),
                _ => fold_by_span::<_, 4>(sys, &v, |_, xs| f(&xs)),
            }
            acc
        }
        Op::Gather {
            idx,
            vals,
            target,
            len,
        } => {
            let len = (*len).min(LEN - idx.1).min(LEN - vals.1);
            let (ix, vs, t) = (p.u[idx.0], p.f[vals.0], p.f[*target]);
            // Views that start `d` elements early, so the range does not
            // start at 0.
            let d = idx.1.min(vals.1);
            let mut acc = 0.0;
            gather_span(
                sys,
                ix.slice(idx.1 - d, d + len),
                vs.slice(vals.1 - d, d + len),
                d..d + len,
                |sys, j, v| acc += v * t.get(sys, j as usize % LEN),
            );
            acc.to_bits()
        }
        _ => by_element(sys, p, op),
    }
}

/// Run `op` on `sys` through the element loop each span stands for.
fn by_element(sys: &mut MemorySystem, p: &Pool, op: &Op) -> Answer {
    match op {
        Op::Load { ins, len } => {
            let v = Pool::views(&p.f, ins, *len);
            let mut acc = 0.0;
            for i in 0..v[0].len() {
                let xs: Vec<f64> = v.iter().map(|a| a.get(sys, i)).collect();
                acc = fold(acc, i, &xs);
            }
            acc.to_bits()
        }
        Op::Map { ins, outs, len } => {
            let all: Vec<Operand> = ins.iter().chain(outs).copied().collect();
            let v = Pool::views(&p.f, &all, *len);
            let (ins, outs) = v.split_at(ins.len());
            for i in 0..v[0].len() {
                let xs: Vec<f64> = ins.iter().map(|a| a.get(sys, i)).collect();
                for (s, o) in outs.iter().enumerate() {
                    o.set(sys, i, map(i, s, &xs));
                }
            }
            0
        }
        Op::Store { out, len } => {
            let v = Pool::views(&p.f, &[*out], *len);
            for i in 0..v[0].len() {
                v[0].set(sys, i, i as f64 * 3.0 - 7.0);
            }
            0
        }
        Op::LoadU32 { ins, len } => {
            let v = Pool::views(&p.u, ins, *len);
            let mut acc = 1;
            for i in 0..v[0].len() {
                let xs: Vec<u32> = v.iter().map(|a| a.get(sys, i)).collect();
                acc = fold_u32(acc, &xs);
            }
            acc
        }
        Op::Gather {
            idx,
            vals,
            target,
            len,
        } => {
            let len = (*len).min(LEN - idx.1).min(LEN - vals.1);
            let (ix, vs, t) = (p.u[idx.0], p.f[vals.0], p.f[*target]);
            let mut acc = 0.0;
            for k in 0..len {
                let j = ix.get(sys, idx.1 + k);
                let v = vs.get(sys, vals.1 + k);
                acc += v * t.get(sys, j as usize % LEN);
            }
            acc.to_bits()
        }
        Op::Touch { arr, i, write } => {
            let a = p.f[*arr];
            if *write {
                a.set(sys, *i, -(*i as f64));
                0
            } else {
                a.get(sys, *i).to_bits()
            }
        }
        Op::Flush { arr, i } => {
            sys.clflush(p.f[*arr].addr(*i));
            0
        }
        Op::Drain => {
            sys.sfence();
            sys.drain_dram_cache();
            0
        }
    }
}

/// Everything a later charge, count or crash image can show.
#[derive(Debug, PartialEq)]
struct Seen {
    now: u64,
    buckets: [u64; Bucket::COUNT],
    stats: MemStats,
    accesses: u64,
    dirty_nvm_lines: u64,
    image: NvmImage,
    events: Option<Vec<Event>>,
}

fn seen(sys: &MemorySystem) -> Seen {
    Seen {
        now: sys.now().ps(),
        buckets: sys.clock().bucket_totals(),
        stats: *sys.stats(),
        accesses: sys.access_count(),
        dirty_nvm_lines: sys.dirty_nvm_lines(),
        image: sys.crash_fork(),
        events: sys.recorder().map(|r| r.events().to_vec()),
    }
}

/// CPU- and DRAM-cache misses of each of 1,000 random 8-byte reads in the
/// arrays' lines, on a copy of `sys`.
fn next_misses(sys: &MemorySystem, p: &Pool, seed: u64) -> Vec<(u64, u64)> {
    let mut sys = sys.clone();
    let mut rng = XorShift::new(seed);
    (0..1_000)
        .map(|_| {
            let a = p.f[rng.below(F64S)];
            let addr = a.base() - (a.base() % LINE_SIZE as u64) + rng.below(a.byte_len()) as u64;
            let before = *sys.stats();
            sys.read_bytes(addr, &mut [0u8; 8]);
            let after = sys.stats();
            (
                after.cpu.misses - before.cpu.misses,
                after.dram_cache.misses - before.dram_cache.misses,
            )
        })
        .collect()
}

fn config(hetero: bool, policy: ReplacementPolicy, lines: usize, ways: usize) -> SystemConfig {
    // The presets are 8-way; the CPU cache is replaced below.
    let mut cfg = if hetero {
        SystemConfig::heterogeneous(8 * LINE_SIZE, 4 * lines * LINE_SIZE, CAP)
    } else {
        SystemConfig::nvm_only(8 * LINE_SIZE, CAP)
    };
    cfg.cpu_cache = CacheConfig::new(lines * LINE_SIZE, ways).with_policy(policy);
    cfg.dram_cache = cfg.dram_cache.map(|dc| dc.with_policy(policy));
    cfg
}

fn spans_equal_loops(
    cfg: SystemConfig,
    offsets: &[usize],
    ops: &[Op],
    record: bool,
    seed: u64,
) -> TestCaseResult {
    let mut span = MemorySystem::new(cfg.clone());
    let pool = Pool::new(&mut span, offsets);
    if record {
        let mut rec = EventRecorder::new();
        rec.track_range(0, CAP);
        span.attach_recorder(rec);
    }
    let mut elem = span.clone();
    let comparable = !record
        && matches!(
            cfg.cpu_cache.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        );
    for (step, op) in ops.iter().enumerate() {
        let got = by_span(&mut span, &pool, op);
        let want = by_element(&mut elem, &pool, op);
        prop_assert_eq!(got, want, "step {} {:?}: answers", step, op);
        prop_assert_eq!(seen(&span), seen(&elem), "step {} {:?}", step, op);
        if comparable {
            prop_assert!(
                span.clone().lead(&elem, &[]) == Some(Follower::default()),
                "step {} {:?}: futures",
                step,
                op
            );
        }
        prop_assert_eq!(
            next_misses(&span, &pool, seed ^ step as u64),
            next_misses(&elem, &pool, seed ^ step as u64),
            "step {} {:?}: the next reads' misses",
            step,
            op
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A span leaves exactly what its element loop leaves, on both
    /// platforms and under every replacement policy.
    #[test]
    fn span_charges_equal_the_element_loop(
        geometry in (prop::sample::select(vec![4usize, 8, 16]), prop::sample::select(vec![2usize, 4])),
        offsets in proptest::collection::vec(0usize..LINE_SIZE, F64S + U32S + 1),
        ops in proptest::collection::vec(op_strategy(), 1..24),
        record in prop::sample::select(vec![false, false, false, true]),
        seed in 1u64..u64::MAX,
    ) {
        let (lines, ways) = geometry;
        for hetero in [false, true] {
            for policy in ReplacementPolicy::ALL {
                spans_equal_loops(config(hetero, policy, lines, ways), &offsets, &ops, record, seed)?;
            }
        }
    }
}
