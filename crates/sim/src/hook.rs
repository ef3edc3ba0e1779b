//! The mutation hook: a thread-scoped test hook on the persist path and
//! at every seeded bug.
//!
//! Every persist and fence entry point of [`MemorySystem`] (and the
//! `PArray`/`PScalar` wrappers over them) is `#[track_caller]`, so a flush
//! or a fence is attributed to the call in the program that asked for it —
//! a kernel's `persist_range`, a mechanism's `sfence` — not to a line of
//! the simulator. That call is a [`Site`], as is each [`seeded`] call, the
//! branch a seeded bug takes. Inside [`record`] every site the closure
//! reaches is listed; inside [`mutating`] one site is mutated — a persist
//! site's flushes or fence skipped, as if the call had been deleted, a seed
//! planted; inside [`with_cpu_cache`] every machine built gets that CPU
//! cache instead of its configured one. Mutation tests ask of each persist
//! whether recovery stays right without it, and of each seed whether a gate
//! sees it.
//!
//! The hook is empty by default and scoped to the calling thread: it is
//! no [`SystemConfig`](crate::system::SystemConfig) field, and a machine
//! running on another thread never sees it.
//!
//! [`MemorySystem`]: crate::system::MemorySystem

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::panic::Location;

use crate::lru::CacheConfig;

/// What a site issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Cache-line flushes, and the DRAM-cache writeback a persist adds.
    Flush,
    /// The ordering fence.
    Fence,
    /// A [`seeded`] bug.
    Seed,
}

/// One persist, fence or [`seeded`] call in the program, and what it
/// issues there (`persist_lines_batched` issues a flush and a fence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// The call.
    pub at: &'static Location<'static>,
    /// What it issues.
    pub op: Op,
}

#[derive(Default)]
struct Hook {
    recorded: Option<BTreeSet<Site>>,
    mutated: Option<Site>,
    cpu_cache: Option<CacheConfig>,
}

impl Hook {
    fn active(&self) -> bool {
        self.recorded.is_some() || self.mutated.is_some() || self.cpu_cache.is_some()
    }
}

thread_local! {
    /// Whether [`HOOK`] holds anything: the one read the persist path
    /// pays when it is empty.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static HOOK: RefCell<Hook> = RefCell::new(Hook::default());
}

/// Whether the caller's site is the one mutated: its persist or fence is
/// to be skipped, its seed planted. Notes the site when recording.
#[inline]
#[track_caller]
pub(crate) fn skips(op: Op) -> bool {
    ACTIVE.get()
        && hooked(Site {
            at: Location::caller(),
            op,
        })
}

/// Whether the seeded bug at the caller's site is planted: only inside
/// [`mutating`] that site. Outside the hook, one thread-local read.
#[inline]
#[track_caller]
pub fn seeded() -> bool {
    skips(Op::Seed)
}

/// Whether a simulated result kept for reuse may be read in place of the
/// simulation it stands for. `own_seed` says whether the seed on the read's
/// own path — the check that vouches for its input, say — is the one
/// planted.
///
/// A kept result stands for the machines as configured, so it is not read
/// while a persist or fence site is mutated or another CPU cache stands
/// in. It also stands for the code that computed it, and a read skips
/// every site on that code. So it is not read while recording, or the
/// sites a run reaches would depend on what ran before it in the process;
/// nor under a planted seed but the read's own, which acts only where a
/// read goes ahead: another seed may sit on the skipped code, and once an
/// earlier run had filled the result it would never run again. A kept
/// result is filled only while [`runs_unmutated`] holds.
pub fn reads_kept(own_seed: bool) -> bool {
    !ACTIVE.get()
        || HOOK.with_borrow(|h| {
            h.recorded.is_none() && h.cpu_cache.is_none() && (own_seed || h.mutated.is_none())
        })
}

/// Whether nothing is mutated: machines run as configured and no seed is
/// planted either. A simulated result kept for reuse is filled only while
/// this holds: a seed may lie on the path that fills it (one that skips a
/// check may let a wrong input fill it), and every later read would take
/// the mutant's result for the program's.
pub fn runs_unmutated() -> bool {
    !ACTIVE.get() || HOOK.with_borrow(|h| h.cpu_cache.is_none() && h.mutated.is_none())
}

#[cold]
fn hooked(site: Site) -> bool {
    HOOK.with_borrow_mut(|h| {
        if let Some(r) = &mut h.recorded {
            r.insert(site);
        }
        h.mutated == Some(site)
    })
}

/// The CPU cache [`with_cpu_cache`] stands in, if any.
pub(crate) fn cpu_cache() -> Option<CacheConfig> {
    if ACTIVE.get() {
        HOOK.with_borrow(|h| h.cpu_cache)
    } else {
        None
    }
}

/// Apply `f` to the hook.
fn update<T>(f: impl FnOnce(&mut Hook) -> T) -> T {
    HOOK.with_borrow_mut(|h| {
        let t = f(h);
        ACTIVE.set(h.active());
        t
    })
}

/// Runs its closure when dropped: a scope puts the hook back on a panic
/// too.
struct Restore<F: FnMut()>(F);

impl<F: FnMut()> Drop for Restore<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Run `f` and list every site it reached, in (file, line, column, op)
/// order.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<Site>) {
    let mut outer = update(|h| h.recorded.replace(BTreeSet::new()));
    let _restore = Restore(|| update(|h| h.recorded = outer.take()));
    let r = f();
    let sites = HOOK.with_borrow(|h| h.recorded.iter().flatten().copied().collect());
    (r, sites)
}

/// Run `f` with `site` mutated: the flushes, or the fence, of a persist
/// site skipped; a seed site's bug planted.
pub fn mutating<R>(site: Site, f: impl FnOnce() -> R) -> R {
    let outer = update(|h| h.mutated.replace(site));
    let _restore = Restore(|| update(|h| h.mutated = outer));
    f()
}

/// Run `f` with every machine it builds given `cache` as its CPU cache.
pub fn with_cpu_cache<R>(cache: CacheConfig, f: impl FnOnce() -> R) -> R {
    let outer = update(|h| h.cpu_cache.replace(cache));
    let _restore = Restore(|| update(|h| h.cpu_cache = outer));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parray::{PArray, PScalar};
    use crate::system::{MemorySystem, SystemConfig};

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::heterogeneous(4096, 8192, 1 << 20))
    }

    /// Every entry point attributes what it issues to the call in this
    /// file, however many wrappers deep the flush or fence is issued: a
    /// wrapper without `#[track_caller]` would name a line of the simulator
    /// and merge its callers into one site.
    #[test]
    fn a_persist_is_attributed_to_its_caller_through_every_wrapper() {
        let mut s = sys();
        let arr = PArray::<u64>::alloc_nvm(&mut s, 16);
        let cell = PScalar::<u64>::alloc_nvm(&mut s);
        let lines = [arr.base() >> crate::line::LINE_SHIFT];
        let ((), sites) = record(|| {
            arr.persist_all(&mut s);
            cell.persist(&mut s);
            cell.flush(&mut s);
            s.persist_range(arr.base(), 8);
            s.persist_line(arr.base());
            s.flush_line(arr.base());
            s.clflush(arr.base());
            s.clflushopt(arr.base());
            s.clwb(arr.base());
            s.persist_lines_batched(&lines);
            s.sfence();
        });
        assert!(
            sites.iter().all(|site| site.at.file() == file!()),
            "{sites:?}"
        );
        let flushes: Vec<u32> = sites
            .iter()
            .filter(|site| site.op == Op::Flush)
            .map(|site| site.at.line())
            .collect();
        let fences: Vec<u32> = sites
            .iter()
            .filter(|site| site.op == Op::Fence)
            .map(|site| site.at.line())
            .collect();
        assert_eq!(flushes.len(), 10, "one site per call: {flushes:?}");
        assert!(flushes.windows(2).all(|w| w[0] < w[1]), "{flushes:?}");
        // The batch's inner fence is its caller's too.
        assert_eq!(fences, [flushes[9], flushes[9] + 1]);
    }

    /// Dropping a site skips what it issues there and nowhere else; the
    /// hook is gone once the scope ends.
    #[test]
    fn a_dropped_site_skips_its_own_call_only() {
        let persist = |s: &mut MemorySystem, cell: PScalar<u64>| cell.persist(s);
        let mut s = sys();
        let a = PScalar::<u64>::alloc_nvm(&mut s);
        let b = PScalar::<u64>::alloc_nvm(&mut s);
        let ((), sites) = record(|| persist(&mut s, a));
        assert_eq!(sites.len(), 1);
        a.set(&mut s, 1);
        b.set(&mut s, 2);
        let fences = s.stats().sfences;
        mutating(sites[0], || {
            persist(&mut s, a);
            b.persist(&mut s);
            s.sfence();
        });
        assert_eq!(s.stats().sfences, fences + 1);
        let image = s.nvm_snapshot();
        assert_eq!(image.read_u64(a.addr()), 0, "dropped");
        assert_eq!(image.read_u64(b.addr()), 2, "another call site");
        persist(&mut s, a);
        assert_eq!(s.nvm_snapshot().read_u64(a.addr()), 1, "the scope ended");
        assert!(!ACTIVE.get());
    }

    /// A seed is planted at its own site inside [`mutating`] only;
    /// recording finds it without planting it.
    #[test]
    fn a_seed_is_planted_at_its_own_site_only() {
        let seed = || seeded();
        let (planted, sites) = record(seed);
        assert!(!planted);
        assert_eq!(sites.iter().map(|s| s.op).collect::<Vec<_>>(), [Op::Seed]);
        mutating(sites[0], || assert!(seed() && !seeded(), "another site"));
        assert!(!seed(), "the scope ended");
    }

    /// Inside [`with_cpu_cache`] a machine is built with the given CPU
    /// cache, and with its own outside.
    #[test]
    fn a_cache_override_reaches_the_machines_built_in_its_scope() {
        let big = CacheConfig::new(1 << 20, 16);
        let inside = with_cpu_cache(big, sys);
        assert_eq!(inside.config().cpu_cache, big);
        assert_eq!(sys().config().cpu_cache, CacheConfig::new(4096, 8));
    }

    /// A kept result is read outside the hook and under its own planted
    /// seed; not while recording, under another seed, while a persist or
    /// fence is dropped or while another CPU cache stands in. Nothing is
    /// mutated outside the hook and while recording only.
    #[test]
    fn a_kept_result_is_read_only_where_it_skips_no_site() {
        let mut s = sys();
        let cell = PScalar::<u64>::alloc_nvm(&mut s);
        assert!(reads_kept(false) && runs_unmutated());
        let ((), sites) = record(|| {
            assert!(!reads_kept(false) && runs_unmutated());
            cell.persist(&mut s);
            seeded();
        });
        assert!(reads_kept(false) && runs_unmutated());
        for site in sites {
            let own = site.op == Op::Seed;
            assert_eq!(mutating(site, || reads_kept(own)), own, "{site:?}");
            assert!(!mutating(site, || reads_kept(false)), "{site:?}");
            assert!(!mutating(site, runs_unmutated), "{site:?}");
        }
        let big = CacheConfig::new(1 << 20, 16);
        assert!(!with_cpu_cache(big, || reads_kept(false)));
        assert!(!with_cpu_cache(big, runs_unmutated));
    }
}
