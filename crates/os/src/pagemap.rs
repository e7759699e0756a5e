//! The Fig. 9 census: shareability of `pte_t`s across a CCID group.
//!
//! The paper obtained this data "by native measurements on a server using
//! Linux Pagemap" (Section VII-A). Here the census walks the simulated
//! page tables of every process in a group and classifies each `pte_t` as
//! *shareable* (another process holds an identical {VPN, PPN} pair with
//! the same permission bits), *unshareable*, or *THP* (huge-page leaves,
//! which the paper counts as unshareable).

use crate::kernel::Kernel;
use bf_types::{Ccid, FastMap, FastSet, PageFlags, PageSize};

/// Counts for one Fig. 9 bar (total or active).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PteBreakdown {
    /// `pte_t`s with an identical twin in another process of the group.
    pub shareable: u64,
    /// `pte_t`s unique to one process (or differing in PPN/permissions).
    pub unshareable: u64,
    /// Huge-page leaves created by THP.
    pub thp: u64,
}

impl PteBreakdown {
    /// Total entries in this bar.
    pub fn total(&self) -> u64 {
        self.shareable + self.unshareable + self.thp
    }
}

/// The full Fig. 9 census for one CCID group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CensusReport {
    /// All `pte_t`s mapped by the group (leftmost bar).
    pub total: PteBreakdown,
    /// `pte_t`s with the ACCESSED bit set (central bar, "Active").
    pub active: PteBreakdown,
    /// Active `pte_t`s after BabelFish dedupes the shareable ones
    /// (rightmost bar): each set of identical shareable entries counts
    /// once.
    pub babelfish_active: u64,
}

impl CensusReport {
    /// Fraction of total `pte_t`s that are shareable (the paper reports
    /// 53 % on average for Data Serving + Compute, ~94 % for Functions).
    pub fn shareable_fraction(&self) -> f64 {
        if self.total.total() == 0 {
            0.0
        } else {
            self.total.shareable as f64 / self.total.total() as f64
        }
    }

    /// Relative reduction in *active* `pte_t`s attained by BabelFish
    /// (the paper reports 30 % for Data Serving + Compute, 57 % for
    /// Functions).
    pub fn active_reduction(&self) -> f64 {
        if self.active.total() == 0 {
            0.0
        } else {
            1.0 - self.babelfish_active as f64 / self.active.total() as f64
        }
    }
}

/// Runs the census over every live process of `group`.
///
/// # Examples
///
/// ```
/// use bf_os::{Kernel, KernelConfig, pagemap};
/// let kernel = Kernel::new(KernelConfig::baseline());
/// let report = pagemap::census(&kernel, bf_types::Ccid::new(0));
/// assert_eq!(report.total.total(), 0, "empty group maps nothing");
/// ```
pub fn census(kernel: &Kernel, group: Ccid) -> CensusReport {
    // Identity of a translation for sharing purposes (Section II-C).
    type Key = (u64, u64, u64); // (va, ppn, permission bits)

    let mut occurrences: FastMap<Key, u64> = FastMap::default();
    let mut active_occurrences: FastMap<Key, u64> = FastMap::default();
    let mut entries: Vec<(Key, bool, bool)> = Vec::new(); // (key, active, thp)

    for pid in kernel.group_members(group) {
        let space = kernel.space(pid);
        space.for_each_leaf(kernel.store(), |va, entry, size, _| {
            let perms = entry
                .flags
                .permissions()
                .without(PageFlags::OWNED)
                .without(PageFlags::ORPC);
            let key: Key = (va.raw(), entry.ppn.raw(), perms.bits());
            let active = entry.flags.contains(PageFlags::ACCESSED);
            let thp = size != PageSize::Size4K;
            if !thp {
                *occurrences.entry(key).or_insert(0) += 1;
                if active {
                    *active_occurrences.entry(key).or_insert(0) += 1;
                }
            }
            entries.push((key, active, thp));
        });
    }

    let mut report = CensusReport::default();
    let mut babelfish_shared_seen: FastSet<Key> = FastSet::default();

    for (key, active, thp) in entries {
        if thp {
            report.total.thp += 1;
            if active {
                report.active.thp += 1;
                report.babelfish_active += 1; // THP entries are not merged
            }
            continue;
        }
        let shareable = occurrences.get(&key).copied().unwrap_or(0) >= 2;
        if shareable {
            report.total.shareable += 1;
            if active {
                report.active.shareable += 1;
                if babelfish_shared_seen.insert(key) {
                    report.babelfish_active += 1; // one copy for the group
                }
            }
        } else {
            report.total.unshareable += 1;
            if active {
                report.active.unshareable += 1;
                report.babelfish_active += 1;
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aslr::Segment;
    use crate::kernel::KernelConfig;
    use crate::vma::MmapRequest;
    use bf_types::{Pid, VirtAddr};

    /// Sets A on the leaf translating `va`, as a TLB fill would.
    fn touch(kernel: &mut Kernel, pid: Pid, va: VirtAddr) {
        let walk = kernel.space(pid).walk(kernel.store(), va);
        kernel.mark_leaf_accessed(walk.steps().last().unwrap());
    }

    fn build_group(share: bool) -> (Kernel, Ccid) {
        let mut config = if share {
            KernelConfig::babelfish()
        } else {
            KernelConfig::baseline()
        };
        config.thp = false;
        let mut kernel = Kernel::new(config);
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(0x8000);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 0x8000, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();
        // Both touch 8 shared file pages.
        for i in 0..8u64 {
            kernel
                .handle_fault(a, va.offset(i * 0x1000), false)
                .unwrap();
            kernel
                .handle_fault(b, va.offset(i * 0x1000), false)
                .unwrap();
            touch(&mut kernel, a, va.offset(i * 0x1000));
            touch(&mut kernel, b, va.offset(i * 0x1000));
        }
        // Each also touches 4 private anonymous pages.
        for pid in [a, b] {
            let heap = kernel
                .mmap(
                    pid,
                    MmapRequest::anon(
                        Segment::Heap,
                        0x4000,
                        PageFlags::USER | PageFlags::WRITE,
                        false,
                    ),
                )
                .unwrap();
            for i in 0..4u64 {
                kernel
                    .handle_fault(pid, heap.offset(i * 0x1000), true)
                    .unwrap();
                touch(&mut kernel, pid, heap.offset(i * 0x1000));
            }
        }
        (kernel, group)
    }

    #[test]
    fn census_counts_shareable_and_unshareable() {
        let (kernel, group) = build_group(false);
        let report = census(&kernel, group);
        // 8 file pages × 2 processes = 16 shareable entries;
        // 4 anon pages × 2 processes = 8 unshareable entries.
        assert_eq!(report.total.shareable, 16);
        assert_eq!(report.total.unshareable, 8);
        assert_eq!(report.total.thp, 0);
        assert_eq!(report.active.total(), 24, "everything was touched");
    }

    #[test]
    fn babelfish_active_dedupes_shareable() {
        let (kernel, group) = build_group(false);
        let report = census(&kernel, group);
        // 16 shareable active collapse to 8; 8 unshareable stay.
        assert_eq!(report.babelfish_active, 8 + 8);
        let expected_reduction = 1.0 - 16.0 / 24.0;
        assert!((report.active_reduction() - expected_reduction).abs() < 1e-9);
    }

    #[test]
    fn shareable_fraction_matches_construction() {
        let (kernel, group) = build_group(false);
        let report = census(&kernel, group);
        assert!((report.shareable_fraction() - 16.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn census_is_consistent_under_babelfish_tables() {
        // With shared page tables the same logical mappings exist;
        // the census sees identical shareability.
        let (kernel, group) = build_group(true);
        let report = census(&kernel, group);
        assert_eq!(report.total.shareable, 16);
        assert_eq!(report.total.unshareable, 8);
    }

    #[test]
    fn untouched_entries_are_inactive() {
        let mut config = KernelConfig::baseline();
        config.thp = false;
        let mut kernel = Kernel::new(config);
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let file = kernel.register_file(0x2000);
        let va = kernel
            .mmap(
                a,
                MmapRequest::file_shared(Segment::Lib, file, 0, 0x2000, PageFlags::USER),
            )
            .unwrap();
        kernel.handle_fault(a, va, false).unwrap(); // mapped but never marked
        let report = census(&kernel, group);
        assert_eq!(report.total.total(), 1);
        assert_eq!(report.active.total(), 0);
    }
}
