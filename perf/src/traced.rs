//! The traced run and the single-layer probes.
//!
//! [`Probe`] is a [`Hook`] that times every access it feeds with one
//! `Instant` pair and classifies the access by the registry counters it
//! moved: an L1 TLB hit, an L2 TLB hit, a page walk, or a fault. The
//! counters are read through handles taken once per machine, before and
//! after the timed call, so the reads stay outside the timed interval.
//! The calibrated cost of an empty timed call is subtracted from every
//! class time. Nothing here calls into the simulator beyond the public
//! entry points a runner would use — in particular not
//! `AddressSpace::walk`, which bumps `pgtable.walks`.
//!
//! The probes below it time one layer each, outside any cell: the
//! workload generators, the `.bft` codec, and the cache hierarchy.

use crate::cell::Hook;
use babelfish::cache::{AccessOrigin, CacheHierarchy, HierarchyConfig};
use babelfish::capture::{Record, TraceMeta, TraceReader, TraceWriter};
use babelfish::containers::{BringupProfile, Container};
use babelfish::sim::Machine;
use babelfish::types::{AccessKind, CoreId, Cycles, PhysAddr};
use babelfish::workloads::{Op, Workload};
use bf_telemetry::{Counter, Histogram};
use std::hint::black_box;
use std::time::Instant;

// Access classes, indexing `Probe::classes` and `TraceSummary`.
const L1_HIT: usize = 0;
const L2_HIT: usize = 1;
const WALK: usize = 2;
const FAULT: usize = 3;
const UNCLASSIFIED: usize = 4;

/// The `os.fault.*` histograms whose sample counts mark a faulting access.
pub const FAULT_HISTOGRAMS: [&str; 5] = [
    "os.fault.minor_cycles",
    "os.fault.major_cycles",
    "os.fault.cow_cycles",
    "os.fault.shared_resolved_cycles",
    "os.fault.spurious_cycles",
];

/// Counter handles of one machine's registry.
#[derive(Default)]
struct Handles {
    l1d_hits: Counter,
    l1i_hits: Counter,
    l2_hits: Counter,
    walks: Counter,
    faults: [Histogram; 5],
}

/// One reading of the classifying counters.
struct Reading {
    l1_hits: u64,
    l2_hits: u64,
    walks: u64,
    faults: u64,
}

impl Handles {
    /// Every name is registered while the machine is built, so looking
    /// it up creates nothing and the result documents stay unchanged.
    fn bind(machine: &Machine) -> Handles {
        let registry = machine.registry();
        Handles {
            l1d_hits: registry.counter("tlb.l1d.hits"),
            l1i_hits: registry.counter("tlb.l1i.hits"),
            l2_hits: registry.counter("tlb.l2.hits"),
            walks: registry.counter("sim.walks"),
            faults: FAULT_HISTOGRAMS.map(|name| registry.histogram(name)),
        }
    }

    #[inline(always)]
    fn read(&self) -> Reading {
        Reading {
            l1_hits: self.l1d_hits.get() + self.l1i_hits.get(),
            l2_hits: self.l2_hits.get(),
            walks: self.walks.get(),
            faults: self.faults.iter().map(Histogram::count).sum(),
        }
    }
}

/// Host nanoseconds one empty timed call measures: the median over many
/// `Instant` pairs with nothing between them. Reported as
/// `trace.timer_ns` and subtracted from every class time.
pub fn calibrate_timer() -> f64 {
    let mut samples: Vec<u32> = (0..200_000)
        .map(|_| {
            let start = Instant::now();
            black_box(());
            nanos(start)
        })
        .collect();
    grouped_quantile(&mut samples, 0.5)
}

#[inline(always)]
fn nanos(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// The `p`-quantile of integer nanosecond samples, interpolated within
/// the 1 ns group that holds it (the grouped-data estimator), so a
/// quantile of whole-ns readings still resolves below a nanosecond.
/// `samples` is reordered. 0 for an empty sample.
pub fn grouped_quantile(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let rank = p * n as f64;
    let index = (rank as usize).min(n - 1);
    let (_, &mut value, _) = samples.select_nth_unstable(index);
    let below = samples.iter().filter(|&&s| s < value).count();
    let equal = samples.iter().filter(|&&s| s == value).count();
    value as f64 - 0.5 + (rank - below as f64) / equal as f64
}

/// The traced-run hook: times and classifies every access it feeds.
pub struct Probe {
    handles: Handles,
    trace_bringup: bool,
    in_bringup: bool,
    classes: [Vec<u32>; 5],
    feed_ns: u64,
    feed_accesses: u64,
}

impl Probe {
    /// A probe. With `trace_bringup`, container bring-up is replayed
    /// access by access through [`Machine::execute_access`] (timed and
    /// classified) instead of one `measure_bringup` call; the machine
    /// ends up in the identical state, which the correctness gate
    /// checks. FaaS cannot use it: its document reports the bring-up
    /// window's cycle breakdown, which the replayed creation charge
    /// would shift.
    pub fn new(trace_bringup: bool) -> Probe {
        Probe {
            handles: Handles::default(),
            trace_bringup,
            in_bringup: false,
            classes: Default::default(),
            feed_ns: 0,
            feed_accesses: 0,
        }
    }

    /// Summarizes everything traced so far. `timer_ns` is the
    /// calibrated cost of an empty timed call.
    pub fn summary(mut self, timer_ns: f64) -> TraceSummary {
        let traced: usize = self.classes.iter().map(Vec::len).sum();
        let share = |count: usize| count as f64 / traced.max(1) as f64;
        let classified = traced - self.classes[UNCLASSIFIED].len();
        let frac = std::array::from_fn(|c| share(self.classes[c].len()));
        let ns = std::array::from_fn(|c| grouped_quantile(&mut self.classes[c], 0.5) - timer_ns);
        let mut all: Vec<u32> = self.classes.concat();
        TraceSummary {
            frac,
            ns,
            p99_ns: grouped_quantile(&mut all, 0.99) - timer_ns,
            classified_share: share(classified),
            timer_ns,
            feed_accesses: self.feed_accesses,
            feed_self_ns: self.feed_ns as f64 - timer_ns * self.feed_accesses as f64,
        }
    }
}

impl Hook for Probe {
    fn attach(&mut self, machine: &Machine) {
        self.handles = Handles::bind(machine);
    }

    fn bringup(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        container: &Container,
        profile: &BringupProfile,
        seed: u64,
    ) -> Cycles {
        if !self.trace_bringup {
            return machine.measure_bringup(core, container, profile, seed);
        }
        // `measure_bringup`, call for call: the creation invalidations,
        // the creation cost charged to the core clock (a replayed switch
        // of that length is the public call that charges exactly the
        // clock; its breakdown entry is cleared by the warm-up reset),
        // then the `docker start` touch sequence.
        machine.apply_invalidations(container.creation_invalidations());
        machine.replay_switch(core.index() as u32, container.creation_cost());
        let mut total = container.creation_cost();
        self.in_bringup = true;
        for step in profile.steps(container.layout(), seed) {
            total += self.access(machine, |m| {
                m.execute_access(core.index(), container.pid(), step.va, step.kind)
            });
        }
        self.in_bringup = false;
        total
    }

    #[inline(always)]
    fn access<R>(&mut self, machine: &mut Machine, op: impl FnOnce(&mut Machine) -> R) -> R {
        let before = self.handles.read();
        let start = Instant::now();
        let out = op(machine);
        let ns = nanos(start);
        let after = self.handles.read();
        let class = if after.faults != before.faults {
            FAULT
        } else if after.walks != before.walks {
            WALK
        } else if after.l2_hits != before.l2_hits {
            L2_HIT
        } else if after.l1_hits != before.l1_hits {
            L1_HIT
        } else {
            UNCLASSIFIED
        };
        self.classes[class].push(ns);
        if !self.in_bringup {
            self.feed_ns += ns as u64;
            self.feed_accesses += 1;
        }
        out
    }
}

/// What a traced run measured. Per-class arrays are in the order L1 TLB
/// hit, L2 TLB hit, page walk, fault.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Share of traced accesses in each class.
    pub frac: [f64; 4],
    /// Median host ns of each class, timer cost subtracted.
    pub ns: [f64; 4],
    /// 99th percentile host ns over every traced access.
    pub p99_ns: f64,
    /// Share of traced accesses that moved a classifying counter.
    pub classified_share: f64,
    /// Calibrated cost of an empty timed call.
    pub timer_ns: f64,
    /// Accesses of the fed stream (bring-up excluded).
    pub feed_accesses: u64,
    /// Summed host ns of the fed stream's calls, timer cost subtracted.
    pub feed_self_ns: f64,
}

/// Host ns per [`Workload::next_op`] call: each generator in turn emits
/// its share of `accesses` accesses, or runs to completion, through the
/// same dynamic dispatch the scheduler uses.
pub fn next_op_ns(mut generators: Vec<Box<dyn Workload>>, accesses: u64) -> f64 {
    let quota = accesses.div_ceil(generators.len().max(1) as u64);
    let mut calls = 0u64;
    let start = Instant::now();
    for generator in &mut generators {
        let mut emitted = 0;
        while emitted < quota {
            calls += 1;
            match black_box(generator.next_op()) {
                Op::Access { .. } => emitted += 1,
                Op::RequestEnd => {}
                Op::Done => break,
            }
        }
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `.bft` codec costs over a record stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Host ns per `TraceWriter::record` into memory.
    pub encode_ns: f64,
    /// Host ns per record read back through `TraceReader`.
    pub decode_ns: f64,
    /// Encoded bytes per record, framing included.
    pub bytes_per_record: f64,
}

/// Encodes `records` into memory and decodes them back, repeating the
/// stream until at least `min_records` records went each way.
pub fn codec(meta: &TraceMeta, records: &[Record], min_records: usize) -> Codec {
    let passes = min_records.div_ceil(records.len().max(1)).max(1);
    let total = (passes * records.len()).max(1) as f64;

    let start = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..passes {
        let mut writer =
            TraceWriter::new(Vec::with_capacity(bytes.len()), meta).expect("memory writer");
        for record in records {
            writer
                .record(record)
                .expect("writing into memory cannot fail");
        }
        bytes = writer.finish().expect("writing into memory cannot fail");
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / total;

    let start = Instant::now();
    for _ in 0..passes {
        for record in TraceReader::new(&bytes[..]).expect("header just written") {
            black_box(record.expect("records just written"));
        }
    }
    let decode_ns = start.elapsed().as_nanos() as f64 / total;
    Codec {
        encode_ns,
        decode_ns,
        bytes_per_record: bytes.len() as f64 / records.len().max(1) as f64,
    }
}

/// SplitMix64: a fixed, dependency-free stream for the probes' inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host ns per `CacheHierarchy::access` on the Table I hierarchy for
/// `cores` cores: `count` core reads, uniform over the lines of
/// `span_bytes`, round-robin over the cores.
pub fn hierarchy_ns(cores: usize, span_bytes: u64, seed: u64, count: usize) -> f64 {
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::table1(cores));
    let mut state = seed;
    let lines = (span_bytes / 64).max(1);
    let addrs: Vec<PhysAddr> = (0..count)
        .map(|_| PhysAddr::new(splitmix64(&mut state) % lines * 64))
        .collect();
    let mut now: Cycles = 0;
    let start = Instant::now();
    for (i, &addr) in addrs.iter().enumerate() {
        now += hierarchy.access(
            CoreId::new(i % cores),
            addr,
            AccessKind::Read,
            AccessOrigin::Core,
            now,
        );
    }
    black_box(now);
    start.elapsed().as_nanos() as f64 / count.max(1) as f64
}

/// Host milliseconds of a fixed compute-bound loop: a yardstick for how
/// fast the host ran between reps.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut state = 0x5eed;
    for _ in 0..1 << 22 {
        black_box(splitmix64(&mut state));
    }
    start.elapsed().as_secs_f64() * 1e3
}
