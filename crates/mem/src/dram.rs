//! Main-memory timing in the style of DRAMSim2 (Section VI, Table I).

use bf_types::{Cycles, PhysAddr};

/// Organisation and timing of the modelled DRAM (Table I: 32 GB, 2
/// channels, 8 ranks/channel, 8 banks/rank, 1 GHz DDR).
///
/// Timings are expressed in *CPU cycles* (2 GHz core, so one DRAM ns is
/// two CPU cycles); the defaults approximate DDR3-2000-like latencies.
///
/// # Examples
///
/// ```
/// use bf_mem::DramConfig;
/// let config = DramConfig::default();
/// assert_eq!(config.channels, 2);
/// assert!(config.row_miss_cycles > config.row_hit_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Bytes per DRAM row (row-buffer reach).
    pub row_bytes: u64,
    /// CPU cycles for an access that hits the open row (CAS + burst).
    pub row_hit_cycles: Cycles,
    /// CPU cycles for an access that must precharge + activate + CAS.
    pub row_miss_cycles: Cycles,
    /// CPU cycles a bank stays busy after serving an access (limits
    /// back-to-back requests to one bank).
    pub bank_busy_cycles: Cycles,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 2,
            ranks_per_channel: 8,
            banks_per_rank: 8,
            row_bytes: 8 * 1024,
            row_hit_cycles: 36,
            row_miss_cycles: 102,
            bank_busy_cycles: 24,
        }
    }
}

impl DramConfig {
    /// Total banks across the whole memory system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    busy_until: Cycles,
}

/// Channel/rank/bank DRAM timing model with open-row tracking.
///
/// Each access is mapped to a bank by address interleaving (line-grained
/// channel interleave, row-grained bank interleave — the common BRC-style
/// mapping), then charged a row-hit or row-miss latency plus any queueing
/// delay while the bank is busy. The channel count, the banks per channel
/// and the row size are powers of two, so the mapping is masks and
/// shifts.
///
/// # Examples
///
/// ```
/// use bf_mem::{Dram, DramConfig};
/// use bf_types::PhysAddr;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let first = dram.access(PhysAddr::new(0x10000), 0);
/// // A second access to the same row and channel (128 bytes later keeps
/// // the line parity), long after the bank freed up, hits the open row
/// // buffer and is faster.
/// let second = dram.access(PhysAddr::new(0x10080), 10_000);
/// assert!(second < first);
/// ```
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<BankState>,
    /// `channels - 1`: a line's channel is `line & channel_mask`.
    channel_mask: u64,
    /// `log2(row_bytes)`: an address's row is `addr >> row_shift`.
    row_shift: u32,
    /// `ranks_per_channel * banks_per_rank - 1`: a row's bank within its
    /// channel is `row & bank_mask`.
    bank_mask: u64,
    /// `log2(ranks_per_channel * banks_per_rank)`: a channel's first
    /// flat bank index is `channel << bank_shift`.
    bank_shift: u32,
}

impl Dram {
    /// Creates a DRAM model with the given organisation.
    ///
    /// # Panics
    ///
    /// Panics if `channels`, `ranks_per_channel * banks_per_rank` or
    /// `row_bytes` is not a power of two.
    pub fn new(config: DramConfig) -> Self {
        let banks_per_channel = config.ranks_per_channel * config.banks_per_rank;
        assert!(
            config.channels.is_power_of_two()
                && banks_per_channel.is_power_of_two()
                && config.row_bytes.is_power_of_two(),
            "DRAM geometry must be powers of two: {} channels, {banks_per_channel} banks per \
             channel, {} B rows",
            config.channels,
            config.row_bytes
        );
        Dram {
            banks: vec![BankState::default(); config.total_banks()],
            channel_mask: config.channels as u64 - 1,
            row_shift: config.row_bytes.trailing_zeros(),
            bank_mask: banks_per_channel as u64 - 1,
            bank_shift: banks_per_channel.trailing_zeros(),
            config,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Serves one cache-line read/fill at `now`, returning its latency in
    /// CPU cycles (queueing + row hit/miss service).
    pub fn access(&mut self, addr: PhysAddr, now: Cycles) -> Cycles {
        let (bank_index, row) = self.map(addr);
        let bank = &mut self.banks[bank_index];

        let queue = bank.busy_until.saturating_sub(now);
        let service = match bank.open_row {
            Some(open) if open == row => self.config.row_hit_cycles,
            _ => self.config.row_miss_cycles,
        };
        bank.open_row = Some(row);
        // The bank is occupied for the service window (at least the
        // configured minimum gap), creating conflicts under bursts.
        bank.busy_until = now + queue + service.max(self.config.bank_busy_cycles);
        queue + service
    }

    /// Maps a physical address to (flat bank index, row id).
    fn map(&self, addr: PhysAddr) -> (usize, u64) {
        let channel = addr.cache_line() & self.channel_mask;
        let row = addr.raw() >> self.row_shift;
        let bank_index = (channel << self.bank_shift) | (row & self.bank_mask);
        (bank_index as usize, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> DramConfig {
        DramConfig::default()
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let config = quiet_config();
        let mut dram = Dram::new(config);
        let miss = dram.access(PhysAddr::new(0x4_0000), 0);
        // 128 bytes later: same channel (even line), same row.
        let hit = dram.access(PhysAddr::new(0x4_0080), 100_000);
        assert!(
            hit < miss,
            "open-row access should be faster ({hit} vs {miss})"
        );
        assert_eq!(miss, config.row_miss_cycles);
        assert_eq!(hit, config.row_hit_cycles);
    }

    #[test]
    fn busy_bank_queues_requests() {
        let config = quiet_config();
        let mut dram = Dram::new(config);
        let addr = PhysAddr::new(0x8_0000);
        let _ = dram.access(addr, 0);
        // Immediately again: must queue behind the busy bank until the
        // first access's row miss completes, then hit the open row.
        let latency = dram.access(addr, 1);
        assert_eq!(latency, config.row_miss_cycles - 1 + config.row_hit_cycles);
    }

    #[test]
    fn different_rows_in_same_bank_conflict() {
        let config = quiet_config();
        let banks_per_chan = (config.ranks_per_channel * config.banks_per_rank) as u64;
        let mut dram = Dram::new(config);
        let a = PhysAddr::new(0);
        // Same channel (line parity), same bank (row % banks), different row.
        let b = PhysAddr::new(config.row_bytes * banks_per_chan);
        let _ = dram.access(a, 0);
        let lat_b = dram.access(b, 100_000);
        assert_eq!(
            lat_b, config.row_miss_cycles,
            "row conflict must pay full miss"
        );
    }

    #[test]
    fn channel_interleave_spreads_lines() {
        let config = quiet_config();
        let dram = Dram::new(config);
        let (bank_a, _) = dram.map(PhysAddr::new(0));
        let (bank_b, _) = dram.map(PhysAddr::new(64));
        assert_ne!(
            bank_a, bank_b,
            "adjacent lines should map to different channels"
        );
    }

    #[test]
    fn total_banks_matches_organisation() {
        let config = quiet_config();
        assert_eq!(config.total_banks(), 2 * 8 * 8);
        let dram = Dram::new(config);
        assert_eq!(dram.banks.len(), config.total_banks());
    }
    #[test]
    fn mask_map_matches_division_map() {
        // The division formula the masks replace: channel = line mod
        // channels, row = addr / row_bytes, bank = row mod banks per
        // channel, flat index = channel * banks per channel + bank.
        let config = quiet_config();
        let dram = Dram::new(config);
        let banks_per_chan = (config.ranks_per_channel * config.banks_per_rank) as u64;
        let mut addr = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..100_000u64 {
            // Low addresses in order, then scattered 48-bit addresses.
            let raw = if i < 50_000 { i * 64 } else { addr >> 16 };
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pa = PhysAddr::new(raw);
            let channel = pa.cache_line() % config.channels as u64;
            let row = raw / config.row_bytes;
            let bank = channel * banks_per_chan + row % banks_per_chan;
            assert_eq!(dram.map(pa), (bank as usize, row), "address {raw:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "powers of two: 3 channels, 64 banks per channel, 8192 B rows")]
    fn non_power_of_two_geometry_is_rejected() {
        let _ = Dram::new(DramConfig {
            channels: 3,
            ..DramConfig::default()
        });
    }
}
