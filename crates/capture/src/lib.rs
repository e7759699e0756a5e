//! The `.bft` binary trace format: compact capture + deterministic
//! replay of simulator access streams (DESIGN.md §10).
//!
//! A trace is everything `bf_sim::Machine`'s scheduler-driven loop
//! consumes during a measurement run — memory accesses with their
//! leading non-memory instruction counts, context-switch charges,
//! request boundaries, and the warm-up/measure reset marker — so a
//! replay reproduces the live run's counters and clocks *exactly*
//! without touching the workload generators.
//!
//! # File layout
//!
//! ```text
//! magic "BFT1" | u16 version | u32 header_len | header bytes
//! block*:  u32 payload_len | u32 record_count | u32 crc32 | payload
//! ```
//!
//! All fixed-width integers are little-endian. The header is sorted
//! `key=value\n` lines ([`TraceMeta`]) describing the experiment that
//! produced the stream. Each block carries at most
//! [`BLOCK_PAYLOAD_CAPACITY`] payload bytes, its record count, and a
//! CRC-32 of the payload; records never span blocks, so a damaged file
//! is rejected with the index of the corrupt block and intact prefixes
//! remain readable.
//!
//! # Record encoding
//!
//! Records are LEB128 varints. The first varint's low two bits select
//! the record type:
//!
//! * **0 — Access**: `head = kind << 2 | stream << 4`, then the
//!   zigzagged VPN delta against the stream's previous VPN, the page
//!   offset, and `instrs_before`. Streams are `(core, pid)` pairs,
//!   interned by **3 — Meta/StreamDefine** records on first use, so a
//!   hot page costs ~4 bytes per access.
//! * **1 — Switch**: `head = 1 | core << 2`, then the charged cycles.
//! * **2 — RequestEnd**: `head = 2`, then the request latency in cycles.
//! * **3 — Meta**: `head >> 2` selects `Reset` (0) or `StreamDefine`
//!   (1, followed by core + pid varints).
//!
//! # Example
//!
//! ```
//! use bf_capture::{Record, TraceMeta, TraceReader, TraceWriter};
//! use bf_types::{AccessKind, Pid, VirtAddr};
//!
//! let mut meta = TraceMeta::new();
//! meta.set("app", "mongodb");
//! let mut writer = TraceWriter::new(Vec::new(), &meta).unwrap();
//! writer.record(&Record::Access {
//!     core: 0,
//!     pid: Pid::new(1),
//!     va: VirtAddr::new(0x7000_1234),
//!     kind: AccessKind::Read,
//!     instrs_before: 7,
//! }).unwrap();
//! let bytes = writer.finish().unwrap();
//!
//! let mut reader = TraceReader::new(&bytes[..]).unwrap();
//! assert_eq!(reader.meta().get("app"), Some("mongodb"));
//! let records: Vec<_> = reader.by_ref().map(Result::unwrap).collect();
//! assert_eq!(records.len(), 1);
//! ```

pub mod block;
pub mod crc;
pub mod reader;
pub mod salvage;
pub mod stats;
pub mod varint;
pub mod writer;

use bf_types::{AccessKind, Cycles, Pid, VirtAddr};

pub use block::{BLOCK_PAYLOAD_CAPACITY, FILE_MAGIC, FORMAT_VERSION};
pub use reader::TraceReader;
pub use salvage::{SalvageReader, SalvageReport};
pub use stats::TraceStats;
pub use writer::TraceWriter;

/// One replayable event of the simulator's scheduler-driven loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// One memory access issued on `core` by `pid`, preceded by
    /// `instrs_before` non-memory instructions (the fields of
    /// `bf_workloads::Op::Access` plus placement).
    Access {
        /// Core the access executes on.
        core: u32,
        /// Issuing process.
        pid: Pid,
        /// Accessed virtual address.
        va: VirtAddr,
        /// Read / write / fetch.
        kind: AccessKind,
        /// Non-memory instructions retired before this access.
        instrs_before: u32,
    },
    /// A context switch charged on `core` (scheduler quantum expiry or
    /// run-queue rotation).
    Switch {
        /// Core that paid the switch.
        core: u32,
        /// Switch cost in cycles.
        cost: Cycles,
    },
    /// A request boundary with the live-measured latency: replay records
    /// `cycles` into the latency statistics directly.
    RequestEnd {
        /// Request latency in cycles.
        cycles: Cycles,
    },
    /// The warm-up → measured-window boundary
    /// (`Machine::reset_measurement`).
    Reset,
}

/// Trace-corruption and decode errors (I/O errors surface as
/// [`std::io::Error`] separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// File does not start with [`FILE_MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Malformed header (`key=value\n` lines).
    BadHeader(String),
    /// Block payload failed its CRC or was truncated. Carries the
    /// zero-based block index so the report can name the damage site.
    CorruptBlock {
        /// Zero-based index of the failing block.
        index: usize,
        /// What went wrong (CRC mismatch, truncation, record overrun).
        detail: String,
    },
    /// A record inside an intact block failed to decode.
    BadRecord(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a .bft trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadHeader(detail) => write!(f, "malformed trace header: {detail}"),
            TraceError::CorruptBlock { index, detail } => {
                write!(f, "corrupt block {index}: {detail}")
            }
            TraceError::BadRecord(detail) => write!(f, "malformed record: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<TraceError> for std::io::Error {
    fn from(err: TraceError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, err)
    }
}

/// Trace header: sorted `key=value\n` lines describing the experiment
/// that produced the stream (mode, app, core count, seeds, window
/// sizes). Keys and values must not contain `=` or newlines.
///
/// # Examples
///
/// ```
/// use bf_capture::TraceMeta;
/// let mut meta = TraceMeta::new();
/// meta.set("cores", "4");
/// assert_eq!(meta.get_u64("cores"), Some(4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    entries: std::collections::BTreeMap<String, String>,
}

impl TraceMeta {
    /// Empty header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to `value` (replacing any previous value).
    ///
    /// # Panics
    ///
    /// Panics if the key or value contains `=` or a newline — the
    /// header's line framing cannot represent them.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        assert!(
            !key.contains(['=', '\n']) && !value.contains('\n'),
            "TraceMeta entries must not contain '=' in keys or newlines: {key}={value}"
        );
        self.entries.insert(key.to_string(), value);
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// The value for `key` parsed as u64, if present and numeric.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// All entries in sorted order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Serialized header bytes (sorted `key=value\n` lines).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, value) in &self.entries {
            out.extend_from_slice(key.as_bytes());
            out.push(b'=');
            out.extend_from_slice(value.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Parses serialized header bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| TraceError::BadHeader("header is not UTF-8".into()))?;
        let mut meta = TraceMeta::new();
        for line in text.lines() {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| TraceError::BadHeader(format!("line without '=': {line:?}")))?;
            meta.entries.insert(key.to_string(), value.to_string());
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips_sorted() {
        let mut meta = TraceMeta::new();
        meta.set("zebra", "1");
        meta.set("app", "mongodb");
        meta.set("cores", 8u64);
        let bytes = meta.encode();
        assert_eq!(bytes, b"app=mongodb\ncores=8\nzebra=1\n");
        assert_eq!(TraceMeta::decode(&bytes).unwrap(), meta);
        assert_eq!(meta.get_u64("cores"), Some(8));
        assert_eq!(meta.get("missing"), None);
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(matches!(
            TraceMeta::decode(b"no-equals-sign\n"),
            Err(TraceError::BadHeader(_))
        ));
        assert!(matches!(
            TraceMeta::decode(&[0xff, 0xfe]),
            Err(TraceError::BadHeader(_))
        ));
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn meta_rejects_newline_values() {
        TraceMeta::new().set("key", "two\nlines");
    }
}
