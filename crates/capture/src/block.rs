//! Block framing + the stateful record codec.
//!
//! Frame layout per block: `u32 payload_len | u32 record_count |
//! u32 crc32(payload) | payload`. Records never span blocks; codec
//! state (the stream dictionary and per-stream previous VPNs) carries
//! across blocks, so blocks are independently *validatable* (CRC +
//! record count) while decoding is sequential.

use crate::crc::crc32;
use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::{Record, TraceError};
use bf_types::{AccessKind, FastMap, Pid, VirtAddr};
use std::io::{Read, Write};

/// Leading file magic.
pub const FILE_MAGIC: [u8; 4] = *b"BFT1";
/// Current format version.
pub const FORMAT_VERSION: u16 = 1;
/// Maximum payload bytes per block. Small enough that corruption
/// quarantines little data, large enough that framing overhead
/// (12 bytes/block) is noise.
pub const BLOCK_PAYLOAD_CAPACITY: usize = 4096;

/// Simulated page size used to split addresses into (VPN, offset) for
/// delta coding. Purely a codec choice — any address roundtrips.
const PAGE: u64 = 4096;

const TAG_ACCESS: u64 = 0;
const TAG_SWITCH: u64 = 1;
const TAG_REQUEST_END: u64 = 2;
const TAG_META: u64 = 3;

const META_RESET: u64 = 0;
const META_STREAM_DEFINE: u64 = 1;

/// Encoder state: interned `(core, pid)` streams and each stream's
/// previous VPN for delta coding.
#[derive(Debug, Default)]
pub(crate) struct EncodeState {
    streams: FastMap<(u32, u32), u64>,
    last_vpn: Vec<i64>,
}

impl EncodeState {
    /// Encodes `record` into `out`, interning new streams inline.
    /// Returns how many records were appended (2 when a stream
    /// definition precedes its first access).
    pub(crate) fn encode(&mut self, record: &Record, out: &mut Vec<u8>) -> u32 {
        match *record {
            Record::Access {
                core,
                pid,
                va,
                kind,
                instrs_before,
            } => {
                let key = (core, pid.raw());
                let mut emitted = 1;
                let index = match self.streams.get(&key) {
                    Some(&index) => index,
                    None => {
                        let index = self.streams.len() as u64;
                        self.streams.insert(key, index);
                        self.last_vpn.push(0);
                        write_u64(out, TAG_META | (META_STREAM_DEFINE << 2));
                        write_u64(out, core as u64);
                        write_u64(out, pid.raw() as u64);
                        emitted += 1;
                        index
                    }
                };
                let vpn = (va.raw() / PAGE) as i64;
                let offset = va.raw() % PAGE;
                write_u64(
                    out,
                    TAG_ACCESS | ((kind.index() as u64) << 2) | (index << 4),
                );
                write_i64(out, vpn - self.last_vpn[index as usize]);
                self.last_vpn[index as usize] = vpn;
                write_u64(out, offset);
                write_u64(out, instrs_before as u64);
                emitted
            }
            Record::Switch { core, cost } => {
                write_u64(out, TAG_SWITCH | ((core as u64) << 2));
                write_u64(out, cost);
                1
            }
            Record::RequestEnd { cycles } => {
                write_u64(out, TAG_REQUEST_END);
                write_u64(out, cycles);
                1
            }
            Record::Reset => {
                write_u64(out, TAG_META | (META_RESET << 2));
                1
            }
        }
    }
}

/// Decoder state mirroring [`EncodeState`].
#[derive(Debug, Default)]
pub(crate) struct DecodeState {
    streams: Vec<(u32, u32)>,
    last_vpn: Vec<i64>,
}

impl DecodeState {
    /// Decodes one record at `*pos`. `Ok(None)` means a stream
    /// definition was consumed (it counts against the block's record
    /// count but yields nothing to the caller).
    pub(crate) fn decode(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<Option<Record>, TraceError> {
        let head = read_u64(bytes, pos)?;
        match head & 3 {
            TAG_ACCESS => {
                let kind = AccessKind::from_index(((head >> 2) & 3) as u8)
                    .ok_or_else(|| TraceError::BadRecord("bad access kind".into()))?;
                let index = (head >> 4) as usize;
                let (core, pid) = *self
                    .streams
                    .get(index)
                    .ok_or_else(|| TraceError::BadRecord(format!("undefined stream {index}")))?;
                let delta = read_i64(bytes, pos)?;
                let vpn = self.last_vpn[index].wrapping_add(delta);
                self.last_vpn[index] = vpn;
                let offset = read_u64(bytes, pos)?;
                if offset >= PAGE {
                    return Err(TraceError::BadRecord(format!("page offset {offset}")));
                }
                let instrs_before = read_u64(bytes, pos)?;
                let instrs_before = u32::try_from(instrs_before)
                    .map_err(|_| TraceError::BadRecord("instrs_before overflows u32".into()))?;
                Ok(Some(Record::Access {
                    core,
                    pid: Pid::new(pid),
                    va: VirtAddr::new((vpn as u64).wrapping_mul(PAGE) + offset),
                    kind,
                    instrs_before,
                }))
            }
            TAG_SWITCH => {
                let core = u32::try_from(head >> 2)
                    .map_err(|_| TraceError::BadRecord("switch core overflows u32".into()))?;
                let cost = read_u64(bytes, pos)?;
                Ok(Some(Record::Switch { core, cost }))
            }
            TAG_REQUEST_END => {
                let cycles = read_u64(bytes, pos)?;
                Ok(Some(Record::RequestEnd { cycles }))
            }
            _ => match head >> 2 {
                META_RESET => Ok(Some(Record::Reset)),
                META_STREAM_DEFINE => {
                    let core = u32::try_from(read_u64(bytes, pos)?)
                        .map_err(|_| TraceError::BadRecord("stream core overflows u32".into()))?;
                    let pid = u32::try_from(read_u64(bytes, pos)?)
                        .map_err(|_| TraceError::BadRecord("stream pid overflows u32".into()))?;
                    self.streams.push((core, pid));
                    self.last_vpn.push(0);
                    Ok(None)
                }
                sub => Err(TraceError::BadRecord(format!("unknown meta record {sub}"))),
            },
        }
    }

    /// Streams defined so far, as `(core, raw pid)` pairs.
    pub(crate) fn streams(&self) -> &[(u32, u32)] {
        &self.streams
    }
}

/// Writes one framed block.
pub(crate) fn write_block<W: Write>(
    sink: &mut W,
    payload: &[u8],
    record_count: u32,
) -> std::io::Result<()> {
    sink.write_all(&(payload.len() as u32).to_le_bytes())?;
    sink.write_all(&record_count.to_le_bytes())?;
    sink.write_all(&crc32(payload).to_le_bytes())?;
    sink.write_all(payload)
}

/// Reads the next framed block into `payload`, returning its declared
/// record count, or `None` at a clean end of file. Truncation and CRC
/// mismatches surface as [`TraceError::CorruptBlock`] carrying
/// `index`.
pub(crate) fn read_block<R: Read>(
    source: &mut R,
    index: usize,
    payload: &mut Vec<u8>,
) -> std::io::Result<Option<u32>> {
    let mut frame = [0u8; 12];
    match read_exact_or_eof(source, &mut frame)? {
        FrameRead::Eof => return Ok(None),
        FrameRead::Partial => {
            return Err(corrupt(index, "truncated block frame"));
        }
        FrameRead::Full => {}
    }
    let payload_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let record_count = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let expected_crc = u32::from_le_bytes(frame[8..12].try_into().unwrap());
    if payload_len > BLOCK_PAYLOAD_CAPACITY {
        return Err(corrupt(
            index,
            &format!("payload length {payload_len} exceeds capacity {BLOCK_PAYLOAD_CAPACITY}"),
        ));
    }
    payload.resize(payload_len, 0);
    if let Err(err) = source.read_exact(payload) {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            return Err(corrupt(index, "truncated block payload"));
        }
        return Err(err);
    }
    let actual = crc32(payload);
    if actual != expected_crc {
        return Err(corrupt(
            index,
            &format!("crc mismatch (stored {expected_crc:#010x}, computed {actual:#010x})"),
        ));
    }
    Ok(Some(record_count))
}

fn corrupt(index: usize, detail: &str) -> std::io::Error {
    TraceError::CorruptBlock {
        index,
        detail: detail.to_string(),
    }
    .into()
}

enum FrameRead {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes a clean EOF (zero bytes read) from
/// a torn frame.
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<FrameRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    FrameRead::Eof
                } else {
                    FrameRead::Partial
                });
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(FrameRead::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(records: &[Record]) -> Vec<Record> {
        let mut enc = EncodeState::default();
        let mut payload = Vec::new();
        for record in records {
            enc.encode(record, &mut payload);
        }
        let mut dec = DecodeState::default();
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < payload.len() {
            if let Some(record) = dec.decode(&payload, &mut pos).unwrap() {
                out.push(record);
            }
        }
        out
    }

    #[test]
    fn codec_roundtrips_all_record_types() {
        let records = [
            Record::Access {
                core: 0,
                pid: Pid::new(1),
                va: VirtAddr::new(0x7fff_1234_5678),
                kind: AccessKind::Fetch,
                instrs_before: 17,
            },
            Record::Access {
                core: 0,
                pid: Pid::new(1),
                va: VirtAddr::new(0x7fff_1234_5000),
                kind: AccessKind::Write,
                instrs_before: 0,
            },
            Record::Switch {
                core: 3,
                cost: 3000,
            },
            Record::Access {
                core: 1,
                pid: Pid::new(9),
                va: VirtAddr::new(0),
                kind: AccessKind::Read,
                instrs_before: u32::MAX,
            },
            Record::RequestEnd { cycles: u64::MAX },
            Record::Reset,
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn same_page_access_is_compact() {
        let mut enc = EncodeState::default();
        let mut payload = Vec::new();
        // First access pays the stream definition + absolute VPN.
        enc.encode(
            &Record::Access {
                core: 0,
                pid: Pid::new(1),
                va: VirtAddr::new(0x7fff_0000_1000),
                kind: AccessKind::Read,
                instrs_before: 3,
            },
            &mut payload,
        );
        let after_first = payload.len();
        // Revisiting the same page costs a handful of bytes.
        enc.encode(
            &Record::Access {
                core: 0,
                pid: Pid::new(1),
                va: VirtAddr::new(0x7fff_0000_1008),
                kind: AccessKind::Read,
                instrs_before: 3,
            },
            &mut payload,
        );
        assert!(
            payload.len() - after_first <= 5,
            "same-page access took {} bytes",
            payload.len() - after_first
        );
    }

    #[test]
    fn block_frame_roundtrips_and_rejects_corruption() {
        let payload = b"some block payload".to_vec();
        let mut file = Vec::new();
        write_block(&mut file, &payload, 7).unwrap();

        let mut out = Vec::new();
        let count = read_block(&mut &file[..], 0, &mut out).unwrap();
        assert_eq!(count, Some(7));
        assert_eq!(out, payload);

        // Clean EOF.
        assert_eq!(read_block(&mut &[][..], 3, &mut out).unwrap(), None);

        // Flipped payload byte → CRC error naming the block.
        let mut bad = file.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let err = read_block(&mut &bad[..], 5, &mut out).unwrap_err();
        assert!(err.to_string().contains("corrupt block 5"), "{err}");
        assert!(err.to_string().contains("crc mismatch"), "{err}");

        // Truncated payload.
        let short = &file[..file.len() - 4];
        let err = read_block(&mut &short[..], 2, &mut out).unwrap_err();
        assert!(err.to_string().contains("corrupt block 2"), "{err}");
    }
}
