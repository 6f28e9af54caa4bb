//! Write-ahead log: the durability backbone of [`PropertyGraph`].
//!
//! Every mutation of a durable store is encoded as one [`WalOp`] and appended
//! to `wal.log` **before** it touches the in-memory generation. A record is
//! framed as
//!
//! ```text
//! [u32 len][u32 crc32][payload]      payload = [u64 seqno][u8 tag][fields…]
//! ```
//!
//! with all integers little-endian and `crc32` (IEEE) covering the payload.
//! The sequence number of a record equals the store epoch *after* applying it,
//! so the log, the epoch counter, and checkpoint boundaries share one clock:
//! recovery replays exactly the records whose `seqno` exceeds the checkpoint
//! epoch, and any duplicate or gap is a detectable sequence break.
//!
//! Reading is tolerant by construction ([`scan_wal`]): a truncated final
//! record (a *torn tail*, the normal artifact of crashing mid-append) ends
//! the scan cleanly, while a checksum mismatch, implausible frame, or
//! sequence break marks the tail [`WalTail::Corrupt`] — recovery then either
//! surfaces a typed [`RecoveryError`](crate::recovery::RecoveryError) (strict
//! open) or replays the clean prefix (recovering open). The scanner never
//! panics on arbitrary bytes.
//!
//! The module also hosts the deterministic fault-injection hooks
//! ([`FailPoint`] / [`FailPlan`]) used by the crash-recovery test matrix: a
//! durable store can be armed to fail at its write / flush / rename /
//! truncate boundaries, optionally leaving a genuinely torn record behind.
//!
//! [`PropertyGraph`]: crate::store::PropertyGraph

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mrpa_core::{LabelId, VertexId};

use crate::error::StoreError;
use crate::value::Value;

/// File name of the write-ahead log inside a durable store directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"MRPAWAL1";

/// Frames larger than this are treated as corruption, not allocation targets.
pub const MAX_RECORD_LEN: u32 = 1 << 24; // 16 MiB

/// Smallest possible payload: a seqno plus an op tag.
const MIN_RECORD_LEN: u32 = 9;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice — the per-record and per-page checksum used
/// by the WAL and checkpoint formats.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Byte-level codec shared by the WAL and the checkpoint file.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(0);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

/// A bounds-checked reader over a payload slice; every accessor returns a
/// descriptive `Err` instead of panicking, so arbitrary (corrupt) bytes can
/// be decoded safely.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload underrun: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    pub(crate) fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Text(self.str()?)),
            tag => Err(format!("unknown value tag {tag}")),
        }
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Logged operations.
// ---------------------------------------------------------------------------

/// One logged mutation. Additions carry *names* (they may intern new ids);
/// removals and property writes carry the resolved dense ids — replay
/// re-interns in the original order, so ids are deterministic across
/// open/replay cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// `add_vertex(name)` — logged only when the vertex was actually new.
    AddVertex {
        /// The vertex name.
        name: String,
    },
    /// `add_edge(tail, label, head)` — logged only when the edge was new.
    AddEdge {
        /// Tail vertex name.
        tail: String,
        /// Edge label name.
        label: String,
        /// Head vertex name.
        head: String,
    },
    /// `remove_edge` of a resolved, present edge.
    RemoveEdge {
        /// Tail vertex id.
        tail: VertexId,
        /// Label id.
        label: LabelId,
        /// Head vertex id.
        head: VertexId,
    },
    /// `remove_vertex` of a resolved, present vertex (incident edges and all
    /// affected properties are detached by the application of this one op).
    RemoveVertex {
        /// The vertex id.
        vertex: VertexId,
    },
    /// `set_vertex_property`.
    SetVertexProp {
        /// The vertex id.
        vertex: VertexId,
        /// Property key.
        key: String,
        /// Property value.
        value: Value,
    },
    /// `set_edge_property`.
    SetEdgeProp {
        /// Tail vertex id.
        tail: VertexId,
        /// Label id.
        label: LabelId,
        /// Head vertex id.
        head: VertexId,
        /// Property key.
        key: String,
        /// Property value.
        value: Value,
    },
}

impl WalOp {
    /// Whether the op can only touch property maps (never edge structure) —
    /// the store keeps the adjacency caches across such mutations.
    pub fn is_props_only(&self) -> bool {
        matches!(
            self,
            WalOp::SetVertexProp { .. } | WalOp::SetEdgeProp { .. }
        )
    }

    fn encode_payload(&self, seqno: u64, out: &mut Vec<u8>) {
        put_u64(out, seqno);
        match self {
            WalOp::AddVertex { name } => {
                out.push(1);
                put_str(out, name);
            }
            WalOp::AddEdge { tail, label, head } => {
                out.push(2);
                put_str(out, tail);
                put_str(out, label);
                put_str(out, head);
            }
            WalOp::RemoveEdge { tail, label, head } => {
                out.push(3);
                put_u32(out, tail.0);
                put_u32(out, label.0);
                put_u32(out, head.0);
            }
            WalOp::RemoveVertex { vertex } => {
                out.push(4);
                put_u32(out, vertex.0);
            }
            WalOp::SetVertexProp { vertex, key, value } => {
                out.push(5);
                put_u32(out, vertex.0);
                put_str(out, key);
                put_value(out, value);
            }
            WalOp::SetEdgeProp {
                tail,
                label,
                head,
                key,
                value,
            } => {
                out.push(6);
                put_u32(out, tail.0);
                put_u32(out, label.0);
                put_u32(out, head.0);
                put_str(out, key);
                put_value(out, value);
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<(u64, WalOp), String> {
        let mut r = ByteReader::new(payload);
        let seqno = r.u64()?;
        let op = match r.u8()? {
            1 => WalOp::AddVertex { name: r.str()? },
            2 => WalOp::AddEdge {
                tail: r.str()?,
                label: r.str()?,
                head: r.str()?,
            },
            3 => WalOp::RemoveEdge {
                tail: VertexId(r.u32()?),
                label: LabelId(r.u32()?),
                head: VertexId(r.u32()?),
            },
            4 => WalOp::RemoveVertex {
                vertex: VertexId(r.u32()?),
            },
            5 => WalOp::SetVertexProp {
                vertex: VertexId(r.u32()?),
                key: r.str()?,
                value: r.value()?,
            },
            6 => WalOp::SetEdgeProp {
                tail: VertexId(r.u32()?),
                label: LabelId(r.u32()?),
                head: VertexId(r.u32()?),
                key: r.str()?,
                value: r.value()?,
            },
            tag => return Err(format!("unknown op tag {tag}")),
        };
        r.finish()?;
        Ok((seqno, op))
    }
}

/// Encodes one framed record (`len`, `crc`, payload) onto `out`.
pub(crate) fn encode_frame(seqno: u64, op: &WalOp, out: &mut Vec<u8>) {
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; 8]); // len + crc placeholders
    op.encode_payload(seqno, out);
    let payload = &out[frame_start + 8..];
    let len = payload.len() as u32;
    let crc = crc32(payload);
    out[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
    out[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Scanning.
// ---------------------------------------------------------------------------

/// One decoded WAL record plus its frame location in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The record's sequence number (== the store epoch after applying it).
    pub seqno: u64,
    /// The logged operation.
    pub op: WalOp,
    /// Byte offset of the frame start (the `len` field).
    pub offset: u64,
    /// Byte offset one past the frame end.
    pub end: u64,
}

/// How a WAL scan ended. `Torn` is the *normal* artifact of crashing
/// mid-append (the in-flight record was never acknowledged); `Corrupt` means
/// bytes that were once acknowledged no longer check out (bit flips,
/// duplicated or reordered records, foreign files).
#[derive(Debug, Clone, PartialEq)]
pub enum WalTail {
    /// Every byte of the file is a valid record.
    Clean,
    /// The final record is incomplete; `offset` is the clean-prefix end.
    Torn {
        /// Byte offset where the incomplete frame starts.
        offset: u64,
    },
    /// A record fails its checksum, framing, or sequence check; `offset` is
    /// the clean-prefix end.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// Human-readable description of the failure.
        detail: String,
    },
}

/// The result of scanning a WAL file: the decodable clean-prefix records and
/// how the scan ended.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The records of the clean prefix, in log order.
    pub records: Vec<WalRecord>,
    /// How the scan ended.
    pub tail: WalTail,
    /// Total file length in bytes.
    pub file_len: u64,
}

impl WalScan {
    /// Byte offset of the end of the clean prefix (everything past it is torn
    /// or corrupt and will be discarded by the next writer).
    pub fn clean_end(&self) -> u64 {
        match &self.tail {
            WalTail::Clean => self.file_len,
            WalTail::Torn { offset } => *offset,
            WalTail::Corrupt { offset, .. } => *offset,
        }
    }
}

/// Scans a WAL file, returning every record of the clean prefix and a
/// description of the tail. IO failures are [`StoreError::Io`]; *content*
/// problems (torn or corrupt bytes) are reported in [`WalScan::tail`], never
/// as panics. A missing file scans as empty and clean.
pub fn scan_wal(path: &Path) -> Result<WalScan, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::io("reading wal", &e)),
    };
    Ok(scan_wal_bytes(&bytes))
}

/// [`scan_wal`] over an in-memory image (exposed for tests and tooling).
pub fn scan_wal_bytes(bytes: &[u8]) -> WalScan {
    let file_len = bytes.len() as u64;
    let mut scan = WalScan {
        records: Vec::new(),
        tail: WalTail::Clean,
        file_len,
    };
    if bytes.is_empty() {
        return scan;
    }
    if bytes.len() < WAL_MAGIC.len() {
        scan.tail = WalTail::Torn { offset: 0 };
        return scan;
    }
    if &bytes[..8] != WAL_MAGIC {
        scan.tail = WalTail::Corrupt {
            offset: 0,
            detail: "bad WAL magic".into(),
        };
        return scan;
    }
    let mut pos = 8usize;
    let mut prev_seqno: Option<u64> = None;
    loop {
        if pos == bytes.len() {
            scan.tail = WalTail::Clean;
            return scan;
        }
        if bytes.len() - pos < 8 {
            scan.tail = WalTail::Torn { offset: pos as u64 };
            return scan;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if !(MIN_RECORD_LEN..=MAX_RECORD_LEN).contains(&len) {
            scan.tail = WalTail::Corrupt {
                offset: pos as u64,
                detail: format!("implausible record length {len}"),
            };
            return scan;
        }
        let len = len as usize;
        if bytes.len() - pos - 8 < len {
            scan.tail = WalTail::Torn { offset: pos as u64 };
            return scan;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            scan.tail = WalTail::Corrupt {
                offset: pos as u64,
                detail: "checksum mismatch".into(),
            };
            return scan;
        }
        let (seqno, op) = match WalOp::decode_payload(payload) {
            Ok(v) => v,
            Err(detail) => {
                scan.tail = WalTail::Corrupt {
                    offset: pos as u64,
                    detail,
                };
                return scan;
            }
        };
        if let Some(prev) = prev_seqno {
            if seqno != prev + 1 {
                scan.tail = WalTail::Corrupt {
                    offset: pos as u64,
                    detail: format!("sequence break: {prev} then {seqno}"),
                };
                return scan;
            }
        }
        prev_seqno = Some(seqno);
        scan.records.push(WalRecord {
            seqno,
            op,
            offset: pos as u64,
            end: (pos + 8 + len) as u64,
        });
        pos += 8 + len;
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// A crash boundary inside the durable store, for deterministic fault
/// injection (see [`PropertyGraph::arm_failpoint`]).
///
/// [`PropertyGraph::arm_failpoint`]: crate::store::PropertyGraph::arm_failpoint
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailPoint {
    /// Fail a WAL append before any byte reaches the file.
    WalAppend,
    /// Fail a WAL append after writing only half of the frame bytes — a
    /// genuinely torn record.
    WalAppendTorn,
    /// Fail a WAL append *after* the frame is fully written (the record is
    /// durable but the mutation is never acknowledged or applied in memory:
    /// recovery may legitimately resurface it).
    WalFlush,
    /// Fail a checkpoint while writing `checkpoint.tmp` (a partial page is
    /// left behind; the previous checkpoint, if any, is untouched).
    CheckpointWrite,
    /// Fail a checkpoint after the tmp file is complete but before the
    /// atomic rename installs it.
    CheckpointRename,
    /// Fail a checkpoint after the rename but before the WAL is truncated
    /// (recovery must skip the already-checkpointed records by seqno).
    WalTruncate,
}

impl FailPoint {
    /// All crash boundaries, in pipeline order.
    pub const ALL: [FailPoint; 6] = [
        FailPoint::WalAppend,
        FailPoint::WalAppendTorn,
        FailPoint::WalFlush,
        FailPoint::CheckpointWrite,
        FailPoint::CheckpointRename,
        FailPoint::WalTruncate,
    ];
}

impl std::fmt::Display for FailPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FailPoint::WalAppend => "wal-append",
            FailPoint::WalAppendTorn => "wal-append-torn",
            FailPoint::WalFlush => "wal-flush",
            FailPoint::CheckpointWrite => "checkpoint-write",
            FailPoint::CheckpointRename => "checkpoint-rename",
            FailPoint::WalTruncate => "wal-truncate",
        };
        f.write_str(name)
    }
}

#[derive(Debug)]
struct Armed {
    point: FailPoint,
    countdown: u64,
}

/// A shared, clonable fault-injection plan. At most one [`FailPoint`] is
/// armed at a time; the `n`-th guarded execution of that point (0-based)
/// fails with [`StoreError::Injected`] and disarms the plan.
#[derive(Debug, Clone, Default)]
pub struct FailPlan(Arc<Mutex<Option<Armed>>>);

impl FailPlan {
    /// Creates an unarmed plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the plan: the `after`-th subsequent hit of `point` (0 = the very
    /// next one) fails. Re-arming replaces any previous arming.
    pub fn arm(&self, point: FailPoint, after: u64) {
        *self.0.lock().unwrap() = Some(Armed {
            point,
            countdown: after,
        });
    }

    /// Disarms the plan.
    pub fn disarm(&self) {
        *self.0.lock().unwrap() = None;
    }

    /// Records one execution of `point`; returns `true` exactly when the
    /// armed countdown elapses (and disarms the plan).
    pub(crate) fn hit(&self, point: FailPoint) -> bool {
        let mut guard = self.0.lock().unwrap();
        match guard.as_mut() {
            Some(armed) if armed.point == point => {
                if armed.countdown == 0 {
                    *guard = None;
                    true
                } else {
                    armed.countdown -= 1;
                    false
                }
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------

/// An open, append-positioned WAL file. All access happens under the store's
/// write lock, so the writer itself needs no synchronisation.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    fail: FailPlan,
    /// Successful `sync_data` calls (the `StoreStats::wal_fsyncs` counter;
    /// atomic only because `stats()` reads it under the store's read lock
    /// while writers sync under the write lock).
    fsyncs: std::sync::atomic::AtomicU64,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, discarding everything past
    /// `clean_end` (the scan's clean-prefix end). A missing or headerless
    /// file is recreated with a fresh header.
    pub(crate) fn open(path: PathBuf, clean_end: u64, fail: FailPlan) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io("opening wal", &e))?;
        if clean_end < WAL_MAGIC.len() as u64 {
            file.set_len(0)
                .map_err(|e| StoreError::io("resetting wal", &e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| StoreError::io("seeking wal", &e))?;
            file.write_all(WAL_MAGIC)
                .map_err(|e| StoreError::io("writing wal header", &e))?;
        } else {
            file.set_len(clean_end)
                .map_err(|e| StoreError::io("trimming wal tail", &e))?;
            file.seek(SeekFrom::Start(clean_end))
                .map_err(|e| StoreError::io("seeking wal", &e))?;
        }
        Ok(Wal {
            file,
            fail,
            fsyncs: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Appends pre-encoded frames (one or more records). On success the bytes
    /// are in the file (OS-buffered; [`Wal::sync`] is the durability
    /// barrier). Injected failures model a crash at the corresponding
    /// boundary, including a half-written frame for
    /// [`FailPoint::WalAppendTorn`].
    pub(crate) fn append_frames(&mut self, frames: &[u8]) -> Result<(), StoreError> {
        if self.fail.hit(FailPoint::WalAppend) {
            return Err(StoreError::Injected(FailPoint::WalAppend));
        }
        if self.fail.hit(FailPoint::WalAppendTorn) {
            let _ = self.file.write_all(&frames[..frames.len() / 2]);
            return Err(StoreError::Injected(FailPoint::WalAppendTorn));
        }
        self.file
            .write_all(frames)
            .map_err(|e| StoreError::io("appending wal record", &e))?;
        if self.fail.hit(FailPoint::WalFlush) {
            return Err(StoreError::Injected(FailPoint::WalFlush));
        }
        Ok(())
    }

    /// Durability barrier: fsyncs the log file. Counts every successful sync
    /// — explicit `persist()` barriers and the ones checkpointing issues
    /// internally (pre-capture and post-truncate).
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("syncing wal", &e))?;
        self.fsyncs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        crate::metrics::wal_fsyncs_total().inc();
        Ok(())
    }

    /// Successful fsyncs issued by this WAL since it was opened.
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Truncates the log back to a bare header (after a checkpoint absorbed
    /// every record).
    pub(crate) fn truncate(&mut self) -> Result<(), StoreError> {
        if self.fail.hit(FailPoint::WalTruncate) {
            return Err(StoreError::Injected(FailPoint::WalTruncate));
        }
        let header = WAL_MAGIC.len() as u64;
        self.file
            .set_len(header)
            .map_err(|e| StoreError::io("truncating wal", &e))?;
        self.file
            .seek(SeekFrom::Start(header))
            .map_err(|e| StoreError::io("seeking wal", &e))?;
        self.sync()
    }

    /// The fault-injection plan shared with the checkpoint writer.
    pub(crate) fn fail_plan(&self) -> FailPlan {
        self.fail.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddVertex { name: "a".into() },
            WalOp::AddEdge {
                tail: "a".into(),
                label: "knows".into(),
                head: "b".into(),
            },
            WalOp::SetVertexProp {
                vertex: VertexId(0),
                key: "age".into(),
                value: Value::Int(29),
            },
            WalOp::SetEdgeProp {
                tail: VertexId(0),
                label: LabelId(0),
                head: VertexId(1),
                key: "w".into(),
                value: Value::Float(0.5),
            },
            WalOp::RemoveEdge {
                tail: VertexId(0),
                label: LabelId(0),
                head: VertexId(1),
            },
            WalOp::RemoveVertex {
                vertex: VertexId(1),
            },
        ]
    }

    fn encoded_log(ops: &[WalOp]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, op) in ops.iter().enumerate() {
            encode_frame(i as u64 + 1, op, &mut bytes);
        }
        bytes
    }

    #[test]
    fn frames_roundtrip_through_the_scanner() {
        let ops = sample_ops();
        let bytes = encoded_log(&ops);
        let scan = scan_wal_bytes(&bytes);
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.clean_end(), bytes.len() as u64);
        assert_eq!(scan.records.len(), ops.len());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seqno, i as u64 + 1);
            assert_eq!(rec.op, ops[i]);
        }
        // frame spans tile the file exactly
        assert_eq!(scan.records[0].offset, 8);
        for w in scan.records.windows(2) {
            assert_eq!(w[0].end, w[1].offset);
        }
    }

    #[test]
    fn torn_tails_end_the_scan_cleanly() {
        let ops = sample_ops();
        let bytes = encoded_log(&ops);
        let scan = scan_wal_bytes(&bytes);
        let last = scan.records.last().unwrap().clone();
        // cut anywhere strictly inside the last frame → torn, prefix intact
        for cut in [last.offset + 1, last.offset + 7, last.end - 1] {
            let torn = scan_wal_bytes(&bytes[..cut as usize]);
            assert_eq!(
                torn.tail,
                WalTail::Torn {
                    offset: last.offset
                }
            );
            assert_eq!(torn.records.len(), ops.len() - 1);
            assert_eq!(torn.clean_end(), last.offset);
        }
        // empty and headerless files
        assert_eq!(scan_wal_bytes(&[]).tail, WalTail::Clean);
        assert_eq!(
            scan_wal_bytes(&bytes[..3]).tail,
            WalTail::Torn { offset: 0 }
        );
    }

    #[test]
    fn corruption_is_detected_not_panicked_on() {
        let ops = sample_ops();
        let bytes = encoded_log(&ops);
        let scan = scan_wal_bytes(&bytes);
        // flip one payload bit in record 2 → checksum mismatch there
        let target = scan.records[2].clone();
        let mut flipped = bytes.clone();
        flipped[target.offset as usize + 12] ^= 0x40;
        let s = scan_wal_bytes(&flipped);
        assert_eq!(s.records.len(), 2);
        assert!(
            matches!(&s.tail, WalTail::Corrupt { offset, .. } if *offset == target.offset),
            "{:?}",
            s.tail
        );
        // duplicated record → sequence break
        let mut duped = bytes.clone();
        let span = &bytes[scan.records[1].offset as usize..scan.records[1].end as usize];
        duped.extend_from_slice(span);
        let s = scan_wal_bytes(&duped);
        assert_eq!(s.records.len(), ops.len());
        assert!(matches!(&s.tail, WalTail::Corrupt { detail, .. } if detail.contains("sequence")));
        // foreign magic
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert!(matches!(
            scan_wal_bytes(&foreign).tail,
            WalTail::Corrupt { offset: 0, .. }
        ));
        // implausible length
        let mut huge = bytes.clone();
        let off = scan.records[0].offset as usize;
        huge[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(&scan_wal_bytes(&huge).tail, WalTail::Corrupt { detail, .. } if detail.contains("length"))
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_codec_roundtrips_bit_exactly() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Text("héllo \u{1f600}".into()),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut r = ByteReader::new(&buf);
            let back = r.value().unwrap();
            r.finish().unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
    }

    #[test]
    fn failplan_counts_down_and_disarms() {
        let plan = FailPlan::new();
        assert!(!plan.hit(FailPoint::WalAppend));
        plan.arm(FailPoint::WalAppend, 2);
        assert!(!plan.hit(FailPoint::WalAppend));
        assert!(!plan.hit(FailPoint::WalFlush)); // other points unaffected
        assert!(!plan.hit(FailPoint::WalAppend));
        assert!(plan.hit(FailPoint::WalAppend));
        assert!(!plan.hit(FailPoint::WalAppend)); // disarmed
        plan.arm(FailPoint::WalTruncate, 0);
        plan.disarm();
        assert!(!plan.hit(FailPoint::WalTruncate));
    }
}
