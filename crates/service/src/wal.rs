//! The write-ahead log: crash durability for accepted ingest batches.
//!
//! # Format
//!
//! A WAL file is an 8-byte header (`VDWL` magic + `u32` version) followed
//! by length-prefixed, checksummed records:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][kind: u8][body]
//! ```
//!
//! `kind` 1 is an ingest batch (the facts of one `FACT`/`BATCH` request,
//! symbol *names* spelled out — packed `u32` dictionary indexes are
//! process-local and would not survive a restart); `kind` 2 is the
//! clean-shutdown marker. Sequence numbers increase monotonically across
//! the life of a log directory, *including* across [`Wal::reset`]: a
//! snapshot records the last sequence it covers, so recovery can skip
//! records the snapshot already contains if a crash lands between the
//! snapshot rename and the log truncation.
//!
//! # Durability discipline
//!
//! [`Wal::append_batch`] writes and (under [`SyncPolicy::Always`], the
//! default) fsyncs the record **before** the engine applies the batch.
//! If any part of that fails, the partial record is rolled back with
//! `set_len` and the error is surfaced — the engine is never mutated for a
//! batch the log did not durably accept.
//!
//! # Replay tolerance
//!
//! [`replay`] decodes records until the first torn or corrupt one: a
//! truncated tail (crash mid-write) or a checksum mismatch (bit rot) stops
//! the scan, and everything from that point on is *dropped, not fatal* —
//! the log's own length prefix cannot be trusted past a bad record. The
//! report says how many bytes were dropped so the caller can log it and
//! truncate the file back to its valid prefix.

use crate::failpoints::{self, Action};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vadalog_model::{Atom, NullId, Predicate, Symbol, Term};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"VDWL";
const WAL_VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Upper bound on one record's payload — anything larger in a length
/// prefix is treated as corruption rather than honoured as an allocation.
const MAX_PAYLOAD: u32 = 64 << 20;

const KIND_BATCH: u8 = 1;
const KIND_CLEAN_SHUTDOWN: u8 = 2;

/// When appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Every appended batch is fsynced before the append returns — the
    /// durability the recovery guarantees assume. The default.
    #[default]
    Always,
    /// Fsync once every `n` appends (and on clean shutdown). A crash can
    /// lose up to `n - 1` acknowledged batches; replay still recovers a
    /// consistent prefix.
    EveryN(u32),
    /// Never fsync explicitly (the OS flushes when it pleases). For
    /// measuring the fsync share of WAL overhead, not for production.
    Never,
}

/// CRC-32 (IEEE 802.3, reflected). Table-driven; the table is computed at
/// compile time so the dependency-free implementation costs nothing at
/// startup.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 checksum guarding records and snapshot files.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An ingest batch, exactly as accepted.
    Batch {
        /// The record's sequence number.
        seq: u64,
        /// The batch's facts, in request order.
        facts: Vec<Atom>,
    },
    /// The clean-shutdown marker (last record of an orderly exit).
    CleanShutdown {
        /// The record's sequence number.
        seq: u64,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Batch { seq, .. } | WalRecord::CleanShutdown { seq } => *seq,
        }
    }
}

/// The result of scanning a WAL file: the valid record prefix and what (if
/// anything) had to be dropped behind it.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// The file offset of the end of the last valid record: the length the
    /// file should be truncated to before appending resumes.
    pub valid_len: u64,
    /// Bytes dropped after the valid prefix (torn tail or corrupt record).
    pub dropped_bytes: u64,
    /// The sequence number the next appended record should carry.
    pub next_seq: u64,
    /// `true` iff the last valid record is the clean-shutdown marker.
    pub clean_shutdown: bool,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Appends since the last fsync (for [`SyncPolicy::EveryN`]).
    unsynced: u32,
    next_seq: u64,
    /// Current valid file length (everything at or past it is rollback).
    len: u64,
    records_appended: u64,
    /// Set after a torn write: the on-disk state is unknown, so the handle
    /// refuses further appends (recovery opens a fresh one).
    wedged: bool,
}

impl Wal {
    /// Creates (or truncates) the log at `path` and writes the header.
    pub fn create(path: &Path, policy: SyncPolicy) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_VERSION.to_le_bytes())?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            next_seq: 1,
            len: HEADER_LEN,
            records_appended: 0,
            wedged: false,
        })
    }

    /// Opens an existing log for appending after a [`replay`] scan:
    /// truncates the file back to the replay's valid prefix (dropping any
    /// torn tail) and resumes the sequence numbering.
    pub fn open_after_replay(
        path: &Path,
        policy: SyncPolicy,
        replay: &WalReplay,
    ) -> io::Result<Wal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if replay.dropped_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            next_seq: replay.next_seq,
            len: replay.valid_len,
            records_appended: 0,
            wedged: false,
        })
    }

    /// Fast-forwards the sequence counter so the next append gets at least
    /// `next_seq`. Recovery calls this with the snapshot's `last_seq + 1`:
    /// a snapshot can certify sequence numbers beyond anything the
    /// (truncated, possibly empty) log still contains, and re-using those
    /// numbers would make the *next* recovery skip live records as stale.
    pub fn resume_sequence(&mut self, next_seq: u64) {
        self.next_seq = self.next_seq.max(next_seq);
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (not counting replayed ones).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// The log's current (valid) length in bytes.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// The sequence number of the most recently appended record, or of the
    /// last replayed record if nothing has been appended yet.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one ingest batch and applies the sync policy. On **any**
    /// failure — injected or real, write or fsync — the partial record is
    /// rolled back so the log never holds a record for a batch the caller
    /// will not apply.
    pub fn append_batch(&mut self, facts: &[Atom]) -> io::Result<u64> {
        let mut span = vadalog_obs::span("wal.append");
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(KIND_BATCH);
        encode_facts(facts, &mut payload)?;
        if span.active() {
            span.kv("seq", seq);
            span.kv("bytes", payload.len());
        }
        self.append_payload(&payload)?;
        self.next_seq = seq + 1;
        self.records_appended += 1;
        Ok(seq)
    }

    /// Appends the clean-shutdown marker and fsyncs unconditionally — the
    /// whole point of the marker is that it is on disk before exit.
    pub fn append_clean_shutdown(&mut self) -> io::Result<()> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(KIND_CLEAN_SHUTDOWN);
        let start = self.len;
        let result = self
            .write_record(&payload)
            .and_then(|()| self.file.sync_data());
        if let Err(error) = result {
            let _ = self.file.set_len(start);
            self.len = start;
            return Err(error);
        }
        self.unsynced = 0;
        self.next_seq = seq + 1;
        Ok(())
    }

    /// Fsyncs any unsynced appends (a no-op under [`SyncPolicy::Always`]).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            let mut span = vadalog_obs::span("wal.fsync");
            if span.active() {
                span.kv("unsynced", self.unsynced);
            }
            failpoints::check("wal.sync")?;
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Truncates the log back to its header after a successful snapshot.
    /// Sequence numbering continues — the snapshot remembers the last
    /// sequence it covers, so a crash between the snapshot landing and this
    /// truncation is recoverable (the stale records are skipped by
    /// sequence, not replayed twice).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.file.sync_data()?;
        self.len = HEADER_LEN;
        self.unsynced = 0;
        Ok(())
    }

    /// Writes one length+crc framed record, honouring the `wal.append`
    /// fail point (including its torn-write action) and rolling back on
    /// failure.
    fn append_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        let start = self.len;
        let result = self.write_record(payload).and_then(|()| match self.policy {
            SyncPolicy::Always => {
                failpoints::check("wal.sync")?;
                self.file.sync_data()
            }
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        });
        if let Err(error) = result {
            if !self.wedged {
                // Best-effort rollback of the partial record; if even that
                // fails, replay's torn-tail tolerance covers the leftover.
                let _ = self.file.set_len(start);
                let _ = self.file.seek(SeekFrom::Start(start));
                self.len = start;
            }
            return Err(error);
        }
        Ok(())
    }

    fn write_record(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.wedged {
            return Err(io::Error::other("WAL wedged by a torn write"));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match failpoints::hit("wal.append") {
            Action::Off => {}
            Action::Stall(for_how_long) => std::thread::sleep(for_how_long),
            Action::Error => return Err(io::Error::other("failpoint wal.append")),
            Action::Panic => panic!("failpoint wal.append"),
            Action::TornWrite => {
                // Persist only half the frame, then fail — exactly the
                // on-disk state a crash mid-write leaves behind. The torn
                // bytes are deliberately *not* rolled back, and the handle
                // wedges: a real crash would not keep appending either.
                self.file.write_all(&frame[..frame.len() / 2])?;
                let _ = self.file.sync_data();
                self.wedged = true;
                return Err(io::Error::other("failpoint wal.append (torn)"));
            }
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }
}

/// Scans the WAL at `path`, returning the valid record prefix (see
/// [`WalReplay`]). A missing file is an empty log; a bad header is an
/// error (the file is not a WAL — silently treating it as empty could
/// discard someone else's data on the next truncation).
pub fn replay(path: &Path) -> io::Result<WalReplay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(error) if error.kind() == io::ErrorKind::NotFound => {}
        Err(error) => return Err(error),
    }
    let mut out = WalReplay {
        records: Vec::new(),
        valid_len: HEADER_LEN.min(bytes.len() as u64),
        dropped_bytes: 0,
        next_seq: 1,
        clean_shutdown: false,
    };
    if bytes.is_empty() {
        out.valid_len = 0;
        return Ok(out);
    }
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a WAL file (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported WAL version {version}"),
        ));
    }
    let mut offset = HEADER_LEN as usize;
    while offset < bytes.len() {
        let Some(record) = decode_record(&bytes[offset..]) else {
            break; // torn or corrupt: drop the rest
        };
        let (consumed, record) = record;
        out.clean_shutdown = matches!(record, WalRecord::CleanShutdown { .. });
        out.next_seq = record.seq() + 1;
        out.records.push(record);
        offset += consumed;
    }
    out.valid_len = offset as u64;
    out.dropped_bytes = (bytes.len() - offset) as u64;
    Ok(out)
}

/// Decodes one record off the front of `bytes`; `None` on a torn or
/// corrupt record (truncated frame, oversized length prefix, checksum
/// mismatch, or undecodable payload).
fn decode_record(bytes: &[u8]) -> Option<(usize, WalRecord)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return None;
    }
    let expected_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let end = 8usize.checked_add(len as usize)?;
    let payload = bytes.get(8..end)?;
    if crc32(payload) != expected_crc {
        return None;
    }
    if payload.len() < 9 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let record = match payload[8] {
        KIND_BATCH => WalRecord::Batch {
            seq,
            facts: decode_facts(&payload[9..])?,
        },
        KIND_CLEAN_SHUTDOWN => WalRecord::CleanShutdown { seq },
        _ => return None,
    };
    Some((end, record))
}

const TERM_CONST: u8 = 0;
const TERM_NULL: u8 = 1;

/// Encodes a batch body: fact count, then per fact the predicate name, the
/// arity and the terms — constants by *name* (dictionary indexes are
/// process-local), labelled nulls by id. Variables cannot appear (the
/// protocol only accepts ground facts); one slipping through is an
/// encoding error, not silent corruption.
fn encode_facts(facts: &[Atom], out: &mut Vec<u8>) -> io::Result<()> {
    out.extend_from_slice(&(facts.len() as u32).to_le_bytes());
    for fact in facts {
        let name = fact.predicate.name().as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(fact.terms.len() as u16).to_le_bytes());
        for term in &fact.terms {
            match term {
                Term::Const(symbol) => {
                    let text = symbol.as_str().as_bytes();
                    out.push(TERM_CONST);
                    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                    out.extend_from_slice(text);
                }
                Term::Null(NullId(id)) => {
                    out.push(TERM_NULL);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                Term::Var(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "cannot log a non-ground fact",
                    ));
                }
            }
        }
    }
    Ok(())
}

fn decode_facts(mut body: &[u8]) -> Option<Vec<Atom>> {
    let count = read_u32(&mut body)? as usize;
    let mut facts = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        let name_len = read_u16(&mut body)? as usize;
        let name = std::str::from_utf8(read_bytes(&mut body, name_len)?).ok()?;
        let predicate = Predicate::new(name);
        let arity = read_u16(&mut body)? as usize;
        let mut terms = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = read_bytes(&mut body, 1)?[0];
            match tag {
                TERM_CONST => {
                    let len = read_u32(&mut body)? as usize;
                    let text = std::str::from_utf8(read_bytes(&mut body, len)?).ok()?;
                    terms.push(Term::Const(Symbol::new(text)));
                }
                TERM_NULL => {
                    let id = u64::from_le_bytes(read_bytes(&mut body, 8)?.try_into().ok()?);
                    terms.push(Term::Null(NullId(id)));
                }
                _ => return None,
            }
        }
        facts.push(Atom::new(predicate, terms));
    }
    if body.is_empty() {
        Some(facts)
    } else {
        None // trailing garbage inside a checksummed payload: corrupt
    }
}

fn read_bytes<'a>(body: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if body.len() < n {
        return None;
    }
    let (head, tail) = body.split_at(n);
    *body = tail;
    Some(head)
}

fn read_u16(body: &mut &[u8]) -> Option<u16> {
    read_bytes(body, 2).map(|b| u16::from_le_bytes(b.try_into().unwrap()))
}

fn read_u32(body: &mut &[u8]) -> Option<u32> {
    read_bytes(body, 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::parser::parse_fact_list;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vadalog-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn appended_batches_replay_in_order_with_sequence_numbers() {
        let path = temp_path("roundtrip");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        let b1 = parse_fact_list("edge(a, b). edge(b, c).").unwrap();
        let b2 = parse_fact_list("link(p, q).").unwrap();
        assert_eq!(wal.append_batch(&b1).unwrap(), 1);
        assert_eq!(wal.append_batch(&b2).unwrap(), 2);
        wal.append_clean_shutdown().unwrap();

        let replay = replay(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], WalRecord::Batch { seq: 1, facts: b1 });
        assert_eq!(replay.records[1], WalRecord::Batch { seq: 2, facts: b2 });
        assert!(replay.clean_shutdown);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.next_seq, 4);
    }

    #[test]
    fn torn_tails_and_corrupt_checksums_drop_the_suffix_not_the_log() {
        let path = temp_path("torn");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        let facts = parse_fact_list("edge(a, b).").unwrap();
        wal.append_batch(&facts).unwrap();
        wal.append_batch(&facts).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Torn tail: truncate the last record mid-frame.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let torn = replay(&path).unwrap();
        assert_eq!(torn.records.len(), 1, "only the intact record survives");
        assert!(torn.dropped_bytes > 0);
        assert!(!torn.clean_shutdown);

        // Corrupt checksum: flip a byte inside the second record's payload.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let scanned = replay(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.dropped_bytes > 0);

        // Appending resumes after truncating the bad tail.
        let mut wal = Wal::open_after_replay(&path, SyncPolicy::Always, &scanned).unwrap();
        assert_eq!(wal.append_batch(&facts).unwrap(), scanned.next_seq);
        let healed = replay(&path).unwrap();
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.dropped_bytes, 0);
    }

    #[test]
    fn a_missing_log_is_empty_and_a_foreign_file_is_an_error() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let scanned = replay(&path).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.next_seq, 1);

        std::fs::write(&path, b"definitely not a WAL").unwrap();
        assert!(replay(&path).is_err());
    }

    #[test]
    fn reset_truncates_but_keeps_sequencing_monotonic() {
        let path = temp_path("reset");
        let mut wal = Wal::create(&path, SyncPolicy::EveryN(8)).unwrap();
        let facts = parse_fact_list("edge(a, b).").unwrap();
        wal.append_batch(&facts).unwrap();
        wal.append_batch(&facts).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), 8, "header only after reset");
        let seq = wal.append_batch(&facts).unwrap();
        assert_eq!(seq, 3, "sequence numbering survives the reset");
        wal.sync().unwrap();
        let scanned = replay(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0].seq(), 3);
    }
}
