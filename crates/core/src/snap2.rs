//! The snapshot format: a disk-servable immutable database image.
//!
//! A snapshot persists each index of each disk-backed relation as a
//! *run*: its tuples in sorted stored order, packed little-endian,
//! preceded by a `u64` count. A run is exactly what
//! [`stir_der::disk::BaseRun`] serves pages off, so a restart under
//! `--storage disk` maps the file and is ready to answer queries after
//! reading only the fixed header and the directory — no tuple is touched
//! until a query faults its page in. A restart under `--storage mem`
//! reads the same file and inserts each relation's primary run into
//! in-memory B-trees. This is the only snapshot format: every engine
//! writes it (`.snapshot`, `--snapshot-interval`, `.compact`) and
//! [`crate::resident::ResidentEngine::open`] loads it through one path.
//!
//! # Layout
//!
//! ```text
//! offset  0  b"STIRSNP2"
//! offset  8  [u32 version = 2]
//! offset 12  [u64 program fingerprint]
//! offset 20  [u64 dir_offset] [u64 dir_len]
//! offset 36  run region: per run  [u64 count]  count × arity × [u32]
//! dir_offset directory:
//!            [u32 counter]
//!            [u32 symbol_count] × ([u32 len] bytes)
//!            [u32 relation_count] × (
//!                [u32 name_len] name  [u32 arity]  [u32 run_count]
//!                run_count == 0 → inline tuple section (stir_der::dump)
//!                else run_count × (
//!                    [u32 order_len] × [u32 column]
//!                    [u64 tuple_count] [u64 run_offset] [u64 run_len]
//!                    [u32 page_tuples]
//!                    [u32 fence_words] × [u32]   (first tuple per page)
//!                ))
//!            [u64 extra_fact_count] × ([u32 rel_id] [u32 arity] × [u32])
//! len - 4    [u32 crc32 of everything before]
//! ```
//!
//! Relations that are not disk-eligible (nullary, eqrel closures, see
//! [`crate::database::disk_backed`]) are stored inline in the directory
//! (`run_count == 0`) as a headered [`stir_der::dump`] tuple section. The
//! CRC trailer covers the whole file and is verified *streaming* at open
//! — a bitflip anywhere, including deep inside a multi-gigabyte run
//! region, fails recovery before any tuple is served. Every structural
//! rejection names the byte offset it tripped over, and a file that
//! starts with the retired v1 magic is refused at byte offset 0 by name.
//! Runs are stored in *stored* (index) order; the writer re-encodes
//! source-layout adapters through [`stir_der::disk::write_run`], so the
//! bytes are identical no matter which engine mode produced them, and the
//! fingerprint guarantees the reader derives the same index orders from
//! the same RAM program.
//!
//! A snapshot stores every `Role::Standard` relation — EDB *and* IDB —
//! so loading one skips the initial fixpoint. The `extra_facts` replay
//! list is persisted explicitly (not reconstructed from relation
//! contents) because an `.input` relation that is also a rule head may
//! contain derived tuples, and replaying those as ground facts would
//! wrongly survive a negation-driven retraction.
//!
//! The file is written to a same-directory temp file, fsynced, renamed
//! into place, and the directory fsynced — a crash mid-write never
//! damages the previous snapshot. The periodic snapshot path arms the
//! `snapshot_write` fault point; `.compact` arms `compact_write`.

use crate::database::{disk_backed, Database};
use crate::error::StorageError;
use crate::fault::{self, FaultPoint};
use crate::wal::{crc32_feed, put_str, put_u32, put_u64, ByteReader};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use stir_der::disk::{self, BaseRun, DiskIndex, RunFile};
use stir_der::order::Order;
use stir_der::{IndexAdapter, RamDomain};
use stir_ram::program::{RamProgram, RelId, Role};

/// Snapshot file magic.
pub const SNAP2_MAGIC: &[u8; 8] = b"STIRSNP2";

/// The retired v1 snapshot magic, recognized only to refuse it.
const SNAP1_MAGIC: &[u8; 8] = b"STIRSNP1";

/// Current v2 format version (the `u32` after the magic).
pub const SNAP2_VERSION: u32 = 2;

/// Fixed header length: magic + version + fingerprint + dir offset/len.
pub const SNAP2_HEADER: u64 = 8 + 4 + 8 + 8 + 8;

/// What [`write_snapshot_v2`] persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Tuples across all serialized relations.
    pub tuples: u64,
    /// Total snapshot size in bytes.
    pub bytes: u64,
}

/// One persisted index run of a disk-backed relation.
#[derive(Debug)]
pub struct Snap2Run {
    /// The index order's column permutation (source column per stored
    /// position).
    pub order: Vec<usize>,
    /// Tuples in the run.
    pub count: usize,
    /// Absolute byte offset of the first tuple word (past the `u64`
    /// count prefix) — what [`BaseRun::new`] wants.
    pub tuple_offset: u64,
    /// Tuples per sparse-index page.
    pub page_tuples: usize,
    /// First stored tuple of every page, flattened.
    pub fence: Vec<RamDomain>,
}

/// One relation's entry in the directory.
#[derive(Debug)]
pub struct Snap2Relation {
    /// Relation name (names, not ids, key the snapshot).
    pub name: String,
    /// Column count.
    pub arity: usize,
    /// One run per index, in index order. Empty for inline relations.
    pub runs: Vec<Snap2Run>,
    /// Source-order tuples for non-disk-eligible relations.
    pub inline: Option<Vec<Vec<RamDomain>>>,
}

/// A validated, opened v2 snapshot: the directory plus the shared paged
/// reader over the run region.
pub struct Snap2 {
    /// The `$` auto-increment counter at snapshot time.
    pub counter: u32,
    /// The full symbol table, in id order.
    pub symbols: Vec<String>,
    /// Every `Role::Standard` relation.
    pub relations: Vec<Snap2Relation>,
    /// The externally-inserted fact replay list.
    pub extra_facts: Vec<(RelId, Vec<RamDomain>)>,
    /// The paged file every [`BaseRun`] of this snapshot reads through.
    pub file: Arc<RunFile>,
}

impl Snap2 {
    /// Builds the [`BaseRun`] for relation `rel`'s run `k`, sharing this
    /// snapshot's page cache.
    pub fn base_run(&self, rel: &Snap2Relation, k: usize) -> BaseRun {
        let run = &rel.runs[k];
        BaseRun::new(
            Arc::clone(&self.file),
            run.tuple_offset,
            run.count,
            rel.arity,
            run.page_tuples,
            run.fence.clone(),
        )
    }

    /// Feeds every tuple of `rel`, in source order, to `f`: the inline
    /// tuples, or the primary run decoded back from stored order (read
    /// once, sequentially, through the page cache).
    pub fn for_each_tuple(&self, rel: &Snap2Relation, mut f: impl FnMut(&[RamDomain])) {
        if let Some(tuples) = &rel.inline {
            tuples.iter().for_each(|t| f(t));
            return;
        }
        let order = Order::new(rel.runs[0].order.clone());
        let idx = DiskIndex::with_base(order, true, self.base_run(rel, 0));
        let mut it = idx.scan();
        while let Some(t) = it.next_tuple() {
            f(t);
        }
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serializes the database as a v2 snapshot, atomically (same-directory
/// temp file + fsync + rename + directory fsync).
///
/// `fault_point` is the injection point armed before the temp-file
/// write: [`FaultPoint::SnapshotWrite`] for the periodic snapshot path,
/// [`FaultPoint::CompactWrite`] for `.compact`.
///
/// # Errors
///
/// I/O failures and injected faults; on error the previous snapshot (if
/// any) is untouched.
pub fn write_snapshot_v2(
    path: &Path,
    fp: u64,
    ram: &RamProgram,
    db: &Database,
    extra_facts: &[(RelId, Vec<RamDomain>)],
    fault_point: FaultPoint,
) -> Result<SnapshotStats, StorageError> {
    struct RunMeta {
        order: Vec<usize>,
        count: u64,
        offset: u64,
        len: u64,
        page_tuples: u32,
        fence: Vec<RamDomain>,
    }
    enum RelMeta {
        Runs(Vec<RunMeta>),
        Inline(Vec<u8>),
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(SNAP2_MAGIC);
    put_u32(&mut buf, SNAP2_VERSION);
    put_u64(&mut buf, fp);
    let patch_at = buf.len();
    put_u64(&mut buf, 0); // dir_offset, patched below
    put_u64(&mut buf, 0); // dir_len, patched below

    let standard: Vec<_> = ram
        .relations
        .iter()
        .filter(|r| r.role == Role::Standard)
        .collect();
    let mut tuples = 0u64;
    let mut entries: Vec<(String, u32, RelMeta)> = Vec::with_capacity(standard.len());
    for meta in standard {
        let rel = db.rd(meta.id);
        if disk_backed(meta) {
            let mut runs = Vec::with_capacity(rel.index_count());
            for k in 0..rel.index_count() {
                let idx = rel.index(k);
                let order = idx.order();
                let count = idx.len() as u64;
                let page_tuples = disk::page_tuples(meta.arity);
                let offset = buf.len() as u64;
                let encode = if idx.stores_source_order() && !order.is_natural() {
                    Some(order)
                } else {
                    None
                };
                let mut it = idx.scan();
                let fence =
                    disk::write_run(&mut buf, &mut *it, count, meta.arity, page_tuples, encode)
                        .map_err(|e| StorageError::io("serialize snapshot run", &e))?;
                drop(it);
                let len = buf.len() as u64 - offset;
                runs.push(RunMeta {
                    order: order.columns().to_vec(),
                    count,
                    offset,
                    len,
                    page_tuples: page_tuples as u32,
                    fence,
                });
                if k == 0 {
                    tuples += count;
                }
            }
            entries.push((meta.name.clone(), meta.arity as u32, RelMeta::Runs(runs)));
        } else {
            let mut section = Vec::new();
            tuples += stir_der::dump::write_tuples(&mut section, &rel)
                .expect("Vec<u8> writes are infallible");
            entries.push((
                meta.name.clone(),
                meta.arity as u32,
                RelMeta::Inline(section),
            ));
        }
    }

    let dir_offset = buf.len() as u64;
    put_u32(
        &mut buf,
        db.counter.load(std::sync::atomic::Ordering::Relaxed),
    );
    {
        let symbols = db.symbols_rd();
        let strings = symbols.strings();
        put_u32(&mut buf, strings.len() as u32);
        for s in strings {
            put_str(&mut buf, s);
        }
    }
    put_u32(&mut buf, entries.len() as u32);
    for (name, arity, entry) in &entries {
        put_str(&mut buf, name);
        put_u32(&mut buf, *arity);
        match entry {
            RelMeta::Runs(runs) => {
                put_u32(&mut buf, runs.len() as u32);
                for run in runs {
                    put_u32(&mut buf, run.order.len() as u32);
                    for &c in &run.order {
                        put_u32(&mut buf, c as u32);
                    }
                    put_u64(&mut buf, run.count);
                    put_u64(&mut buf, run.offset);
                    put_u64(&mut buf, run.len);
                    put_u32(&mut buf, run.page_tuples);
                    put_u32(&mut buf, run.fence.len() as u32);
                    for &v in &run.fence {
                        put_u32(&mut buf, v);
                    }
                }
            }
            RelMeta::Inline(section) => {
                put_u32(&mut buf, 0);
                buf.extend_from_slice(section);
            }
        }
    }
    put_u64(&mut buf, extra_facts.len() as u64);
    for (rid, t) in extra_facts {
        put_u32(&mut buf, rid.0 as u32);
        put_u32(&mut buf, t.len() as u32);
        for &v in t {
            put_u32(&mut buf, v);
        }
    }
    let dir_len = buf.len() as u64 - dir_offset;
    buf[patch_at..patch_at + 8].copy_from_slice(&dir_offset.to_le_bytes());
    buf[patch_at + 8..patch_at + 16].copy_from_slice(&dir_len.to_le_bytes());
    let crc = !crc32_feed(!0u32, &buf);
    put_u32(&mut buf, crc);

    let err = |op: &'static str| move |e: io::Error| StorageError::io(op, &e);
    let tmp: PathBuf = path.with_extension("tmp");
    fault::check(fault_point).map_err(err("write snapshot"))?;
    {
        let mut f = File::create(&tmp).map_err(err("create snapshot temp"))?;
        f.write_all(&buf).map_err(err("write snapshot"))?;
        f.sync_all().map_err(err("fsync snapshot"))?;
    }
    fault::check(FaultPoint::SnapshotRename).map_err(err("publish snapshot"))?;
    std::fs::rename(&tmp, path).map_err(err("publish snapshot"))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(SnapshotStats {
        tuples,
        bytes: buf.len() as u64,
    })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Opens and validates a v2 snapshot: header checks, a streaming CRC
/// pass over the whole file, directory decode, and per-run geometry
/// validation. Tuples themselves stay on disk behind `cache_budget`
/// bytes of page cache.
///
/// # Errors
///
/// Every rejection — bad or retired (v1) magic, wrong version, foreign
/// fingerprint, truncation, checksum mismatch, out-of-bounds or malformed
/// run — is a [`StorageError`] naming the byte offset that tripped it. Injected
/// `disk_map` faults surface here too.
pub fn open_snapshot_v2(path: &Path, fp: u64, cache_budget: usize) -> Result<Snap2, StorageError> {
    fault::check(FaultPoint::DiskMap).map_err(|e| StorageError::io("map snapshot", &e))?;
    let mut f = File::open(path).map_err(|e| StorageError::io("open snapshot", &e))?;
    let file_len = f
        .metadata()
        .map_err(|e| StorageError::io("stat snapshot", &e))?
        .len();

    let mut header = Vec::with_capacity(SNAP2_HEADER as usize);
    (&mut f)
        .take(SNAP2_HEADER)
        .read_to_end(&mut header)
        .map_err(|e| StorageError::io("read snapshot header", &e))?;
    if header.starts_with(SNAP1_MAGIC) {
        return Err(StorageError::new(
            "unsupported snapshot format STIRSNP1 at byte offset 0 (this build reads only STIRSNP2)",
        ));
    }
    if file_len < SNAP2_HEADER + 4 || header.len() < SNAP2_HEADER as usize {
        return Err(StorageError::new(format!(
            "truncated snapshot: {file_len} bytes at byte offset {file_len}, \
             need at least {} for header and checksum",
            SNAP2_HEADER + 4
        )));
    }
    if &header[..8] != SNAP2_MAGIC {
        return Err(StorageError::new(
            "bad snapshot magic at byte offset 0 (expected STIRSNP2)",
        ));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != SNAP2_VERSION {
        return Err(StorageError::new(format!(
            "unsupported snapshot version {version} at byte offset 8 (expected {SNAP2_VERSION})"
        )));
    }
    let file_fp = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if file_fp != fp {
        return Err(StorageError::new(
            "snapshot belongs to a different program (fingerprint mismatch at byte offset 12)",
        ));
    }
    let dir_offset = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let dir_len = u64::from_le_bytes(header[28..36].try_into().unwrap());
    let body_len = file_len - 4;
    if dir_offset < SNAP2_HEADER
        || dir_offset
            .checked_add(dir_len)
            .is_none_or(|end| end != body_len)
    {
        return Err(StorageError::new(format!(
            "snapshot directory out of bounds at byte offset 20: \
             directory [{dir_offset}, {dir_offset}+{dir_len}) must end at byte offset {body_len}"
        )));
    }

    // Streaming CRC over everything before the trailer, capturing the
    // directory bytes on the way past.
    f.seek(SeekFrom::Start(0))
        .map_err(|e| StorageError::io("read snapshot", &e))?;
    let mut crc = !0u32;
    let mut dir = vec![0u8; dir_len as usize];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pos = 0u64;
    while pos < body_len {
        let want = chunk.len().min((body_len - pos) as usize);
        f.read_exact(&mut chunk[..want]).map_err(|e| {
            StorageError::new(format!("truncated snapshot: {e} at byte offset {pos}"))
        })?;
        crc = crc32_feed(crc, &chunk[..want]);
        // Copy the slice of this chunk that overlaps the directory.
        let (c0, c1) = (pos, pos + want as u64);
        let (d0, d1) = (dir_offset, dir_offset + dir_len);
        if c1 > d0 && c0 < d1 {
            let lo = d0.max(c0);
            let hi = d1.min(c1);
            dir[(lo - d0) as usize..(hi - d0) as usize]
                .copy_from_slice(&chunk[(lo - c0) as usize..(hi - c0) as usize]);
        }
        pos += want as u64;
    }
    let mut trailer = [0u8; 4];
    f.read_exact(&mut trailer).map_err(|e| {
        StorageError::new(format!("truncated snapshot: {e} at byte offset {body_len}"))
    })?;
    if !crc != u32::from_le_bytes(trailer) {
        return Err(StorageError::new(format!(
            "snapshot checksum mismatch at byte offset {body_len} (trailer)"
        )));
    }
    drop(f);

    // Decode the directory.
    let dir_err = |r: &ByteReader<'_>, what: &str| {
        StorageError::new(format!(
            "corrupt snapshot directory: {what} at byte offset {}",
            dir_offset + r.pos() as u64
        ))
    };
    let mut r = ByteReader::new(&dir);
    let counter = r.u32().map_err(|_| dir_err(&r, "counter"))?;
    let symbol_count = r.u32().map_err(|_| dir_err(&r, "symbol count"))? as usize;
    let mut symbols = Vec::with_capacity(symbol_count);
    for _ in 0..symbol_count {
        symbols.push(r.str().map_err(|_| dir_err(&r, "symbol"))?);
    }
    let rel_count = r.u32().map_err(|_| dir_err(&r, "relation count"))? as usize;
    let mut relations = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let name = r.str().map_err(|_| dir_err(&r, "relation name"))?;
        let arity = r.u32().map_err(|_| dir_err(&r, "relation arity"))? as usize;
        let run_count = r.u32().map_err(|_| dir_err(&r, "run count"))? as usize;
        if run_count == 0 {
            let mut section = r.rest();
            let before = section.len();
            let tuples = stir_der::dump::read_tuples(&mut section, arity).map_err(|e| {
                StorageError::new(format!(
                    "corrupt snapshot directory: {e} (section starts at byte offset {})",
                    dir_offset + r.pos() as u64
                ))
            })?;
            r.skip(before - section.len());
            relations.push(Snap2Relation {
                name,
                arity,
                runs: Vec::new(),
                inline: Some(tuples),
            });
            continue;
        }
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let order_len = r.u32().map_err(|_| dir_err(&r, "order length"))? as usize;
            let mut order = Vec::with_capacity(order_len);
            for _ in 0..order_len {
                order.push(r.u32().map_err(|_| dir_err(&r, "order column"))? as usize);
            }
            let count = r.u64().map_err(|_| dir_err(&r, "run tuple count"))? as usize;
            let offset = r.u64().map_err(|_| dir_err(&r, "run offset"))?;
            let len = r.u64().map_err(|_| dir_err(&r, "run length"))?;
            let page_tuples = r.u32().map_err(|_| dir_err(&r, "run page size"))? as usize;
            let fence_words = r.u32().map_err(|_| dir_err(&r, "fence length"))? as usize;
            let mut fence = Vec::with_capacity(fence_words);
            for _ in 0..fence_words {
                fence.push(r.u32().map_err(|_| dir_err(&r, "fence word"))?);
            }
            // Geometry: the run must lie inside the run region and its
            // byte length, tuple count, and fence must agree.
            let expect_len = 8 + (count as u64) * (arity as u64) * 4;
            let pages = if page_tuples == 0 {
                usize::MAX
            } else {
                count.div_ceil(page_tuples)
            };
            if order_len != arity
                || arity == 0
                || page_tuples == 0
                || len != expect_len
                || offset < SNAP2_HEADER
                || offset.checked_add(len).is_none_or(|end| end > dir_offset)
                || fence_words != pages * arity
            {
                return Err(StorageError::new(format!(
                    "corrupt snapshot directory: malformed run for relation `{name}` \
                     at byte offset {} (run [{offset}, {offset}+{len}), {count} tuples, \
                     arity {arity}, {page_tuples} tuples/page, {fence_words} fence words)",
                    dir_offset + r.pos() as u64
                )));
            }
            runs.push(Snap2Run {
                order,
                count,
                tuple_offset: offset + 8,
                page_tuples,
                fence,
            });
        }
        relations.push(Snap2Relation {
            name,
            arity,
            runs,
            inline: None,
        });
    }
    let extra_count = r.u64().map_err(|_| dir_err(&r, "extra fact count"))? as usize;
    let mut extra_facts = Vec::with_capacity(extra_count);
    for _ in 0..extra_count {
        let rid = RelId(r.u32().map_err(|_| dir_err(&r, "extra fact relation"))? as usize);
        let arity = r.u32().map_err(|_| dir_err(&r, "extra fact arity"))? as usize;
        let mut t = Vec::with_capacity(arity);
        for _ in 0..arity {
            t.push(r.u32().map_err(|_| dir_err(&r, "extra fact value"))?);
        }
        extra_facts.push((rid, t));
    }
    if !r.done() {
        return Err(dir_err(&r, "trailing bytes"));
    }

    let file =
        RunFile::open(path, cache_budget).map_err(|e| StorageError::io("map snapshot", &e))?;
    Ok(Snap2 {
        counter,
        symbols,
        relations,
        extra_facts,
        file,
    })
}
