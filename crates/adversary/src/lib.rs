//! "Mala": the paper's adversary, as an attack toolkit.
//!
//! The threat model (Section II): Mala "may take over root on the platform
//! where the DBMS runs", can "target any database file, including data,
//! indexes, logs, and metadata", edits files directly "with a file editor",
//! and can issue any command the WORM server's *API* accepts — but cannot
//! overwrite WORM files, tamper with the buffer cache, or move the
//! compliance clock.
//!
//! Accordingly, every attack here operates on the raw database file (or the
//! local WAL) with ordinary file I/O, and is careful to recompute page
//! checksums — Mala is a competent insider, not a vandal; the checksum is
//! not a defense. Each attack corresponds to a detection test in the
//! integration suite: the point of this crate is to demonstrate that the
//! auditor raises the *specific* violation the paper promises.

#![forbid(unsafe_code)]

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ccdb_btree::IndexEntry;
use ccdb_common::{Error, PageNo, RelId, Result, Timestamp};
use ccdb_storage::{Page, PageType, TupleVersion, WriteTime, PAGE_SIZE};

/// Which engine of a deployment Mala attacks. Multi-engine deployments
/// (tenant namespaces, shards) keep each engine under a well-known
/// deployment-relative prefix; Mala, being root on the platform, can reach
/// any of them with the same file editor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MalaTarget {
    /// A single-engine deployment: `<dir>/engine/`.
    Root,
    /// A tenant's engine: `<dir>/tenants/<name>/engine/`.
    Tenant(String),
    /// A shard's engine: `<dir>/shards/<i>/engine/`.
    Shard(u32),
}

impl MalaTarget {
    /// The deployment-relative directory prefix the target's engine lives
    /// under (empty for [`MalaTarget::Root`]).
    pub fn prefix(&self) -> PathBuf {
        match self {
            MalaTarget::Root => PathBuf::new(),
            MalaTarget::Tenant(name) => Path::new("tenants").join(name),
            MalaTarget::Shard(i) => Path::new("shards").join(i.to_string()),
        }
    }
}

/// One tamper from Mala's catalogue, as data: campaign fuzzers draw these
/// from a seeded RNG, apply them with [`Mala::apply`], and keep the applied
/// sequence as a replayable action trace. Every variant corresponds to a
/// hand-written attack method below.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TamperAction {
    /// [`Mala::alter_tuple_value`].
    AlterTuple { key: Vec<u8>, new_value: Vec<u8> },
    /// [`Mala::delete_tuple`].
    DeleteTuple { key: Vec<u8> },
    /// [`Mala::backdate_insert`].
    BackdateInsert { rel: RelId, key: Vec<u8>, value: Vec<u8>, fake_time: Timestamp },
    /// [`Mala::swap_leaf_entries`].
    SwapLeafEntries,
    /// [`Mala::corrupt_separator`].
    CorruptSeparator,
    /// [`Mala::flip_byte`].
    FlipByte { offset: u64, mask: u8, fix_checksum: bool },
    /// The state-reversion round trip: snapshot the page holding `key`,
    /// alter the tuple, restore the snapshot byte-for-byte. Leaves no local
    /// trace — the canonical *harmless* tamper.
    RevertRoundTrip { key: Vec<u8> },
    /// [`Mala::wipe_local_wal`] (pair with a crash, or the running engine's
    /// own file handle papers over it).
    WipeWal,
}

/// The adversary, bound to the database file on conventional media.
pub struct Mala {
    db_path: PathBuf,
    wal_path: PathBuf,
}

impl Mala {
    /// Targets the database file at `db_path` (usually
    /// `<dir>/engine/db.pages`). The local WAL is assumed to be the
    /// sibling `wal.log`.
    pub fn new(db_path: impl AsRef<Path>) -> Mala {
        let db_path = db_path.as_ref().to_path_buf();
        let wal_path = db_path.parent().map(|d| d.join("wal.log")).unwrap_or_default();
        Mala { db_path, wal_path }
    }

    /// Targets one engine of a (possibly multi-engine) deployment rooted at
    /// `root`: the root engine itself, a tenant under `tenants/<name>`, or a
    /// shard under `shards/<i>`.
    pub fn for_deployment(root: impl AsRef<Path>, target: &MalaTarget) -> Mala {
        let engine_dir = root.as_ref().join(target.prefix()).join("engine");
        Mala { db_path: engine_dir.join("db.pages"), wal_path: engine_dir.join("wal.log") }
    }

    /// The database file under attack.
    pub fn db_path(&self) -> &Path {
        &self.db_path
    }

    /// The local WAL file under attack.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Applies one catalogued [`TamperAction`]; returns whether it landed
    /// (found its victim bytes and changed the file).
    pub fn apply(&self, action: &TamperAction) -> Result<bool> {
        match action {
            TamperAction::AlterTuple { key, new_value } => self.alter_tuple_value(key, new_value),
            TamperAction::DeleteTuple { key } => self.delete_tuple(key),
            TamperAction::BackdateInsert { rel, key, value, fake_time } => {
                self.backdate_insert(*rel, key, value, *fake_time)
            }
            TamperAction::SwapLeafEntries => self.swap_leaf_entries(),
            TamperAction::CorruptSeparator => self.corrupt_separator(),
            TamperAction::FlipByte { offset, mask, fix_checksum } => {
                self.flip_byte(*offset, *mask, *fix_checksum)
            }
            TamperAction::RevertRoundTrip { key } => {
                let Some((pgno, image)) = self.snapshot_page_with(key)? else {
                    return Ok(false);
                };
                let altered = self.alter_tuple_value(key, b"transient-tamper")?;
                self.restore_page(pgno, &image)?;
                Ok(altered)
            }
            TamperAction::WipeWal => {
                self.wipe_local_wal()?;
                Ok(true)
            }
        }
    }

    fn page_count(&self) -> Result<u64> {
        let len = fs::metadata(&self.db_path)
            .map_err(|e| Error::io("statting victim database", e))?
            .len();
        Ok(len / PAGE_SIZE as u64)
    }

    fn read_page(&self, pgno: PageNo) -> Result<Option<Page>> {
        let mut f =
            fs::File::open(&self.db_path).map_err(|e| Error::io("opening victim database", e))?;
        f.seek(SeekFrom::Start(pgno.0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking victim database", e))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read_exact(&mut buf).map_err(|e| Error::io("reading victim page", e))?;
        Ok(Page::from_bytes(&buf).ok())
    }

    fn write_page(&self, page: &mut Page) -> Result<()> {
        let img = page.finalize_for_write().to_vec();
        let mut f = OpenOptions::new()
            .write(true)
            .open(&self.db_path)
            .map_err(|e| Error::io("opening victim database for writing", e))?;
        f.seek(SeekFrom::Start(page.pgno().0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking victim database", e))?;
        f.write_all(&img).map_err(|e| Error::io("writing tampered page", e))?;
        f.sync_data().map_err(|e| Error::io("syncing tampered page", e))?;
        Ok(())
    }

    /// Visits every parseable leaf page.
    fn for_each_leaf(&self, mut f: impl FnMut(&mut Page) -> Result<bool>) -> Result<bool> {
        for i in 0..self.page_count()? {
            let Some(mut page) = self.read_page(PageNo(i))? else { continue };
            if page.page_type() != PageType::Leaf {
                continue;
            }
            if f(&mut page)? {
                self.write_page(&mut page)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// **Alter a committed tuple's value in place** — the core cover-up
    /// attack ("a CEO may want to hide illegal asset shuffling recorded in
    /// the company's financial database"). Returns `true` if a version of
    /// `key` was found and rewritten.
    pub fn alter_tuple_value(&self, key: &[u8], new_value: &[u8]) -> Result<bool> {
        self.for_each_leaf(|page| {
            for i in 0..page.cell_count() {
                let Ok(mut t) = TupleVersion::decode_cell(page.cell(i)) else { continue };
                if t.key == key && !t.end_of_life {
                    t.value = new_value.to_vec();
                    page.replace_cell(i, &t.encode_cell())?;
                    return Ok(true);
                }
            }
            Ok(false)
        })
    }

    /// **Shred a tuple version outside the protocol** — destroy evidence
    /// without an expiry or a `SHREDDED` record.
    pub fn delete_tuple(&self, key: &[u8]) -> Result<bool> {
        self.for_each_leaf(|page| {
            for i in 0..page.cell_count() {
                let Ok(t) = TupleVersion::decode_cell(page.cell(i)) else { continue };
                if t.key == key {
                    page.remove_cell(i);
                    return Ok(true);
                }
            }
            Ok(false)
        })
    }

    /// **Post-hoc insertion**: plant a tuple with a commit time in the past,
    /// "to make it appear that an activity took place though in fact it did
    /// not" (forged government records: births, deaths, property transfers).
    /// The tuple is inserted in correct sort position on the first leaf of
    /// `rel` with room, with a fresh tuple-order number — Mala does
    /// everything right except going through the DBMS.
    pub fn backdate_insert(
        &self,
        rel: RelId,
        key: &[u8],
        value: &[u8],
        fake_time: Timestamp,
    ) -> Result<bool> {
        self.for_each_leaf(|page| {
            if page.rel_id() != rel || page.is_historical() {
                return Ok(false);
            }
            let mut t = TupleVersion {
                rel,
                key: key.to_vec(),
                time: WriteTime::Committed(fake_time),
                seq: 0,
                end_of_life: false,
                value: value.to_vec(),
            };
            let cell_len = t.encode_cell().len();
            if !page.can_fit(cell_len) {
                return Ok(false);
            }
            // Correct sort position, so physical checks pass.
            let mut pos = page.cell_count();
            for i in 0..page.cell_count() {
                let Ok(e) = TupleVersion::decode_cell(page.cell(i)) else { continue };
                if (e.key.as_slice(), e.time) > (key, t.time) {
                    pos = i;
                    break;
                }
            }
            t.seq = page.alloc_seq();
            page.insert_cell(pos, &t.encode_cell())?;
            Ok(true)
        })
    }

    /// **Figure 2(b)**: swap two leaf elements, logically hiding a tuple
    /// from B+-tree lookups while keeping the content present.
    pub fn swap_leaf_entries(&self) -> Result<bool> {
        self.for_each_leaf(|page| {
            if page.cell_count() < 2 {
                return Ok(false);
            }
            let a = page.cell(0).to_vec();
            let last = page.cell_count() - 1;
            let b = page.cell(last).to_vec();
            if a == b {
                return Ok(false);
            }
            page.replace_cell(0, &b)?;
            page.replace_cell(last, &a)?;
            Ok(true)
        })
    }

    /// **Figure 2(c)**: overwrite a separator key in an internal node so
    /// lookups route past a leaf ("index element 31 … changed to 35").
    pub fn corrupt_separator(&self) -> Result<bool> {
        for i in 0..self.page_count()? {
            let Some(mut page) = self.read_page(PageNo(i))? else { continue };
            if page.page_type() != PageType::Inner || page.cell_count() < 2 {
                continue;
            }
            let Ok(mut e) = IndexEntry::decode(page.cell(1)) else { continue };
            if e.key.is_empty() {
                continue;
            }
            let last = e.key.len() - 1;
            e.key[last] = e.key[last].wrapping_add(9);
            page.replace_cell(1, &e.encode())?;
            self.write_page(&mut page)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Captures a page image for a later [`Mala::restore_page`] — the
    /// **state-reversion attack**: "an adversary can make arbitrary changes
    /// …, as long as she undoes them before the next audit."
    pub fn snapshot_page_with(&self, key: &[u8]) -> Result<Option<(PageNo, Vec<u8>)>> {
        for i in 0..self.page_count()? {
            let Some(page) = self.read_page(PageNo(i))? else { continue };
            if page.page_type() != PageType::Leaf {
                continue;
            }
            let has_key = page
                .cells()
                .any(|c| TupleVersion::decode_cell(c).map(|t| t.key == key).unwrap_or(false));
            if has_key {
                let mut p = page;
                return Ok(Some((PageNo(i), p.finalize_for_write().to_vec())));
            }
        }
        Ok(None)
    }

    /// Restores a previously captured page image byte-for-byte.
    pub fn restore_page(&self, pgno: PageNo, image: &[u8]) -> Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .open(&self.db_path)
            .map_err(|e| Error::io("opening victim database for writing", e))?;
        f.seek(SeekFrom::Start(pgno.0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking victim database", e))?;
        f.write_all(image).map_err(|e| Error::io("restoring page", e))?;
        f.sync_data().map_err(|e| Error::io("syncing restored page", e))?;
        Ok(())
    }

    /// **Wipe the local WAL** (e.g. to unwind commits whose pages have not
    /// reached disk, in concert with a forced crash). The WORM-resident WAL
    /// tail is what defeats this.
    pub fn wipe_wal(&self, wal_path: impl AsRef<Path>) -> Result<()> {
        fs::write(wal_path.as_ref(), b"").map_err(|e| Error::io("truncating victim WAL", e))
    }

    /// [`Mala::wipe_wal`] against the bound engine's own WAL
    /// (the `wal.log` sibling of the database file).
    pub fn wipe_local_wal(&self) -> Result<()> {
        self.wipe_wal(&self.wal_path)
    }

    /// **Arbitrary single-byte tamper**: XORs one byte at `offset` in the
    /// raw database file (a nonzero mask is enforced so the byte always
    /// changes). With `fix_checksum`, the containing page's checksum is
    /// recomputed afterwards — the corruption is then *not* self-announcing
    /// through the page CRC, and the auditor must catch it (if it is
    /// observable at all) through content checks: the completeness hash,
    /// sort order, parent/child separators, or the replayed page states.
    /// Returns `false` when `offset` is past the end of the file.
    pub fn flip_byte(&self, offset: u64, mask: u8, fix_checksum: bool) -> Result<bool> {
        let len = fs::metadata(&self.db_path)
            .map_err(|e| Error::io("statting victim database", e))?
            .len();
        if offset >= len {
            return Ok(false);
        }
        let mask = if mask == 0 { 1 } else { mask };
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.db_path)
            .map_err(|e| Error::io("opening victim database for writing", e))?;
        f.seek(SeekFrom::Start(offset)).map_err(|e| Error::io("seeking victim database", e))?;
        let mut b = [0u8; 1];
        f.read_exact(&mut b).map_err(|e| Error::io("reading victim byte", e))?;
        b[0] ^= mask;
        f.seek(SeekFrom::Start(offset)).map_err(|e| Error::io("seeking victim database", e))?;
        f.write_all(&b).map_err(|e| Error::io("flipping victim byte", e))?;
        f.sync_data().map_err(|e| Error::io("syncing flipped byte", e))?;
        drop(f);
        if fix_checksum {
            // Re-finalize the page so the CRC matches the tampered content.
            // If the flip broke the page header beyond parsing, leave it —
            // the corruption is then caught as an unreadable page instead.
            let pgno = PageNo(offset / PAGE_SIZE as u64);
            if let Some(mut page) = self.read_page(pgno)? {
                self.write_page(&mut page)?;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_storage::DiskManager;
    use ccdb_storage::PageStore;

    fn victim(tag: &str) -> (PathBuf, DiskManager) {
        let p = std::env::temp_dir().join(format!(
            "ccdb-mala-{}-{}-{}.db",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let dm = DiskManager::open(&p).unwrap();
        (p, dm)
    }

    fn tuple(key: &[u8], value: &[u8], seq: u16) -> TupleVersion {
        TupleVersion {
            rel: RelId(1),
            key: key.to_vec(),
            time: WriteTime::Committed(Timestamp(100 + seq as u64)),
            seq,
            end_of_life: false,
            value: value.to_vec(),
        }
    }

    fn seed_leaf(dm: &DiskManager) -> PageNo {
        let pgno = dm.allocate().unwrap();
        let mut p = Page::new(pgno, PageType::Leaf, RelId(1));
        for (i, k) in [b"alpha", b"bravo", b"delta"].iter().enumerate() {
            let t = tuple(*k, b"honest", i as u16);
            p.append_cell(&t.encode_cell()).unwrap();
            p.alloc_seq();
        }
        dm.pwrite(&mut p).unwrap();
        pgno
    }

    #[test]
    fn alter_tuple_changes_disk_value_and_fixes_checksum() {
        let (path, dm) = victim("alter");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        assert!(mala.alter_tuple_value(b"bravo", b"tampered").unwrap());
        let page = dm.pread(pgno).unwrap();
        assert!(page.verify_checksum(), "Mala fixes the checksum");
        let t = TupleVersion::decode_cell(page.cell(1)).unwrap();
        assert_eq!(t.value, b"tampered");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn delete_tuple_removes_version() {
        let (path, dm) = victim("delete");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        assert!(mala.delete_tuple(b"alpha").unwrap());
        assert!(!mala.delete_tuple(b"missing").unwrap());
        let page = dm.pread(pgno).unwrap();
        assert_eq!(page.cell_count(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn backdate_insert_lands_sorted() {
        let (path, dm) = victim("backdate");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        assert!(mala.backdate_insert(RelId(1), b"charlie", b"forged", Timestamp(50)).unwrap());
        let page = dm.pread(pgno).unwrap();
        assert_eq!(page.cell_count(), 4);
        let keys: Vec<Vec<u8>> =
            page.cells().map(|c| TupleVersion::decode_cell(c).unwrap().key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "forged tuple is in sort position");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn swap_breaks_order_but_keeps_content() {
        let (path, dm) = victim("swap");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        assert!(mala.swap_leaf_entries().unwrap());
        let page = dm.pread(pgno).unwrap();
        let keys: Vec<Vec<u8>> =
            page.cells().map(|c| TupleVersion::decode_cell(c).unwrap().key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_ne!(keys, sorted);
        assert_eq!(keys.len(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn deployment_targets_resolve_engine_paths() {
        let root = Path::new("/srv/ccdb");
        let m = Mala::for_deployment(root, &MalaTarget::Root);
        assert_eq!(m.db_path(), root.join("engine/db.pages"));
        assert_eq!(m.wal_path(), root.join("engine/wal.log"));
        let m = Mala::for_deployment(root, &MalaTarget::Tenant("acme".into()));
        assert_eq!(m.db_path(), root.join("tenants/acme/engine/db.pages"));
        assert_eq!(m.wal_path(), root.join("tenants/acme/engine/wal.log"));
        let m = Mala::for_deployment(root, &MalaTarget::Shard(2));
        assert_eq!(m.db_path(), root.join("shards/2/engine/db.pages"));
        assert_eq!(m.wal_path(), root.join("shards/2/engine/wal.log"));
        // `new` derives the WAL sibling the same way.
        let m = Mala::new(root.join("shards/0/engine/db.pages"));
        assert_eq!(m.wal_path(), root.join("shards/0/engine/wal.log"));
    }

    #[test]
    fn apply_dispatches_the_catalogue() {
        let (path, dm) = victim("apply");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        assert!(mala
            .apply(&TamperAction::AlterTuple { key: b"bravo".to_vec(), new_value: b"x".to_vec() })
            .unwrap());
        assert!(mala.apply(&TamperAction::DeleteTuple { key: b"alpha".to_vec() }).unwrap());
        assert!(!mala.apply(&TamperAction::DeleteTuple { key: b"missing".to_vec() }).unwrap());
        assert!(mala
            .apply(&TamperAction::BackdateInsert {
                rel: RelId(1),
                key: b"forged".to_vec(),
                value: b"v".to_vec(),
                fake_time: Timestamp(10),
            })
            .unwrap());
        assert!(mala.apply(&TamperAction::SwapLeafEntries).unwrap());
        assert!(mala
            .apply(&TamperAction::FlipByte { offset: 64, mask: 0x10, fix_checksum: true })
            .unwrap());
        let _ = dm.pread(pgno); // file still page-aligned and statable
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn revert_round_trip_leaves_no_trace() {
        let (path, dm) = victim("revert-rt");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        let before = dm.pread(pgno).unwrap().finalize_for_write().to_vec();
        assert!(mala.apply(&TamperAction::RevertRoundTrip { key: b"bravo".to_vec() }).unwrap());
        let after = dm.pread(pgno).unwrap().finalize_for_write().to_vec();
        assert_eq!(before, after, "reversion must be byte-identical");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        let (path, dm) = victim("revert");
        let pgno = seed_leaf(&dm);
        let mala = Mala::new(&path);
        let (got_pgno, image) = mala.snapshot_page_with(b"alpha").unwrap().unwrap();
        assert_eq!(got_pgno, pgno);
        mala.alter_tuple_value(b"alpha", b"evil").unwrap();
        mala.restore_page(pgno, &image).unwrap();
        let page = dm.pread(pgno).unwrap();
        let t = TupleVersion::decode_cell(page.cell(0)).unwrap();
        assert_eq!(t.value, b"honest", "reversion leaves no local trace");
        std::fs::remove_file(path).unwrap();
    }
}
