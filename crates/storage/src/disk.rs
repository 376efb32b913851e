//! The disk manager and the `PageStore` seam.
//!
//! [`PageStore`] is the interception point the whole compliance architecture
//! hangs off: the compliance logger is a decorator over any `PageStore`,
//! exactly like the paper's plugin over Berkeley DB's pread/pwrite.
//!
//! [`DiskManager`] is the concrete store: one ordinary file of 4 KiB pages
//! (on *read/write media* — this file is what the adversary can edit with a
//! file editor). Page numbers are allocated by extending the file and are
//! never reused.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccdb_common::sync::Mutex;
use ccdb_common::{Error, PageNo, Result};

use crate::fault::{FaultInjector, Injection, IoPoint};
use crate::page::{Page, PAGE_SIZE};

/// The pread/pwrite seam. Implementations must be usable from behind an
/// `Arc` (interior mutability), mirroring a kernel I/O interface.
pub trait PageStore: Send + Sync {
    /// Reads the page image for `pgno`.
    fn pread(&self, pgno: PageNo) -> Result<Page>;

    /// Writes the page image. The page's checksum is finalized by the store.
    fn pwrite(&self, page: &mut Page) -> Result<()>;

    /// Allocates a fresh, never-before-used page number.
    fn allocate(&self) -> Result<PageNo>;

    /// Number of pages ever allocated.
    fn page_count(&self) -> u64;

    /// Flushes OS buffers (fsync).
    fn sync(&self) -> Result<()>;
}

/// A file-backed page store on conventional read/write media.
pub struct DiskManager {
    path: PathBuf,
    file: Mutex<fs::File>,
    next_pgno: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Artificial per-I/O latency in microseconds (benchmark knob emulating
    /// remote storage — the paper's database lived on an NFS-mounted filer).
    io_latency_us: AtomicU64,
    /// Optional deterministic fault layer (crash/torn-write torture tests).
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl DiskManager {
    /// Opens (or creates) the database file at `path`. The allocation
    /// high-water mark is derived from the file length, so it survives
    /// crashes without separate metadata.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskManager> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)
                    .map_err(|e| Error::io("creating database directory", e))?;
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(format!("opening database file {}", path.display()), e))?;
        let len = file.metadata().map_err(|e| Error::io("statting database file", e))?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(Error::corruption(format!(
                "database file length {len} is not a multiple of the page size"
            )));
        }
        Ok(DiskManager {
            path,
            file: Mutex::new(file),
            next_pgno: AtomicU64::new(len / PAGE_SIZE as u64),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            io_latency_us: AtomicU64::new(0),
            injector: Mutex::new(None),
        })
    }

    /// Installs (or removes) the deterministic fault injector. All physical
    /// preads/pwrites/fsyncs consult it first.
    pub fn set_fault_injector(&self, inj: Option<Arc<FaultInjector>>) {
        *self.injector.lock() = inj;
    }

    fn injection(&self, point: IoPoint, payload_len: usize) -> Injection {
        match self.injector.lock().as_ref() {
            Some(inj) => inj.check(point, payload_len),
            None => Injection::Proceed,
        }
    }

    /// `true` if an installed injector has fired a crash fault.
    pub fn fault_crashed(&self) -> bool {
        self.injector.lock().as_ref().is_some_and(|i| i.crashed())
    }

    /// The backing file path (the adversary crate edits this directly).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sets the artificial per-I/O latency (0 disables).
    pub fn set_io_latency_us(&self, us: u64) {
        self.io_latency_us.store(us, Ordering::Relaxed);
    }

    fn simulate_latency(&self) {
        let us = self.io_latency_us.load(Ordering::Relaxed);
        if us > 0 {
            // Spin rather than sleep: OS sleep granularity (~1 ms) would
            // inflate the emulated latency ~10x. For a single-stream
            // benchmark a spin models blocking I/O time exactly.
            let deadline = std::time::Instant::now() + std::time::Duration::from_micros(us);
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    /// Number of physical preads served.
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of physical pwrites served.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reads a raw page image without constructing a `Page` (used by the
    /// auditor, which wants to see exactly what is on disk even if it is
    /// garbage). Pays the emulated I/O latency like `pread` — the auditor's
    /// final-state scan hits the same (emulated-remote) medium the engine
    /// does.
    pub fn read_raw(&self, pgno: PageNo) -> Result<Vec<u8>> {
        self.simulate_latency();
        self.read_raw_inner(pgno)
    }

    /// The physical read, with no latency emulation. The latency is charged
    /// *outside* the file lock (in `read_raw`/`pread`), so concurrent reads
    /// under the sleep model overlap their waits and only serialize on the
    /// microseconds of actual file I/O.
    fn read_raw_inner(&self, pgno: PageNo) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(pgno.0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking database file", e))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read_exact(&mut buf).map_err(|e| Error::io(format!("reading raw page {pgno}"), e))?;
        Ok(buf)
    }
}

impl PageStore for DiskManager {
    fn pread(&self, pgno: PageNo) -> Result<Page> {
        if pgno.0 >= self.next_pgno.load(Ordering::SeqCst) {
            return Err(Error::NotFound(format!("page {pgno} beyond end of database")));
        }
        match self.injection(IoPoint::PageRead, 0) {
            Injection::Proceed => {}
            Injection::Fail(e) => return Err(e),
            Injection::Torn { .. } => return Err(Error::injected("torn fault at read site")),
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.simulate_latency();
        let buf = self.read_raw_inner(pgno)?;
        let page = Page::from_bytes(&buf)?;
        if page.pgno() != pgno {
            return Err(Error::corruption(format!(
                "page at slot {pgno} claims to be {}",
                page.pgno()
            )));
        }
        Ok(page)
    }

    fn pwrite(&self, page: &mut Page) -> Result<()> {
        let pgno = page.pgno();
        if pgno.0 >= self.next_pgno.load(Ordering::SeqCst) {
            return Err(Error::Invalid(format!("pwrite of unallocated page {pgno}")));
        }
        let torn_keep = match self.injection(IoPoint::PageWrite, PAGE_SIZE) {
            Injection::Proceed => None,
            Injection::Fail(e) => return Err(e),
            Injection::Torn { keep } => Some(keep),
        };
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.simulate_latency();
        let img = page.finalize_for_write().to_vec();
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(pgno.0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking database file", e))?;
        if let Some(keep) = torn_keep {
            // Torn write: only a prefix of the page image reaches the medium
            // before the simulated power loss.
            f.write_all(&img[..keep])
                .map_err(|e| Error::io(format!("torn write of page {pgno}"), e))?;
            return Err(Error::injected(format!("torn write of page {pgno} ({keep} bytes kept)")));
        }
        f.write_all(&img).map_err(|e| Error::io(format!("writing page {pgno}"), e))?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageNo> {
        if self.fault_crashed() {
            return Err(Error::injected("post-crash allocate suppressed"));
        }
        let pgno = PageNo(self.next_pgno.fetch_add(1, Ordering::SeqCst));
        // Extend the file with a zeroed (Free) placeholder so pread of an
        // allocated-but-unwritten page fails loudly on the magic check rather
        // than reading a short file.
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(pgno.0 * PAGE_SIZE as u64))
            .map_err(|e| Error::io("seeking database file", e))?;
        f.write_all(&[0u8; PAGE_SIZE]).map_err(|e| Error::io("extending database file", e))?;
        Ok(pgno)
    }

    fn page_count(&self) -> u64 {
        self.next_pgno.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        if let Some(inj) = self.injector.lock().clone() {
            inj.check_fatal(IoPoint::PageSync)?;
        }
        self.file.lock().sync_data().map_err(|e| Error::io("fsync of database file", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use ccdb_common::RelId;

    struct TempFile(PathBuf);
    impl TempFile {
        fn new(tag: &str) -> TempFile {
            let p = std::env::temp_dir().join(format!(
                "ccdb-disk-{}-{}-{}.db",
                std::process::id(),
                tag,
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            TempFile(p)
        }
    }
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let tf = TempFile::new("rt");
        let dm = DiskManager::open(&tf.0).unwrap();
        let pgno = dm.allocate().unwrap();
        assert_eq!(pgno, PageNo(0));
        let mut p = Page::new(pgno, PageType::Leaf, RelId(1));
        p.append_cell(b"cell").unwrap();
        dm.pwrite(&mut p).unwrap();
        let q = dm.pread(pgno).unwrap();
        assert_eq!(q.cell(0), b"cell");
        assert!(q.verify_checksum());
    }

    #[test]
    fn pgnos_never_reused() {
        let tf = TempFile::new("mono");
        let dm = DiskManager::open(&tf.0).unwrap();
        let a = dm.allocate().unwrap();
        let b = dm.allocate().unwrap();
        let c = dm.allocate().unwrap();
        assert!(a < b && b < c);
        assert_eq!(dm.page_count(), 3);
    }

    #[test]
    fn reopen_preserves_allocation_watermark() {
        let tf = TempFile::new("reopen");
        {
            let dm = DiskManager::open(&tf.0).unwrap();
            for _ in 0..5 {
                dm.allocate().unwrap();
            }
        }
        let dm2 = DiskManager::open(&tf.0).unwrap();
        assert_eq!(dm2.page_count(), 5);
        assert_eq!(dm2.allocate().unwrap(), PageNo(5));
    }

    #[test]
    fn read_of_unallocated_page_fails() {
        let tf = TempFile::new("oob");
        let dm = DiskManager::open(&tf.0).unwrap();
        assert!(dm.pread(PageNo(0)).is_err());
    }

    #[test]
    fn read_of_allocated_unwritten_page_fails_on_magic() {
        let tf = TempFile::new("unwritten");
        let dm = DiskManager::open(&tf.0).unwrap();
        let pgno = dm.allocate().unwrap();
        assert!(dm.pread(pgno).is_err());
    }

    #[test]
    fn pwrite_of_unallocated_page_rejected() {
        let tf = TempFile::new("badw");
        let dm = DiskManager::open(&tf.0).unwrap();
        let mut p = Page::new(PageNo(9), PageType::Leaf, RelId(1));
        assert!(dm.pwrite(&mut p).is_err());
    }

    #[test]
    fn mismatched_pgno_detected() {
        let tf = TempFile::new("swap");
        let dm = DiskManager::open(&tf.0).unwrap();
        let a = dm.allocate().unwrap();
        let b = dm.allocate().unwrap();
        let mut pa = Page::new(a, PageType::Leaf, RelId(1));
        dm.pwrite(&mut pa).unwrap();
        // An adversary copies page a's image over page b's slot.
        let img = dm.read_raw(a).unwrap();
        {
            let mut f = fs::OpenOptions::new().write(true).open(&tf.0).unwrap();
            f.seek(SeekFrom::Start(b.0 * PAGE_SIZE as u64)).unwrap();
            f.write_all(&img).unwrap();
        }
        assert!(dm.pread(b).is_err());
    }

    #[test]
    fn injected_crash_stops_all_io() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, IoPoint};
        let tf = TempFile::new("inj-crash");
        let dm = DiskManager::open(&tf.0).unwrap();
        let inj = Arc::new(FaultInjector::armed(FaultPlan::single(
            IoPoint::PageWrite,
            2,
            FaultKind::Crash,
        )));
        dm.set_fault_injector(Some(inj.clone()));
        let a = dm.allocate().unwrap();
        let b = dm.allocate().unwrap();
        let mut pa = Page::new(a, PageType::Leaf, RelId(1));
        dm.pwrite(&mut pa).unwrap();
        let mut pb = Page::new(b, PageType::Leaf, RelId(1));
        let err = dm.pwrite(&mut pb).unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(inj.crashed());
        // The simulated process is dead: reads fail too, and nothing mutates.
        assert!(dm.pread(a).unwrap_err().is_injected());
        assert!(dm.allocate().unwrap_err().is_injected());
        assert!(dm.sync().unwrap_err().is_injected());
    }

    #[test]
    fn injected_torn_page_write_persists_prefix_only() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, IoPoint};
        let tf = TempFile::new("inj-torn");
        let dm = DiskManager::open(&tf.0).unwrap();
        let pgno = dm.allocate().unwrap();
        let mut p = Page::new(pgno, PageType::Leaf, RelId(1));
        p.append_cell(b"first image").unwrap();
        dm.pwrite(&mut p).unwrap();
        // Arm a half-page tear for the next write of the same slot.
        dm.set_fault_injector(Some(Arc::new(FaultInjector::armed(FaultPlan::single(
            IoPoint::PageWrite,
            1,
            FaultKind::Torn { keep_permille: 500 },
        )))));
        let mut p2 = Page::new(pgno, PageType::Leaf, RelId(1));
        for _ in 0..20 {
            p2.append_cell(b"second image, bigger").unwrap();
        }
        assert!(dm.pwrite(&mut p2).unwrap_err().is_injected());
        // Disarm (simulating a post-crash reopen) and inspect what survived:
        // the slot holds the new header prefix over the old image's suffix —
        // a checksum-failing frankenpage, exactly what a real torn write
        // leaves behind.
        dm.set_fault_injector(None);
        let raw = dm.read_raw(pgno).unwrap();
        let fresh = p2.finalize_for_write().to_vec();
        assert_eq!(&raw[..PAGE_SIZE / 2], &fresh[..PAGE_SIZE / 2]);
        assert_ne!(&raw[PAGE_SIZE / 2..], &fresh[PAGE_SIZE / 2..]);
        let err = dm.pread(pgno).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "torn page must read as corruption: {err}");
    }

    #[test]
    fn injected_transient_error_is_retryable() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, IoPoint};
        let tf = TempFile::new("inj-transient");
        let dm = DiskManager::open(&tf.0).unwrap();
        let pgno = dm.allocate().unwrap();
        let mut p = Page::new(pgno, PageType::Leaf, RelId(1));
        dm.pwrite(&mut p).unwrap();
        dm.set_fault_injector(Some(Arc::new(FaultInjector::armed(FaultPlan::single(
            IoPoint::PageRead,
            1,
            FaultKind::Transient,
        )))));
        assert!(dm.pread(pgno).unwrap_err().is_injected());
        // The very next read succeeds.
        assert!(dm.pread(pgno).is_ok());
    }

    #[test]
    fn io_counters_track() {
        let tf = TempFile::new("ctr");
        let dm = DiskManager::open(&tf.0).unwrap();
        let pgno = dm.allocate().unwrap();
        let mut p = Page::new(pgno, PageType::Leaf, RelId(1));
        dm.pwrite(&mut p).unwrap();
        dm.pread(pgno).unwrap();
        dm.pread(pgno).unwrap();
        assert_eq!(dm.write_count(), 1);
        assert_eq!(dm.read_count(), 2);
    }
}
