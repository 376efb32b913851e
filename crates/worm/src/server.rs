//! The WORM server implementation.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ccdb_common::sync::Mutex;
use ccdb_common::{ByteReader, ClockRef, Error, Result, Timestamp};
use ccdb_storage::fault::{FaultInjector, Injection, IoPoint};

use crate::meta::{FileMeta, MetaEvent};

/// Aggregate statistics the benchmark harness reports (space-overhead table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WormStats {
    /// Number of live (undeleted) files.
    pub files: u64,
    /// Total payload bytes across live files.
    pub bytes: u64,
    /// Total appends served.
    pub appends: u64,
    /// Total payload bytes served by reads (whole-file and ranged).
    pub bytes_read: u64,
}

struct Inner {
    meta: BTreeMap<String, FileMeta>,
    journal: fs::File,
    appends: u64,
    bytes_read: u64,
}

/// The trusted WORM compliance server. See the crate docs for the contract.
///
/// # Tenant namespaces
///
/// One physical volume can be shared by many tenants: [`WormServer::namespace`]
/// returns a *view* whose file names are transparently prefixed (e.g.
/// `tenants/acme/` + `L/epoch-0`). Views share the volume's metadata journal,
/// compliance clock, and fault injector, so cross-tenant create/append order
/// is recorded in one globally verifiable journal while each tenant's
/// compliance artifacts (`L`, stamp index, witnesses, snapshots, WAL tails)
/// live under its own prefix and are listed/audited in isolation.
pub struct WormServer {
    root: PathBuf,
    clock: ClockRef,
    inner: std::sync::Arc<Mutex<Inner>>,
    injector: std::sync::Arc<Mutex<Option<std::sync::Arc<FaultInjector>>>>,
    /// Name prefix of this view (`""` for the root view; otherwise ends in
    /// `/`). Applied to every name-taking operation.
    ns: String,
}

/// A cheap named handle to a WORM file (no open file descriptor is held; the
/// simulator re-opens per operation, which keeps crash simulation trivial).
#[derive(Clone, Debug)]
pub struct WormFile {
    name: String,
}

impl WormFile {
    /// The file's name within the server namespace.
    pub fn name(&self) -> &str {
        &self.name
    }
}

fn incremental_checksum(prev: u32, data: &[u8]) -> u32 {
    // FNV-1a continued from the previous state: equivalent to hashing the
    // whole concatenation because FNV is a plain left-fold.
    let mut h = prev;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Initial FNV state for an empty file.
const EMPTY_CHECKSUM: u32 = 0x811c_9dc5;

impl WormServer {
    /// Creates or re-opens a WORM volume rooted at `root`. The `clock` is the
    /// server's *compliance clock*: in deployments the appliance has its own
    /// secure clock; callers must hand the server a clock the DBMS cannot
    /// manipulate (tests pass the shared virtual clock, which is fine because
    /// the simulated adversary never touches it).
    pub fn open(root: impl AsRef<Path>, clock: ClockRef) -> Result<WormServer> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("data"))
            .map_err(|e| Error::io("creating WORM data directory", e))?;
        let journal_path = root.join("meta.journal");
        let mut meta = BTreeMap::new();
        if journal_path.exists() {
            let bytes = fs::read(&journal_path)
                .map_err(|e| Error::io("reading WORM metadata journal", e))?;
            let mut r = ByteReader::new(&bytes);
            while !r.is_exhausted() {
                match MetaEvent::decode(&mut r)? {
                    MetaEvent::Create { name, create_time, retention_until } => {
                        meta.insert(
                            name,
                            FileMeta {
                                create_time,
                                retention_until,
                                sealed: false,
                                len: 0,
                                checksum: EMPTY_CHECKSUM,
                            },
                        );
                    }
                    MetaEvent::Append { name, new_len, new_checksum } => {
                        if let Some(m) = meta.get_mut(&name) {
                            m.len = new_len;
                            m.checksum = new_checksum;
                        }
                    }
                    MetaEvent::Seal { name } => {
                        if let Some(m) = meta.get_mut(&name) {
                            m.sealed = true;
                        }
                    }
                    MetaEvent::ExtendRetention { name, retention_until } => {
                        if let Some(m) = meta.get_mut(&name) {
                            m.retention_until = m.retention_until.max(retention_until);
                        }
                    }
                    MetaEvent::Delete { name } => {
                        meta.remove(&name);
                    }
                }
            }
        }
        let journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| Error::io("opening WORM metadata journal", e))?;
        let server = WormServer {
            root,
            clock,
            inner: std::sync::Arc::new(Mutex::new(Inner {
                meta,
                journal,
                appends: 0,
                bytes_read: 0,
            })),
            injector: std::sync::Arc::new(Mutex::new(None)),
            ns: String::new(),
        };
        server.reconcile_backing_store()?;
        Ok(server)
    }

    /// A namespaced view of this volume: every name is prefixed with
    /// `prefix/`. Views share the underlying journal, clock, and injector;
    /// namespaces nest (`a` then `b` ⇒ `a/b/…`). The prefix obeys the same
    /// validation rules as file names.
    pub fn namespace(&self, prefix: &str) -> Result<WormServer> {
        Self::validate_name(prefix)?;
        Ok(WormServer {
            root: self.root.clone(),
            clock: self.clock.clone(),
            inner: self.inner.clone(),
            injector: self.injector.clone(),
            ns: format!("{}{prefix}/", self.ns),
        })
    }

    /// This view's name prefix (`""` for the root view).
    pub fn namespace_prefix(&self) -> &str {
        &self.ns
    }

    /// Qualifies a caller-visible name with this view's namespace prefix.
    fn qualify(&self, name: &str) -> String {
        format!("{}{name}", self.ns)
    }

    /// Startup reconciliation: appends write the data file *before* the
    /// trusted metadata journal acknowledges them, so a crash (or injected
    /// torn write) mid-append can leave the backing file **longer** than the
    /// trusted length. Those tail bytes were never acknowledged — the append
    /// RPC returned an error — so discarding them is not a WORM deletion; it
    /// is the appliance firmware rolling back an incomplete operation.
    ///
    /// A backing file **shorter** than the trusted length is the opposite
    /// situation: acknowledged bytes are gone. That is evidence of tampering
    /// (retention violation), and reconciliation deliberately leaves it in
    /// place for `read_all`/the auditor to report.
    fn reconcile_backing_store(&self) -> Result<()> {
        let inner = self.inner.lock();
        for (name, m) in inner.meta.iter() {
            let path = self.data_path(name);
            let on_disk = match fs::metadata(&path) {
                Ok(md) => md.len(),
                Err(_) => continue, // missing file: surfaced later as a read failure
            };
            if on_disk > m.len {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| Error::io("opening WORM file for reconciliation", e))?;
                f.set_len(m.len)
                    .map_err(|e| Error::io("truncating unacknowledged WORM append tail", e))?;
            }
        }
        Ok(())
    }

    /// Installs (or clears) a deterministic fault injector on the append
    /// path. Testing hook; see [`ccdb_storage::fault`].
    pub fn set_fault_injector(&self, injector: Option<std::sync::Arc<FaultInjector>>) {
        *self.injector.lock() = injector;
    }

    /// Raw length of the backing data file for `name`, bypassing the trusted
    /// metadata. The auditor compares this against `stat(name).len` to
    /// distinguish tail truncation (tampering) from unacknowledged appends.
    pub fn backing_len(&self, name: &str) -> Result<u64> {
        let name = self.qualify(name);
        let inner = self.inner.lock();
        if !inner.meta.contains_key(&name) {
            return Err(Error::NotFound(format!("WORM file {name:?}")));
        }
        drop(inner);
        fs::metadata(self.data_path(&name))
            .map(|md| md.len())
            .map_err(|e| Error::io(format!("statting WORM backing file {name:?}"), e))
    }

    fn data_path(&self, name: &str) -> PathBuf {
        // Namespace separators become directory separators on the backing
        // filesystem; names are validated to prevent traversal.
        self.root.join("data").join(name)
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty()
            || name.starts_with('/')
            || name.split('/').any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(Error::Invalid(format!("invalid WORM file name {name:?}")));
        }
        Ok(())
    }

    fn journal(inner: &mut Inner, ev: &MetaEvent) -> Result<()> {
        inner
            .journal
            .write_all(&ev.encode())
            .map_err(|e| Error::io("appending to WORM metadata journal", e))?;
        inner.journal.flush().map_err(|e| Error::io("flushing WORM metadata journal", e))
    }

    /// The server's trusted compliance-clock reading.
    pub fn compliance_now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Creates a new file with the given retention horizon. Fails if the name
    /// already exists — WORM files are never recreated in place (that is the
    /// whole point).
    pub fn create(&self, name: &str, retention_until: Timestamp) -> Result<WormFile> {
        Self::validate_name(name)?;
        let name = &self.qualify(name);
        let mut inner = self.inner.lock();
        if inner.meta.contains_key(name) {
            return Err(Error::WormViolation(format!(
                "file {name:?} already exists and may not be recreated"
            )));
        }
        let create_time = self.clock.now();
        let path = self.data_path(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| Error::io("creating WORM subdirectory", e))?;
        }
        fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating WORM file {name:?}"), e))?;
        let ev = MetaEvent::Create { name: name.to_string(), create_time, retention_until };
        Self::journal(&mut inner, &ev)?;
        inner.meta.insert(
            name.to_string(),
            FileMeta {
                create_time,
                retention_until,
                sealed: false,
                len: 0,
                checksum: EMPTY_CHECKSUM,
            },
        );
        Ok(WormFile { name: name.to_string() })
    }

    /// Appends bytes to an existing, unsealed file. This is the only write
    /// operation the server offers.
    pub fn append(&self, file: &WormFile, data: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let m = inner
            .meta
            .get(&file.name)
            .ok_or_else(|| Error::NotFound(format!("WORM file {:?}", file.name)))?
            .clone();
        if m.sealed {
            return Err(Error::WormViolation(format!(
                "file {:?} is sealed; appends are refused",
                file.name
            )));
        }
        // Fault-injection point: the data file is written *before* the
        // metadata journal acknowledges the append, so a fault here (full
        // crash or torn prefix) leaves unacknowledged bytes that
        // `reconcile_backing_store` truncates on reopen. The append-only
        // contract holds under every injected failure: trusted metadata
        // never acknowledges bytes that were not durably written.
        let injection = {
            let inj = self.injector.lock().clone();
            match inj {
                Some(inj) => inj.check(IoPoint::WormAppend, data.len()),
                None => Injection::Proceed,
            }
        };
        let torn_keep = match injection {
            Injection::Proceed => None,
            Injection::Fail(e) => return Err(e),
            Injection::Torn { keep } => Some(keep),
        };
        let path = self.data_path(&file.name);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| Error::io(format!("opening WORM file {:?} for append", file.name), e))?;
        if let Some(keep) = torn_keep {
            // Persist only a prefix and fail WITHOUT journaling: the trusted
            // metadata must never admit bytes the device did not accept.
            f.write_all(&data[..keep]).map_err(|e| Error::io("torn WORM append", e))?;
            let _ = f.flush();
            return Err(Error::injected(format!(
                "torn append to WORM file {:?} ({keep} of {} bytes kept)",
                file.name,
                data.len()
            )));
        }
        f.write_all(data)
            .map_err(|e| Error::io(format!("appending to WORM file {:?}", file.name), e))?;
        f.flush().map_err(|e| Error::io("flushing WORM append", e))?;
        let new_len = m.len + data.len() as u64;
        let new_checksum = incremental_checksum(m.checksum, data);
        let ev = MetaEvent::Append { name: file.name.clone(), new_len, new_checksum };
        Self::journal(&mut inner, &ev)?;
        let m = inner.meta.get_mut(&file.name).expect("checked above");
        m.len = new_len;
        m.checksum = new_checksum;
        inner.appends += 1;
        Ok(())
    }

    /// Reads `len` bytes at `offset`. Short reads at end-of-file are errors:
    /// the trusted metadata says how long the file is.
    pub fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.read_at_full(&self.qualify(name), offset, len)
    }

    fn read_at_full(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        let m =
            inner.meta.get(name).ok_or_else(|| Error::NotFound(format!("WORM file {name:?}")))?;
        // `checked_add`: offsets arrive from callers' own indexes and, one
        // layer up, from the wire; a wrapped sum must not pass the bound.
        if offset.checked_add(len as u64).is_none_or(|end| end > m.len) {
            return Err(Error::Invalid(format!(
                "read past end of WORM file {name:?} ({} + {} > {})",
                offset, len, m.len
            )));
        }
        let path = self.data_path(name);
        let mut f = fs::File::open(&path)
            .map_err(|e| Error::io(format!("opening WORM file {name:?}"), e))?;
        f.seek(SeekFrom::Start(offset)).map_err(|e| Error::io("seeking WORM file", e))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| Error::io(format!("reading WORM file {name:?}"), e))?;
        inner.bytes_read += len as u64;
        Ok(buf)
    }

    /// Reads the whole file, verifying the trusted running checksum — the
    /// simulator's stand-in for appliance firmware integrity.
    pub fn read_all(&self, name: &str) -> Result<Vec<u8>> {
        let name = &self.qualify(name);
        let (len, expect) = {
            let inner = self.inner.lock();
            let m = inner
                .meta
                .get(name)
                .ok_or_else(|| Error::NotFound(format!("WORM file {name:?}")))?;
            (m.len, m.checksum)
        };
        let data = self.read_at_full(name, 0, len as usize)?;
        let got = incremental_checksum(EMPTY_CHECKSUM, &data);
        if got != expect {
            return Err(Error::corruption(format!(
                "WORM backing store for {name:?} does not match trusted checksum; \
                 the simulation's trust assumption was violated"
            )));
        }
        Ok(data)
    }

    /// Permanently closes a file to appends.
    pub fn seal(&self, name: &str) -> Result<()> {
        let name = &self.qualify(name);
        let mut inner = self.inner.lock();
        if !inner.meta.contains_key(name) {
            return Err(Error::NotFound(format!("WORM file {name:?}")));
        }
        let ev = MetaEvent::Seal { name: name.to_string() };
        Self::journal(&mut inner, &ev)?;
        inner.meta.get_mut(name).expect("checked").sealed = true;
        Ok(())
    }

    /// Extends (never shortens) a file's retention horizon.
    pub fn extend_retention(&self, name: &str, until: Timestamp) -> Result<()> {
        let name = &self.qualify(name);
        let mut inner = self.inner.lock();
        let m =
            inner.meta.get(name).ok_or_else(|| Error::NotFound(format!("WORM file {name:?}")))?;
        if until <= m.retention_until {
            return Ok(()); // extending to an earlier time is a silent no-op
        }
        let ev = MetaEvent::ExtendRetention { name: name.to_string(), retention_until: until };
        Self::journal(&mut inner, &ev)?;
        inner.meta.get_mut(name).expect("checked").retention_until = until;
        Ok(())
    }

    /// Deletes a whole file — refused, for anyone, before the retention
    /// period has elapsed on the compliance clock. "The unit of deletion on
    /// WORM is an entire file" (Section VIII).
    pub fn delete(&self, name: &str) -> Result<()> {
        let name = &self.qualify(name);
        let mut inner = self.inner.lock();
        let m =
            inner.meta.get(name).ok_or_else(|| Error::NotFound(format!("WORM file {name:?}")))?;
        let now = self.clock.now();
        if now < m.retention_until {
            return Err(Error::WormViolation(format!(
                "file {name:?} is under retention until {:?} (now {:?}); deletion refused",
                m.retention_until, now
            )));
        }
        let ev = MetaEvent::Delete { name: name.to_string() };
        Self::journal(&mut inner, &ev)?;
        inner.meta.remove(name);
        let path = self.data_path(name);
        fs::remove_file(&path)
            .map_err(|e| Error::io(format!("deleting expired WORM file {name:?}"), e))?;
        Ok(())
    }

    /// Trusted metadata for a file.
    pub fn stat(&self, name: &str) -> Result<FileMeta> {
        let name = &self.qualify(name);
        let inner = self.inner.lock();
        inner.meta.get(name).cloned().ok_or_else(|| Error::NotFound(format!("WORM file {name:?}")))
    }

    /// Whether the file exists (has been created and not expired+deleted).
    pub fn exists(&self, name: &str) -> bool {
        self.inner.lock().meta.contains_key(&self.qualify(name))
    }

    /// A handle to an existing file.
    pub fn handle(&self, name: &str) -> Result<WormFile> {
        let full = self.qualify(name);
        if self.inner.lock().meta.contains_key(&full) {
            Ok(WormFile { name: full })
        } else {
            Err(Error::NotFound(format!("WORM file {full:?}")))
        }
    }

    /// Lists live files whose names start with `prefix` (within this view's
    /// namespace), in name order, with their trusted metadata. Returned
    /// names are namespace-relative, so a tenant view never observes another
    /// tenant's artifacts.
    pub fn list(&self, prefix: &str) -> Vec<(String, FileMeta)> {
        let full = self.qualify(prefix);
        self.inner
            .lock()
            .meta
            .iter()
            .filter(|(n, _)| n.starts_with(&full))
            .map(|(n, m)| (n[self.ns.len()..].to_string(), m.clone()))
            .collect()
    }

    /// Aggregate statistics for reporting, scoped to this view's namespace
    /// (the root view reports the whole volume). `appends` and `bytes_read`
    /// are volume-global: they count served operations, not per-namespace
    /// traffic.
    pub fn stats(&self) -> WormStats {
        let inner = self.inner.lock();
        let scoped = inner.meta.iter().filter(|(n, _)| n.starts_with(&self.ns));
        WormStats {
            files: scoped.clone().count() as u64,
            bytes: scoped.map(|(_, m)| m.len).sum(),
            appends: inner.appends,
            bytes_read: inner.bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_common::{Duration, VirtualClock};
    use std::sync::Arc;

    fn server() -> (WormServer, Arc<VirtualClock>, tempdir::TempDir) {
        let clock = Arc::new(VirtualClock::new());
        let dir = tempdir::TempDir::new();
        let s = WormServer::open(dir.path(), clock.clone()).unwrap();
        (s, clock, dir)
    }

    // A minimal temp-dir helper so the crate has no dev-dependency on
    // an external tempfile crate.
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new() -> TempDir {
                let n = NEXT.fetch_add(1, Ordering::SeqCst);
                let p = std::env::temp_dir().join(format!(
                    "ccdb-worm-test-{}-{}",
                    std::process::id(),
                    n
                ));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn create_append_read_roundtrip() {
        let (s, _, _d) = server();
        let f = s.create("L/epoch-0", Timestamp::MAX).unwrap();
        s.append(&f, b"hello ").unwrap();
        s.append(&f, b"worm").unwrap();
        assert_eq!(s.read_all("L/epoch-0").unwrap(), b"hello worm");
        assert_eq!(s.read_at("L/epoch-0", 6, 4).unwrap(), b"worm");
        assert_eq!(s.stat("L/epoch-0").unwrap().len, 10);
    }

    #[test]
    fn ranged_read_bound_check_cannot_wrap() {
        let (s, _, _d) = server();
        let f = s.create("L/epoch-0", Timestamp::MAX).unwrap();
        s.append(&f, b"0123456789").unwrap();
        // offset + len wraps to 6 in u64 arithmetic; it must still be refused.
        assert!(matches!(s.read_at("L/epoch-0", u64::MAX - 1, 8), Err(Error::Invalid(_))));
        assert!(matches!(s.read_at("L/epoch-0", 4, 7), Err(Error::Invalid(_))));
        assert_eq!(s.read_at("L/epoch-0", 10, 0).unwrap(), b"");
        assert_eq!(s.stats().bytes_read, 0, "refused reads serve no bytes");
        assert_eq!(s.read_at("L/epoch-0", 4, 6).unwrap(), b"456789");
        assert_eq!(s.stats().bytes_read, 6);
    }

    #[test]
    fn recreation_refused() {
        let (s, _, _d) = server();
        s.create("x", Timestamp::MAX).unwrap();
        let err = s.create("x", Timestamp::MAX).unwrap_err();
        assert!(matches!(err, Error::WormViolation(_)));
    }

    #[test]
    fn sealed_file_refuses_appends() {
        let (s, _, _d) = server();
        let f = s.create("log", Timestamp::MAX).unwrap();
        s.append(&f, b"a").unwrap();
        s.seal("log").unwrap();
        assert!(matches!(s.append(&f, b"b"), Err(Error::WormViolation(_))));
        // reads still work
        assert_eq!(s.read_all("log").unwrap(), b"a");
    }

    #[test]
    fn delete_before_retention_refused() {
        let (s, clock, _d) = server();
        s.create("keep", Timestamp(1_000_000)).unwrap();
        assert!(matches!(s.delete("keep"), Err(Error::WormViolation(_))));
        clock.advance(Duration::from_secs(1));
        s.delete("keep").unwrap();
        assert!(!s.exists("keep"));
    }

    #[test]
    fn retention_extends_never_shrinks() {
        let (s, clock, _d) = server();
        s.create("f", Timestamp(100)).unwrap();
        s.extend_retention("f", Timestamp(50)).unwrap(); // no-op
        assert_eq!(s.stat("f").unwrap().retention_until, Timestamp(100));
        s.extend_retention("f", Timestamp(500)).unwrap();
        assert_eq!(s.stat("f").unwrap().retention_until, Timestamp(500));
        clock.advance_to(Timestamp(200));
        assert!(s.delete("f").is_err());
        clock.advance_to(Timestamp(500));
        s.delete("f").unwrap();
    }

    #[test]
    fn create_times_come_from_compliance_clock() {
        let (s, clock, _d) = server();
        clock.advance_to(Timestamp(777));
        s.create("witness/0", Timestamp::MAX).unwrap();
        assert_eq!(s.stat("witness/0").unwrap().create_time, Timestamp(777));
    }

    #[test]
    fn list_by_prefix_ordered() {
        let (s, _, _d) = server();
        s.create("w/2", Timestamp::MAX).unwrap();
        s.create("w/1", Timestamp::MAX).unwrap();
        s.create("other", Timestamp::MAX).unwrap();
        let names: Vec<String> = s.list("w/").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["w/1".to_string(), "w/2".to_string()]);
    }

    #[test]
    fn reopen_recovers_metadata() {
        let clock = Arc::new(VirtualClock::new());
        let dir = tempdir::TempDir::new();
        {
            let s = WormServer::open(dir.path(), clock.clone()).unwrap();
            let f = s.create("persist", Timestamp(123)).unwrap();
            s.append(&f, b"payload").unwrap();
            s.seal("persist").unwrap();
        }
        let s2 = WormServer::open(dir.path(), clock.clone()).unwrap();
        let m = s2.stat("persist").unwrap();
        assert_eq!(m.len, 7);
        assert!(m.sealed);
        assert_eq!(m.retention_until, Timestamp(123));
        assert_eq!(s2.read_all("persist").unwrap(), b"payload");
    }

    #[test]
    fn backing_store_tamper_detected_on_read() {
        // Violating the simulation's trust assumption must be loud.
        let (s, _, d) = server();
        let f = s.create("t", Timestamp::MAX).unwrap();
        s.append(&f, b"original").unwrap();
        std::fs::write(d.path().join("data/t"), b"tampered").unwrap();
        assert!(matches!(s.read_all("t"), Err(Error::Corruption(_))));
    }

    #[test]
    fn name_validation() {
        let (s, _, _d) = server();
        for bad in ["", "/abs", "a/../b", "a//b", "."] {
            assert!(s.create(bad, Timestamp::MAX).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn empty_file_is_valid_witness() {
        // Witness files are empty; create time is their whole content.
        let (s, clock, _d) = server();
        clock.advance_to(Timestamp(5));
        s.create("witness/interval-1", Timestamp::MAX).unwrap();
        assert_eq!(s.read_all("witness/interval-1").unwrap(), Vec::<u8>::new());
        assert_eq!(s.stat("witness/interval-1").unwrap().create_time, Timestamp(5));
    }

    #[test]
    fn injected_torn_append_is_never_acknowledged() {
        use ccdb_storage::{FaultInjector, FaultKind, FaultPlan};
        let clock = Arc::new(VirtualClock::new());
        let dir = tempdir::TempDir::new();
        {
            let s = WormServer::open(dir.path(), clock.clone()).unwrap();
            let f = s.create("L/e0", Timestamp::MAX).unwrap();
            // Tear the second append: only a prefix of the payload reaches the
            // backing file, and the trusted metadata never sees it.
            let inj = Arc::new(FaultInjector::armed(FaultPlan::single(
                IoPoint::WormAppend,
                2,
                FaultKind::Torn { keep_permille: 500 },
            )));
            s.set_fault_injector(Some(inj.clone()));
            s.append(&f, b"good-record|").unwrap();
            let err = s.append(&f, b"second-record").unwrap_err();
            assert!(err.is_injected(), "unexpected error {err:?}");
            // Trusted metadata still describes only the acknowledged bytes.
            assert_eq!(s.stat("L/e0").unwrap().len, 12);
            // …but the backing file is longer (the torn prefix).
            assert!(s.backing_len("L/e0").unwrap() > 12);
            // Post-crash: all further appends are suppressed (append-only
            // contract holds — the device never half-works).
            assert!(s.append(&f, b"more").unwrap_err().is_injected());
        }
        // Reopen = device restart. Reconciliation truncates the
        // unacknowledged tail; reads are consistent with trusted metadata.
        let s2 = WormServer::open(dir.path(), clock).unwrap();
        assert_eq!(s2.stat("L/e0").unwrap().len, 12);
        assert_eq!(s2.backing_len("L/e0").unwrap(), 12);
        assert_eq!(s2.read_all("L/e0").unwrap(), b"good-record|");
        // The file is still appendable — it was never sealed or corrupted.
        let f = s2.handle("L/e0").unwrap();
        s2.append(&f, b"after").unwrap();
        assert_eq!(s2.read_all("L/e0").unwrap(), b"good-record|after");
    }

    #[test]
    fn injected_transient_append_error_is_retryable() {
        use ccdb_storage::{FaultInjector, FaultKind, FaultPlan};
        let (s, _, _d) = server();
        let f = s.create("x", Timestamp::MAX).unwrap();
        let inj = Arc::new(FaultInjector::armed(FaultPlan::single(
            IoPoint::WormAppend,
            1,
            FaultKind::Transient,
        )));
        s.set_fault_injector(Some(inj));
        let err = s.append(&f, b"payload").unwrap_err();
        assert!(err.is_injected());
        // Nothing was written, nothing acknowledged.
        assert_eq!(s.stat("x").unwrap().len, 0);
        assert_eq!(s.backing_len("x").unwrap(), 0);
        // The retry succeeds (transient faults fire once).
        s.append(&f, b"payload").unwrap();
        assert_eq!(s.read_all("x").unwrap(), b"payload");
    }

    #[test]
    fn backing_len_exposes_tail_truncation() {
        // The accessor the auditor uses to call out WORM tampering.
        let (s, _, d) = server();
        let f = s.create("t", Timestamp::MAX).unwrap();
        s.append(&f, b"0123456789").unwrap();
        assert_eq!(s.backing_len("t").unwrap(), 10);
        let path = d.path().join("data/t");
        let fh = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        fh.set_len(4).unwrap();
        assert_eq!(s.backing_len("t").unwrap(), 4);
        assert_eq!(s.stat("t").unwrap().len, 10); // trusted length unchanged
    }

    #[test]
    fn reconcile_leaves_short_backing_files_alone() {
        // A SHORT backing file is tampering evidence; reopen must not mask it.
        let clock = Arc::new(VirtualClock::new());
        let dir = tempdir::TempDir::new();
        {
            let s = WormServer::open(dir.path(), clock.clone()).unwrap();
            let f = s.create("t", Timestamp::MAX).unwrap();
            s.append(&f, b"0123456789").unwrap();
        }
        let path = dir.path().join("data/t");
        let fh = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        fh.set_len(4).unwrap();
        drop(fh);
        let s2 = WormServer::open(dir.path(), clock).unwrap();
        assert_eq!(s2.backing_len("t").unwrap(), 4);
        assert_eq!(s2.stat("t").unwrap().len, 10);
        assert!(s2.read_all("t").is_err());
    }

    #[test]
    fn namespaces_isolate_names_and_share_the_journal() {
        let (s, _, _d) = server();
        let a = s.namespace("tenants/acme").unwrap();
        let b = s.namespace("tenants/bob").unwrap();
        // The same tenant-relative name is two distinct files on the volume.
        let fa = a.create("L/epoch-0", Timestamp::MAX).unwrap();
        let fb = b.create("L/epoch-0", Timestamp::MAX).unwrap();
        a.append(&fa, b"acme-records").unwrap();
        b.append(&fb, b"bob").unwrap();
        assert_eq!(a.read_all("L/epoch-0").unwrap(), b"acme-records");
        assert_eq!(b.read_all("L/epoch-0").unwrap(), b"bob");
        assert_eq!(a.stat("L/epoch-0").unwrap().len, 12);
        // Tenant views never see each other's artifacts…
        assert_eq!(a.list("").len(), 1);
        assert_eq!(b.list("L/").into_iter().map(|(n, _)| n).collect::<Vec<_>>(), ["L/epoch-0"]);
        assert!(!a.exists("tenants/bob/L/epoch-0"));
        // …but the root view sees both under their full names (one journal,
        // globally verifiable order).
        assert!(s.exists("tenants/acme/L/epoch-0"));
        assert!(s.exists("tenants/bob/L/epoch-0"));
        assert_eq!(s.list("tenants/").len(), 2);
        // Per-namespace stats; root stats cover the volume.
        assert_eq!(a.stats().files, 1);
        assert_eq!(a.stats().bytes, 12);
        assert_eq!(s.stats().files, 2);
        assert_eq!(s.stats().bytes, 15);
        // WORM semantics hold across views: acme's file is sealed for
        // everyone, under either name.
        a.seal("L/epoch-0").unwrap();
        assert!(matches!(a.append(&fa, b"x"), Err(Error::WormViolation(_))));
        assert!(s.stat("tenants/acme/L/epoch-0").unwrap().sealed);
    }

    #[test]
    fn namespace_survives_reopen() {
        let clock = Arc::new(VirtualClock::new());
        let dir = tempdir::TempDir::new();
        {
            let s = WormServer::open(dir.path(), clock.clone()).unwrap();
            let t = s.namespace("tenants/acme").unwrap();
            t.create("witness/e0-i0", Timestamp::MAX).unwrap();
            let f2 = t.create("L/epoch-0", Timestamp(9)).unwrap();
            t.append(&f2, b"payload").unwrap();
        }
        let s2 = WormServer::open(dir.path(), clock).unwrap();
        let t2 = s2.namespace("tenants/acme").unwrap();
        assert!(t2.exists("witness/e0-i0"));
        assert_eq!(t2.read_all("L/epoch-0").unwrap(), b"payload");
        assert_eq!(t2.stat("L/epoch-0").unwrap().retention_until, Timestamp(9));
    }

    #[test]
    fn namespace_prefix_is_validated() {
        let (s, _, _d) = server();
        for bad in ["", "/abs", "a/../b", "a//b"] {
            assert!(s.namespace(bad).is_err(), "{bad:?} accepted as namespace");
        }
        // Nesting composes prefixes.
        let t = s.namespace("tenants").unwrap().namespace("acme").unwrap();
        assert_eq!(t.namespace_prefix(), "tenants/acme/");
    }

    #[test]
    fn stats_track_files_and_bytes() {
        let (s, _, _d) = server();
        let a = s.create("a", Timestamp::MAX).unwrap();
        s.append(&a, &[0u8; 10]).unwrap();
        s.append(&a, &[0u8; 5]).unwrap();
        s.create("b", Timestamp::MAX).unwrap();
        let st = s.stats();
        assert_eq!(st.files, 2);
        assert_eq!(st.bytes, 15);
        assert_eq!(st.appends, 2);
    }
}
