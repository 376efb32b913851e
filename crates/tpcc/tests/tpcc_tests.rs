//! TPC-C end-to-end: load, run the mix, verify invariants, audit clean.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_common::SplitMix64 as StdRng;
use ccdb_common::{Duration, TxnId, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Mode};
use ccdb_tpcc::rows::{key, District, Order, Warehouse};
use ccdb_tpcc::{load, Driver, Tpcc, TpccScale};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-tpcc-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(tag: &str, mode: Mode) -> (CompliantDb, Tpcc, TempDir) {
    let d = TempDir::new(tag);
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    let db = CompliantDb::open(
        &d.0,
        clock,
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_mins(5),
            cache_pages: 512,
            auditor_seed: [9u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    let t = load(&db, TpccScale::tiny(), ccdb_btree::SplitPolicy::KeyOnly).unwrap();
    (db, t, d)
}

#[test]
fn load_populates_all_relations() {
    let (db, t, _d) = setup("load", Mode::Regular);
    let txn = db.begin().unwrap();
    let wh = Warehouse::decode(&db.read(txn, t.warehouse, &key(&[1])).unwrap().unwrap()).unwrap();
    assert!(wh.tax >= 0.0 && wh.tax <= 0.2);
    let dist =
        District::decode(&db.read(txn, t.district, &key(&[1, 2])).unwrap().unwrap()).unwrap();
    assert_eq!(dist.next_o_id, 1);
    assert!(db.read(txn, t.customer, &key(&[1, 1, 1])).unwrap().is_some());
    assert!(db.read(txn, t.customer, &key(&[1, 1, 30])).unwrap().is_some());
    assert!(db.read(txn, t.customer, &key(&[1, 1, 31])).unwrap().is_none());
    assert!(db.read(txn, t.item, &key(&[100])).unwrap().is_some());
    assert!(db.read(txn, t.stock, &key(&[1, 100])).unwrap().is_some());
    db.commit(txn).unwrap();
}

#[test]
fn new_order_advances_district_and_creates_rows() {
    let (db, t, _d) = setup("neworder", Mode::Regular);
    let mut rng = StdRng::seed_from_u64(1);
    let mut committed = 0;
    for _ in 0..20 {
        if ccdb_tpcc::txns::new_order(&db, &t, &mut rng).unwrap() {
            committed += 1;
        }
    }
    assert!(committed >= 18);
    // Some district advanced and has orders with lines.
    let txn = db.begin().unwrap();
    let mut found_order = false;
    for d in 1..=t.scale.districts {
        let dist =
            District::decode(&db.read(txn, t.district, &key(&[1, d])).unwrap().unwrap()).unwrap();
        for o in 1..dist.next_o_id {
            let order =
                Order::decode(&db.read(txn, t.orders, &key(&[1, d, o])).unwrap().unwrap()).unwrap();
            assert!((5..=15).contains(&order.ol_cnt));
            assert!(db.read(txn, t.order_line, &key(&[1, d, o, 1])).unwrap().is_some());
            assert!(db.read(txn, t.new_order, &key(&[1, d, o])).unwrap().is_some());
            found_order = true;
        }
    }
    assert!(found_order);
    db.commit(txn).unwrap();
}

#[test]
fn payment_moves_money_and_writes_history() {
    let (db, t, _d) = setup("payment", Mode::Regular);
    let mut rng = StdRng::seed_from_u64(2);
    let txn = db.begin().unwrap();
    let before =
        Warehouse::decode(&db.read(txn, t.warehouse, &key(&[1])).unwrap().unwrap()).unwrap().ytd;
    db.commit(txn).unwrap();
    for _ in 0..10 {
        ccdb_tpcc::txns::payment(&db, &t, &mut rng).unwrap();
    }
    let txn = db.begin().unwrap();
    let after =
        Warehouse::decode(&db.read(txn, t.warehouse, &key(&[1])).unwrap().unwrap()).unwrap().ytd;
    assert!(after > before, "warehouse YTD grows with payments");
    db.commit(txn).unwrap();
}

#[test]
fn delivery_consumes_new_orders() {
    let (db, t, _d) = setup("delivery", Mode::Regular);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..10 {
        ccdb_tpcc::txns::new_order(&db, &t, &mut rng).unwrap();
    }
    let count_new_orders = |db: &CompliantDb| {
        let txn = db.begin().unwrap();
        let mut n = 0;
        db.engine()
            .range_current(
                txn,
                t.new_order,
                &key(&[0, 0, 0]),
                &key(&[9, 9, u32::MAX]),
                &mut |_, _| {
                    n += 1;
                    Ok(())
                },
            )
            .unwrap();
        db.commit(txn).unwrap();
        n
    };
    let before = count_new_orders(&db);
    assert!(before > 0);
    ccdb_tpcc::txns::delivery(&db, &t, &mut rng).unwrap();
    let after = count_new_orders(&db);
    assert!(after < before, "delivery consumed new-orders: {before} -> {after}");
}

#[test]
fn mixed_workload_runs_and_mix_is_standard() {
    let (db, t, _d) = setup("mix", Mode::Regular);
    let mut driver = Driver::new(7);
    let stats = driver.run(&db, &t, 400).unwrap();
    assert_eq!(stats.total(), 400);
    let no = (stats.new_orders + stats.new_order_rollbacks) as f64 / 400.0;
    let pay = stats.payments as f64 / 400.0;
    assert!((0.40..=0.50).contains(&no), "new-order share {no}");
    assert!((0.38..=0.48).contains(&pay), "payment share {pay}");
    assert!(stats.order_status > 0 && stats.deliveries > 0 && stats.stock_levels > 0);
}

#[test]
fn tpcc_under_compliance_audits_clean() {
    let (db, t, _d) = setup("audit", Mode::HashOnRead);
    let mut driver = Driver::new(11);
    driver.run(&db, &t, 200).unwrap();
    let report = db.audit().unwrap();
    assert!(
        report.is_clean(),
        "violations: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
    // Second epoch: keep going, audit again.
    driver.run(&db, &t, 100).unwrap();
    let report = db.audit().unwrap();
    assert!(
        report.is_clean(),
        "violations: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
}

#[test]
fn tpcc_survives_crash_mid_workload() {
    let (db, t, _d) = setup("crash", Mode::LogConsistent);
    let mut driver = Driver::new(13);
    driver.run(&db, &t, 100).unwrap();
    let db = db.crash_and_recover().unwrap();
    let mut driver = Driver::new(17);
    driver.run(&db, &t, 50).unwrap();
    let report = db.audit().unwrap();
    assert!(
        report.is_clean(),
        "violations: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
}

#[test]
fn temporal_queries_see_tpcc_history() {
    // The motivating scenario: a prosecutor examines past balances.
    let (db, t, _d) = setup("temporal", Mode::Regular);
    let mut rng = StdRng::seed_from_u64(19);
    let txn = db.begin().unwrap();
    let w0 = Warehouse::decode(&db.read(txn, t.warehouse, &key(&[1])).unwrap().unwrap()).unwrap();
    db.commit(txn).unwrap();
    let before_payments = db.engine().clock().now();
    for _ in 0..20 {
        ccdb_tpcc::txns::payment(&db, &t, &mut rng).unwrap();
    }
    db.engine().run_stamper().unwrap();
    // As-of before the payments: the original YTD.
    let old = Warehouse::decode(
        &db.read_as_of(t.warehouse, &key(&[1]), before_payments).unwrap().unwrap(),
    )
    .unwrap();
    assert_eq!(old.ytd, w0.ytd);
    let now = Warehouse::decode(&db.read(TxnId::NONE, t.warehouse, &key(&[1])).unwrap().unwrap())
        .unwrap();
    assert!(now.ytd >= w0.ytd);
}
