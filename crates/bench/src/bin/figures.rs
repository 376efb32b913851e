//! Regenerates every table and figure of the paper's Section VII.
//!
//! ```text
//! cargo run -p ccdb-bench --release --bin figures -- all
//! cargo run -p ccdb-bench --release --bin figures -- fig3a [--full]
//! ```
//!
//! Subcommands: `fig3a`, `fig3b`, `fig3c`, `fig4a`, `fig4b`, `space`,
//! `audit`, `all`. The default sizes are laptop-scale; `--full` multiplies
//! the workload (closer to the paper's 100 K transactions, minutes of wall
//! time per figure on one core).

#![forbid(unsafe_code)]

use ccdb_bench::*;
use ccdb_core::Mode;
use ccdb_tpcc::TpccScale;

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Regular => "Regular TPC-C",
        Mode::LogConsistent => "Log-Consistent",
        Mode::HashOnRead => "Log-Consistent+Hash-on-Read",
    }
}

struct Sizes {
    txns: usize,
    points: usize,
    fig4_tuples: usize,
}

fn fig3_table(title: &str, scale: TpccScale, cache_pages: usize, s: &Sizes) {
    println!("\n=== {title} ===");
    println!(
        "(scale: {} warehouses x {} districts x {} customers, {} items; cache {} pages)",
        scale.warehouses, scale.districts, scale.customers_per_district, scale.items, cache_pages
    );
    let results = fig3(scale, cache_pages, s.txns, s.points);
    print!("{:>8}", "txns");
    for r in &results {
        print!("  {:>28}", mode_name(r.mode));
    }
    println!();
    for i in 0..results[0].points.len() {
        print!("{:>8}", results[0].points[i].txns);
        for r in &results {
            print!("  {:>26.2}s", r.points[i].secs);
        }
        println!();
    }
    let base = results[0].points.last().unwrap().secs;
    for r in &results[1..] {
        let total = r.points.last().unwrap().secs;
        println!(
            "{:>28}: total {:.2}s, overhead vs regular {:+.1}%  (|L| = {:.1} MB, reads hashed = {})",
            mode_name(r.mode),
            total,
            (total / base - 1.0) * 100.0,
            r.log_bytes as f64 / 1e6,
            r.read_records
        );
    }
}

fn fig4_table(title: &str, workload: Fig4Workload, s: &Sizes) {
    println!("\n=== {title} ===");
    let (upd, dist) = match workload {
        Fig4Workload::Stock => ("4x NURand-skewed", "skewed"),
        Fig4Workload::OrderLine => ("1.18x uniform", "uniform"),
    };
    println!("({} tuples, {} updates, {} distribution)", s.fig4_tuples, upd, dist);
    println!(
        "{:>10} {:>12} {:>15} {:>12} {:>12}",
        "threshold", "live pages", "historic pages", "time splits", "key splits"
    );
    for i in 0..=10 {
        let theta = i as f64 / 10.0;
        let p = fig4_point(workload, theta, s.fig4_tuples);
        println!(
            "{:>10.1} {:>12} {:>15} {:>12} {:>12}",
            p.threshold, p.live_pages, p.historic_pages, p.time_splits, p.key_splits
        );
    }
}

fn space_table(s: &Sizes) {
    println!("\n=== Table a: space overhead ===");
    let scale = TpccScale::small(2);
    // Large cache.
    let (big, db, t, _d) = run_tpcc(Mode::HashOnRead, scale, 4096, s.txns, 1);
    let (avg_tuple, pct) = per_tuple_overhead(&db, &t);
    drop(db);
    // Small cache (the paper's 32 MB case: many more physical reads).
    let (small, _db2, _t2, _d2) = run_tpcc(Mode::HashOnRead, scale, 192, s.txns, 1);
    println!("after {} TPC-C transactions:", s.txns);
    println!("  |L| on WORM:                      {:>10.2} MB", big.log_bytes as f64 / 1e6);
    println!("  NEW_TUPLE records:                {:>10}", big.new_tuple_records);
    println!(
        "  READ records, large cache ({:>4}p): {:>9}  (~{:.2} MB of hashes)",
        4096,
        big.read_records,
        big.read_records as f64 * 44.0 / 1e6
    );
    println!(
        "  READ records, small cache ({:>4}p): {:>9}  (~{:.2} MB of hashes)",
        192,
        small.read_records,
        small.read_records as f64 * 44.0 / 1e6
    );
    println!(
        "  buffer misses large/small cache:   {:>9} / {}",
        big.buffer_misses, small.buffer_misses
    );
    println!(
        "  per-tuple metadata (PGNO+seqno):   {:>9.1} bytes vs avg tuple {:.0} bytes = {:.1}%",
        10.0, avg_tuple, pct
    );
    // TSB vs regular page counts for the STOCK shape at threshold 0.5.
    let tsb = fig4_point(Fig4Workload::Stock, 0.5, s.fig4_tuples);
    let reg = fig4_point(Fig4Workload::Stock, 0.0, s.fig4_tuples);
    println!(
        "  STOCK-shape pages: B+-tree {} live / {} historic; TSB@0.5 {} live / {} historic",
        reg.live_pages, reg.historic_pages, tsb.live_pages, tsb.historic_pages
    );
}

fn audit_table(s: &Sizes) {
    println!("\n=== Table c: audit time ===");
    for mode in [Mode::LogConsistent, Mode::HashOnRead] {
        let a = audit_timings(mode, TpccScale::small(2), 1024, s.txns);
        println!("{}:", mode_name(mode));
        println!("  execution time:        {:>10.2} s", a.run_secs);
        println!(
            "  audit total:           {:>10.2} s  ({:.1}% of execution)",
            a.audit_secs,
            a.audit_secs / a.run_secs * 100.0
        );
        println!("    snapshot fold:       {:>10.2} ms", a.stats.snapshot_us as f64 / 1e3);
        println!(
            "    log scan (+replay):  {:>10.2} ms  ({} records, {:.1} MB)",
            a.stats.log_scan_us as f64 / 1e3,
            a.stats.records_scanned,
            a.stats.log_bytes as f64 / 1e6
        );
        println!(
            "    final-state fold:    {:>10.2} ms  ({} tuples)",
            a.stats.final_state_us as f64 / 1e3,
            a.stats.tuples_final
        );
        println!("    read hashes checked: {:>10}", a.stats.reads_verified);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    let s = if full {
        Sizes { txns: 10_000, points: 10, fig4_tuples: 20_000 }
    } else {
        Sizes { txns: 2_000, points: 10, fig4_tuples: 4_000 }
    };
    let run_fig3a = || {
        fig3_table(
            "Figure 3(a): 2 warehouses, cache << DB (10-warehouse/256MB analogue)",
            TpccScale::small(2),
            192,
            &s,
        )
    };
    let run_fig3b = || {
        fig3_table(
            "Figure 3(b): 2 warehouses, cache ~ DB (10-warehouse/512MB analogue)",
            TpccScale::small(2),
            4096,
            &s,
        )
    };
    let run_fig3c = || {
        fig3_table(
            "Figure 3(c): 1 warehouse, memory-resident (1-warehouse/256MB analogue)",
            TpccScale::small(1),
            8192,
            &s,
        )
    };
    match what {
        "fig3a" => run_fig3a(),
        "fig3b" => run_fig3b(),
        "fig3c" => run_fig3c(),
        "fig4a" => fig4_table("Figure 4(a): STOCK shape", Fig4Workload::Stock, &s),
        "fig4b" => fig4_table("Figure 4(b): ORDER_LINE shape", Fig4Workload::OrderLine, &s),
        "space" => space_table(&s),
        "audit" => audit_table(&s),
        "all" => {
            run_fig3a();
            run_fig3b();
            run_fig3c();
            fig4_table("Figure 4(a): STOCK shape", Fig4Workload::Stock, &s);
            fig4_table("Figure 4(b): ORDER_LINE shape", Fig4Workload::OrderLine, &s);
            space_table(&s);
            audit_table(&s);
        }
        other => {
            eprintln!("unknown experiment {other:?}; expected fig3a|fig3b|fig3c|fig4a|fig4b|space|audit|all");
            std::process::exit(2);
        }
    }
}
