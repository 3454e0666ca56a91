//! Compare every cache policy in the library on the same workload.
//!
//! Runs the full policy zoo — LNC-RA, LNC-R, LRU, LRU-K, LFU, LCS and
//! GreedyDual-Size — over a drill-down Set Query trace at several cache
//! sizes, and also reports how close the on-line LNC-RA policy comes to the
//! static LNC* selection of the paper's §2.3 optimality analysis.
//!
//! Run with: `cargo run --release --example policy_comparison`

use watchman::prelude::*;
use watchman::sim::theory::{expected_cost_savings_ratio, lnc_star_skipping, KnapsackItem};

fn main() {
    let scale = ExperimentScale::quick(5_000);
    let workload = Workload::set_query(scale);
    let fractions = [0.005, 0.01, 0.05];

    println!(
        "Set Query trace: {} queries against a {:.0} MB database\n",
        workload.trace.len(),
        workload.database_bytes() as f64 / (1024.0 * 1024.0)
    );

    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "policy", "0.5% CSR", "1% CSR", "5% CSR"
    );
    for kind in PolicyKind::all() {
        let mut row = format!("{:<16}", kind.label());
        for &fraction in &fractions {
            let result = run_policy(&workload.trace, kind, fraction);
            row.push_str(&format!(" {:>10.3}", result.cost_savings_ratio));
        }
        println!("{row}");
    }

    // Static LNC* oracle: what a clairvoyant selection (knowing the trace's
    // reference frequencies in advance) would achieve.
    println!();
    let mut per_query: std::collections::HashMap<QueryInstance, (u64, u64, u64)> =
        std::collections::HashMap::new();
    for record in workload.trace.iter() {
        let entry = per_query.entry(record.instance).or_insert((
            0,
            record.cost_blocks,
            record.result_bytes,
        ));
        entry.0 += 1;
    }
    let items: Vec<KnapsackItem> = per_query
        .values()
        .map(|&(refs, cost, bytes)| KnapsackItem::new(refs as f64, cost as f64, bytes))
        .collect();
    for &fraction in &fractions {
        let capacity = (workload.database_bytes() as f64 * fraction) as u64;
        let selection = lnc_star_skipping(&items, capacity);
        let static_csr = expected_cost_savings_ratio(&items, &selection);
        let online = run_policy(&workload.trace, PolicyKind::LNC_RA, fraction);
        println!(
            "cache {:>4.1}%: static LNC* upper bound {:.3}, on-line LNC-RA achieved {:.3}",
            fraction * 100.0,
            static_csr,
            online.cost_savings_ratio
        );
    }
}
