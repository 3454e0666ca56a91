//! Runs every experiment of the paper's evaluation section (Figures 2–7) and
//! the extension ablations, printing each table.
//!
//! Run with `cargo run --release -p watchman-sim --bin run_all`.
//! Pass `--quick` for a shortened run suitable for CI.

use watchman_sim::{
    BufferHintExperiment, CostSavingsExperiment, ExperimentScale, FragmentationExperiment,
    ImpactOfKExperiment, InfiniteCacheExperiment, OptimalityExperiment, PolicyZooExperiment,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        ExperimentScale::quick(4_000)
    } else {
        ExperimentScale::paper()
    };
    let buffer_scale = if quick {
        ExperimentScale::quick(2_000)
    } else {
        ExperimentScale::paper()
    };

    println!(
        "WATCHMAN evaluation reproduction (scale: {} queries per trace)\n",
        scale.query_count
    );

    let fig2 = InfiniteCacheExperiment::run(scale);
    println!("{}", fig2.render());

    let fig3 = ImpactOfKExperiment::run(scale);
    print!("{}", fig3.render());

    let fig45 = CostSavingsExperiment::run(scale);
    print!("{}", fig45.render_cost_savings());
    print!("{}", fig45.render_hit_ratio());
    println!("{}", fig45.render_summary());

    let fig6 = FragmentationExperiment::run(scale);
    print!("{}", fig6.render());

    let fig7 = BufferHintExperiment::run(buffer_scale);
    println!("{}", fig7.render());

    let zoo = PolicyZooExperiment::run(scale);
    print!("{}", zoo.render());

    let optimality = OptimalityExperiment::run(scale, &[0.01, 0.05]);
    print!("{}", optimality.render());
}
