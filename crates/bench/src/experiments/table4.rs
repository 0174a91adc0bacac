//! Table IV: effect of each pruning substep on (a) relative output size, (b) maximum
//! hierarchy-tree height, and (c) average leaf depth.  Stage 0 is the state right
//! after the merging phase; stages 1–3 are the states after each pruning substep.

use crate::experiments::heading;
use crate::runner::ExperimentScale;
use crate::table::{fmt_relative, TableWriter};
use slugger_core::engine::MergeEngine;
use slugger_core::metrics::SummaryMetrics;
use slugger_core::prune::{prune_step1, prune_step2, prune_step3};
use slugger_core::{Slugger, SluggerConfig};

/// Runs the experiment and returns the report.
pub fn run(scale: &ExperimentScale) -> String {
    let mut size_table = TableWriter::new(["Dataset", "stage0", "stage1", "stage2", "stage3"]);
    let mut height_table = TableWriter::new(["Dataset", "stage0", "stage1", "stage2", "stage3"]);
    let mut depth_table = TableWriter::new(["Dataset", "stage0", "stage1", "stage2", "stage3"]);

    for spec in scale.select_datasets(true) {
        let graph = spec.generate(scale.scale);
        // Run the merging phase only (pruning disabled), then apply the substeps one by
        // one, measuring after each.
        let outcome = Slugger::new(SluggerConfig {
            iterations: scale.iterations,
            pruning_rounds: 0,
            seed: scale.seed,
            ..SluggerConfig::default()
        })
        .summarize(&graph);
        let mut engine = MergeEngine::from_summary(outcome.summary);
        let mut sizes = Vec::new();
        let mut heights = Vec::new();
        let mut depths = Vec::new();
        let record = |summary: &slugger_core::HierarchicalSummary,
                      sizes: &mut Vec<f64>,
                      heights: &mut Vec<usize>,
                      depths: &mut Vec<f64>| {
            let m = SummaryMetrics::compute(summary, graph.num_edges());
            sizes.push(m.relative_size);
            heights.push(m.max_height);
            depths.push(m.avg_leaf_depth);
        };
        record(engine.summary(), &mut sizes, &mut heights, &mut depths);
        prune_step1(&mut engine);
        record(engine.summary(), &mut sizes, &mut heights, &mut depths);
        prune_step2(&mut engine);
        record(engine.summary(), &mut sizes, &mut heights, &mut depths);
        prune_step3(&mut engine, &graph);
        record(engine.summary(), &mut sizes, &mut heights, &mut depths);

        size_table.row(
            std::iter::once(spec.key.label().to_string())
                .chain(sizes.iter().map(|s| fmt_relative(*s)))
                .collect::<Vec<_>>(),
        );
        height_table.row(
            std::iter::once(spec.key.label().to_string())
                .chain(heights.iter().map(|h| h.to_string()))
                .collect::<Vec<_>>(),
        );
        depth_table.row(
            std::iter::once(spec.key.label().to_string())
                .chain(depths.iter().map(|d| format!("{d:.2}")))
                .collect::<Vec<_>>(),
        );
    }

    let mut out = heading("Table IV — Effect of the pruning substeps");
    out.push_str("Relative size of outputs (stage i = after pruning substep i; stage 0 = before pruning):\n\n");
    out.push_str(&size_table.to_text());
    out.push_str("\nMaximum hierarchy-tree height:\n\n");
    out.push_str(&height_table.to_text());
    out.push_str("\nAverage depth of leaf nodes:\n\n");
    out.push_str(&depth_table.to_text());
    out.push_str("\nEvery substep should weakly decrease all three quantities, with substep 1 giving the largest\nreduction (paper behaviour).\n");
    out
}
