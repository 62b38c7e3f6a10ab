//! Table 1 — graph classification accuracy: 8 models × 6 datasets.
//!
//! Paper reference (accuracy %):
//! ```text
//! Models      NCI1   NCI109 D&D    MUTAG  Mutagenicity PROTEINS
//! GIN         76.17  77.31  78.05  75.11  77.24        75.37
//! 3WL-GNN     79.38  78.34  78.32  78.34  81.52        77.92
//! SORTPOOL    72.25  73.21  73.31  71.47  74.65        70.49
//! DIFFPOOL    76.47  76.17  76.16  73.61  76.30        71.90
//! TOPKPOOL    77.56  77.02  73.98  76.60  78.64        72.94
//! SAGPOOL     75.76  73.67  76.21  75.27  77.09        75.27
//! STRUCTPOOL  77.61  78.39  80.10  77.13  80.94        78.84
//! AdamGNN     79.77  79.36  81.51  80.11  82.04        77.04
//! ```

use mg_bench::{mean, BenchConfig};
use mg_data::{make_graph_dataset, GraphDatasetKind};
use mg_eval::{pct, GraphModelKind, SessionKind, TextTable, TrainSession};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.banner("Table 1: graph classification accuracy");
    let datasets: Vec<_> = GraphDatasetKind::all()
        .into_iter()
        .map(|kind| (kind, make_graph_dataset(kind, &cfg.graph_gen())))
        .collect();

    let mut header = vec!["Models"];
    for (kind, _) in &datasets {
        header.push(kind.name());
    }
    let mut table = TextTable::new(&header);

    for model in GraphModelKind::all() {
        let mut row = vec![model.name().to_string()];
        for (_, ds) in &datasets {
            let accs: Vec<f64> = (0..cfg.seeds)
                .map(|seed| {
                    TrainSession::new(SessionKind::GraphClassification(model), &cfg.train(seed, 3))
                        .traced(false)
                        .run(ds)
                        .expect("graph classification run")
                        .test_metric
                })
                .collect();
            row.push(pct(mean(&accs)));
            eprint!(".");
        }
        eprintln!(" {}", model.name());
        table.row(row);
    }
    println!("{}", table.render());
}
