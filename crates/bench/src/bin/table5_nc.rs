//! Tables 5 & 12 — node classification on the labelled datasets (Reddit,
//! Wikipedia, MOOC): test ROC AUC per model (Table 5) and the NC efficiency
//! block (Table 12). Protocol: self-supervised LP pre-training, then the
//! frozen-embedding decoder (§3.2.2).

use benchtemp_bench::{run_nc_seed_on, save_json, Protocol, TableBuilder};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo::PAPER_MODELS;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&PAPER_MODELS);
    let datasets = protocol.select_datasets(&[
        BenchDataset::Reddit,
        BenchDataset::Wikipedia,
        BenchDataset::Mooc,
    ]);

    let mut auc = TableBuilder::new();
    let mut runtime = TableBuilder::new();
    let mut epochs = TableBuilder::new();
    let mut rss = TableBuilder::new();
    let mut state = TableBuilder::new();
    let mut util = TableBuilder::new();
    let mut raw = Vec::new();
    let mut pretrain_raw = Vec::new();

    for &dataset in &datasets {
        for model_name in &models {
            for seed in 0..protocol.seeds as u64 {
                let graph = dataset.config(protocol.scale, seed ^ 0xda7a).generate();
                let (pretrain, run) = run_nc_seed_on(model_name, &graph, &protocol, seed);
                pretrain_raw.push(pretrain);
                eprintln!(
                    "{model_name} on {} seed {seed}: NC AUC {:.4}",
                    dataset.name(),
                    run.auc
                );
                let ds = dataset.name();
                auc.add(ds, model_name, run.auc);
                runtime.add(ds, model_name, run.efficiency.runtime_per_epoch_secs);
                epochs.add(ds, model_name, run.efficiency.epochs_to_converge as f64);
                if let Some(b) = run.efficiency.peak_rss_bytes {
                    rss.add(ds, model_name, b as f64 / 1e6);
                }
                state.add(
                    ds,
                    model_name,
                    run.efficiency.model_state_bytes as f64 / 1e6,
                );
                util.add(ds, model_name, run.efficiency.compute_utilization * 100.0);
                raw.push(run);
            }
        }
    }

    println!(
        "{}",
        auc.render("Table 5 — node classification ROC AUC", "Dataset")
    );
    println!(
        "{}",
        runtime.render_plain("Table 12 — NC runtime (s/epoch)", "Dataset")
    );
    println!("{}", epochs.render_plain("Table 12 — NC epochs", "Dataset"));
    println!(
        "{}",
        rss.render_plain("Table 12 — NC peak RSS (MB)", "Dataset")
    );
    println!(
        "{}",
        state.render_plain("Table 12 — NC model state (MB)", "Dataset")
    );
    println!(
        "{}",
        util.render("Table 12 — NC compute utilization (%)", "Dataset")
    );

    save_json(&protocol.out_dir, "table5_nc_auc.json", &auc.to_entries());
    save_json(
        &protocol.out_dir,
        "table12_nc_efficiency.json",
        &json!({
            "runtime_s_per_epoch": runtime.to_entries(),
            "epochs": epochs.to_entries(),
            "peak_rss_mb": rss.to_entries(),
            "model_state_mb": state.to_entries(),
            "utilization_pct": util.to_entries(),
        }),
    );
    save_json(&protocol.out_dir, "table5_raw_runs.json", &raw);
    save_json(
        &protocol.out_dir,
        "table5_pretrain_raw_runs.json",
        &pretrain_raw,
    );
}
