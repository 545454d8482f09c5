//! Tables 26 & 27 — NAT under *historical* and *inductive* negative
//! sampling (Appendix J): the harder samplers should pull NAT's
//! near-saturated AUC/AP on Reddit/Wikipedia/Flights-style datasets well
//! below the random-sampler numbers.

use benchtemp_bench::{
    auc_ap_tables, save_json, save_raw_runs, Protocol, TABLE26_NEGATIVE_SAMPLING,
};
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    // One preset per (dataset, sampler), named "<sampler> / <dataset>".
    let runs = TABLE26_NEGATIVE_SAMPLING.run(&protocol);
    let (auc, ap) = auc_ap_tables(&runs, |r, s| (r.preset.clone(), s.name().to_string()));

    for (table, title) in [
        (&auc, "Table 26 — NAT ROC AUC by negative-sampling strategy"),
        (&ap, "Table 27 — NAT AP by negative-sampling strategy"),
    ] {
        println!("{}", table.render_plain(title, "Sampler/Dataset"));
    }
    save_json(
        &protocol.out_dir,
        "table26_negative_sampling.json",
        &json!({
            "auc": auc.to_entries(),
            "ap": ap.to_entries(),
        }),
    );
    save_raw_runs(&protocol.out_dir, "table26_raw_runs.json", &runs);
}
