//! Table 22 — dynamic node classification with multiple labels on the
//! DGraphFin-style dataset (4 classes: normal / fraud / two background
//! tiers): Accuracy and support-weighted Precision / Recall / F1
//! (Appendix G formulas).

use benchtemp_bench::{save_json, Protocol, TableBuilder, TABLE22_MULTILABEL};

fn main() {
    let protocol = Protocol::from_args();
    let mut table = TableBuilder::new();
    for r in TABLE22_MULTILABEL.run(&protocol) {
        let m = r.nc().multiclass.expect("DGraphFin is multi-class");
        table.add("Accuracy", &r.model, m.accuracy);
        table.add("Precision", &r.model, m.precision_weighted);
        table.add("Recall", &r.model, m.recall_weighted);
        table.add("F1", &r.model, m.f1_weighted);
    }

    println!(
        "{}",
        table.render(
            "Table 22 — multi-label node classification on DGraphFin",
            "Metric"
        )
    );
    save_json(
        &protocol.out_dir,
        "table22_multilabel.json",
        &table.to_entries(),
    );
}
