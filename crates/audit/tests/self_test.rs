//! The audit's own gate, in both directions.
//!
//! Positive: the real workspace must audit clean — zero unwaivered
//! violations, every waiver used, and the `safety-comment-required` rule
//! satisfied with *no* waivers at all. Negative: the seeded fixture tree
//! must fire every rule, proving none of the checks is vacuous.

use std::path::PathBuf;

use benchtemp_audit::rules;
use benchtemp_audit::run_audit;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_audits_clean() {
    let root = manifest_dir().join("..").join("..");
    let report = run_audit(&root).expect("walk workspace");
    assert!(
        report.files_scanned > 30,
        "suspiciously small workspace walk"
    );
    assert!(
        report.registry_found,
        "README.md env registry table missing"
    );

    let unwaivered: Vec<String> = report
        .unwaivered()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        unwaivered.is_empty(),
        "unwaivered violations:\n{}",
        unwaivered.join("\n")
    );

    // Satellite contract: every `unsafe` in the workspace carries a real
    // SAFETY comment — none is merely waived.
    assert!(
        !report
            .waivers
            .iter()
            .any(|w| w.rule == rules::RULE_SAFETY_COMMENT),
        "safety-comment-required must pass without waivers"
    );
    // Waivers that cover nothing are stale documentation; keep them at zero.
    let unused: Vec<String> = report
        .waivers
        .iter()
        .filter(|w| !w.used)
        .map(|w| format!("{}:{} [{}]", w.file, w.line, w.rule))
        .collect();
    assert!(unused.is_empty(), "unused waivers:\n{}", unused.join("\n"));

    assert!(report.protocol.verify().is_ok());
    assert!(report.ok());
}

#[test]
fn seeded_fixture_fires_every_rule() {
    let root = manifest_dir().join("tests").join("fixtures");
    let report = run_audit(&root).expect("walk fixture tree");
    assert_eq!(report.files_scanned, 1);
    assert!(!report.ok(), "the seeded fixture must fail the audit");

    let unwaivered_of = |rule: &str| report.unwaivered().filter(|v| v.rule == rule).count();
    assert_eq!(
        unwaivered_of(rules::RULE_HASH_ITER),
        2,
        "{:?}",
        dump(&report)
    );
    assert_eq!(
        unwaivered_of(rules::RULE_WALLCLOCK),
        1,
        "{:?}",
        dump(&report)
    );
    assert_eq!(
        unwaivered_of(rules::RULE_THREAD_SPAWN),
        2,
        "{:?}",
        dump(&report)
    );
    assert_eq!(
        unwaivered_of(rules::RULE_SAFETY_COMMENT),
        1,
        "{:?}",
        dump(&report)
    );
    assert_eq!(
        unwaivered_of(rules::RULE_ENV_REGISTRY),
        3,
        "{:?}",
        dump(&report)
    );
    assert_eq!(
        unwaivered_of(rules::RULE_WAIVER_SYNTAX),
        1,
        "{:?}",
        dump(&report)
    );

    // Exactly one hit is waived (a wallclock read), with its reason
    // carried into the report.
    let waived: Vec<_> = report.violations.iter().filter(|v| v.waived).collect();
    assert_eq!(waived.len(), 1, "{:?}", dump(&report));
    assert_eq!(waived[0].rule, rules::RULE_WALLCLOCK);
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap()
        .contains("self-test"));
    assert!(report.waivers.iter().any(|w| w.used));

    // The registered fixture variable is accepted; the undocumented and
    // foreign reads are flagged, and so is exactly one stale README row.
    assert!(report.registry.contains("BENCHTEMP_DOCUMENTED"));
    assert!(!report
        .violations
        .iter()
        .any(|v| v.message.contains("BENCHTEMP_DOCUMENTED")));
    let readme_hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.file == "README.md")
        .collect();
    assert_eq!(readme_hits.len(), 1, "{:?}", dump(&report));
    assert_eq!(readme_hits[0].rule, rules::RULE_ENV_REGISTRY);
    assert!(readme_hits[0].message.contains("BENCHTEMP_STALE"));
}

#[test]
fn v2_fixture_catches_cross_file_bugs_v1_misses() {
    let root = manifest_dir().join("tests").join("fixtures").join("v2");
    let report = run_audit(&root).expect("walk v2 fixture tree");
    assert_eq!(report.files_scanned, 7);
    assert!(!report.ok(), "the v2 fixture must fail the audit");

    // Every v1 token rule is silent on this tree: the wallclock read sits
    // in a v1-sanctioned file, the env read is registry-documented, and
    // the HashMap hides behind a cross-crate alias. The seeded bugs are
    // visible only interprocedurally.
    for rule in [
        rules::RULE_HASH_ITER,
        rules::RULE_WALLCLOCK,
        rules::RULE_THREAD_SPAWN,
        rules::RULE_SAFETY_COMMENT,
        rules::RULE_ENV_REGISTRY,
        rules::RULE_WAIVER_SYNTAX,
    ] {
        assert_eq!(
            report.violations.iter().filter(|v| v.rule == rule).count(),
            0,
            "v1 rule `{rule}` must miss the seeded cross-file bugs: {:?}",
            dump(&report)
        );
    }

    // Taint: the hidden wallclock, the documented env read, and the
    // aliased hash iteration — each with a full call path.
    let taint: Vec<_> = report
        .unwaivered()
        .filter(|v| v.rule == rules::RULE_DETERMINISM_TAINT)
        .collect();
    assert_eq!(taint.len(), 3, "{:?}", dump(&report));
    let wallclock = taint
        .iter()
        .find(|v| v.file.ends_with("efficiency.rs"))
        .expect("hidden wallclock read must be convicted");
    assert_eq!(
        wallclock.trace,
        [
            "benchtemp_models::trainer::train_batch",
            "benchtemp_core::efficiency::stamp_now"
        ]
    );
    assert!(taint
        .iter()
        .any(|v| v.file.ends_with("knobs.rs") && v.message.contains("BENCHTEMP_FIXTURE_KNOB")));
    assert!(taint
        .iter()
        .any(|v| v.file.ends_with("scorer.rs") && v.message.contains("HashMap")));

    // Alloc reachability: the hidden `.to_vec()` is flagged; the second
    // one carries a line waiver that applies to the new rule.
    let alloc: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == rules::RULE_ALLOC_REACH)
        .collect();
    assert_eq!(alloc.len(), 2, "{:?}", dump(&report));
    assert_eq!(alloc.iter().filter(|v| !v.waived).count(), 1);
    assert!(alloc
        .iter()
        .all(|v| v.trace.first().is_some_and(|t| t.ends_with("sample_into"))));

    // Claims protocol: the fn-level capture write is convicted.
    let claims: Vec<_> = report
        .unwaivered()
        .filter(|v| v.rule == rules::RULE_CLAIMED_WRITE)
        .collect();
    assert_eq!(claims.len(), 1, "{:?}", dump(&report));
    assert!(claims[0].file.ends_with("scatter.rs"));

    // Call-graph stats cover the whole fixture tree.
    assert_eq!(report.graph.files_parsed, 7);
    assert!(report.graph.functions >= 8, "{:?}", report.graph);
    assert!(report.graph.resolved_ratio() > 0.5, "{:?}", report.graph);
}

fn dump(report: &benchtemp_audit::AuditReport) -> Vec<String> {
    report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{}:{} [{}] waived={} {}",
                v.file, v.line, v.rule, v.waived, v.message
            )
        })
        .collect()
}
