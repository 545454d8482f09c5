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
