//! CI negative self-test for the audit subsystem: proves the gate can
//! actually fail before ci.sh trusts its green.
//!
//! Four checks, all in-process:
//!   1. the workspace audit passes (same invocation ci.sh gates on),
//!   2. the seeded-violation fixture tree FAILS — every lint rule fires at
//!      least once, so a silently-broken rule can't rot into a no-op,
//!   3. the v2 fixture tree FAILS through the interprocedural rules alone —
//!      each cross-file bug is convicted with a call trace while every v1
//!      token rule stays silent on the same tree,
//!   4. the runtime sanitizer catches a deliberately overlapping chunk-slot
//!      claim (the race seed) and names the contested slots.
//!
//! Prints `AUDIT_CHECK_OK` and exits 0 only if all four hold.

use std::panic::catch_unwind;
use std::path::PathBuf;

use benchtemp_audit::rules;
use benchtemp_audit::run_audit;
use benchtemp_tensor::sanitize;

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);

    // 1. The workspace itself is clean.
    let ws = run_audit(&root).expect("walk workspace");
    let unwaivered: Vec<_> = ws.unwaivered().collect();
    assert!(
        unwaivered.is_empty() && ws.ok(),
        "workspace audit must pass, found: {unwaivered:?}"
    );
    println!(
        "audit_check: workspace clean ({} files, {} waived hit(s))",
        ws.files_scanned,
        ws.violations.len()
    );

    // 2. The seeded fixture fails, with every rule represented — the lint
    // driver's own negative control.
    let fixture = root.join("crates/audit/tests/fixtures");
    let fx = run_audit(&fixture).expect("walk fixture");
    assert!(!fx.ok(), "seeded fixture must fail the audit");
    for rule in [
        rules::RULE_HASH_ITER,
        rules::RULE_WALLCLOCK,
        rules::RULE_THREAD_SPAWN,
        rules::RULE_SAFETY_COMMENT,
        rules::RULE_ENV_REGISTRY,
        rules::RULE_WAIVER_SYNTAX,
    ] {
        assert!(
            fx.unwaivered().any(|v| v.rule == rule),
            "seeded fixture must trip `{rule}` — the rule has gone silent"
        );
    }
    println!(
        "audit_check: seeded fixture fails as designed ({} unwaivered hit(s), all 6 token rules fire)",
        fx.unwaivered().count()
    );

    // 3. The v2 fixture: cross-file bugs the per-file token rules cannot
    // see. The interprocedural rules must convict each one with a trace,
    // and the v1 counterparts must stay silent — proving the new rules add
    // real coverage rather than re-reporting what v1 already catches.
    let fixture2 = root.join("crates/audit/tests/fixtures/v2");
    let fx2 = run_audit(&fixture2).expect("walk v2 fixture");
    assert!(!fx2.ok(), "seeded v2 fixture must fail the audit");
    for rule in [
        rules::RULE_DETERMINISM_TAINT,
        rules::RULE_ALLOC_REACH,
        rules::RULE_CLAIMED_WRITE,
    ] {
        assert!(
            fx2.unwaivered().any(|v| v.rule == rule),
            "v2 fixture must trip `{rule}` — the rule has gone silent"
        );
    }
    for rule in [
        rules::RULE_WALLCLOCK,
        rules::RULE_HASH_ITER,
        rules::RULE_ENV_REGISTRY,
    ] {
        assert!(
            !fx2.violations.iter().any(|v| v.rule == rule),
            "v1 rule `{rule}` fired on the v2 fixture — the seeded bugs are \
             no longer v2-only catches"
        );
    }
    assert!(
        fx2.unwaivered()
            .all(|v| v.rule == rules::RULE_CLAIMED_WRITE || !v.trace.is_empty()),
        "every reachability conviction must carry its call path"
    );
    println!(
        "audit_check: v2 fixture fails only interprocedurally ({} unwaivered hit(s), \
         {} fns / {} edges, resolved ratio {:.2})",
        fx2.unwaivered().count(),
        fx2.graph.functions,
        fx2.graph.edges,
        fx2.graph.resolved_ratio()
    );

    // 4. The sanitizer rejects an overlapping claim set. Chunks 0 and 1
    // both claim slots 5..10 — exactly the broken chunk arithmetic the
    // checker exists to catch.
    sanitize::set_forced(Some(true));
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the panic is expected; keep CI logs clean
    let r = catch_unwind(|| {
        sanitize::check_slot_claims("audit_check_seeded_race", &[(0, 0..10), (1, 5..15)]);
    });
    std::panic::set_hook(default_hook);
    sanitize::set_forced(None);
    let err = r.expect_err("overlapping claims must panic under BENCHTEMP_SANITIZE");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("overlap") && msg.contains("audit_check_seeded_race"),
        "sanitizer diagnostic must name the defect and the site: {msg:?}"
    );
    println!("audit_check: sanitizer caught the seeded overlapping-slot claim");

    println!("AUDIT_CHECK_OK");
}
