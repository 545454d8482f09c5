//! CLI for the workspace audit: `cargo run -p benchtemp-audit`.
//!
//! Walks the workspace (default: the repo root containing this crate),
//! prints a per-rule summary plus every unwaivered violation, writes
//! `AUDIT_report.json` at the root, and exits non-zero when the gate
//! fails — the ci.sh hook point.
//!
//! Flags:
//!   --root <dir>   audit a different tree (used by the negative self-test)
//!   --json <path>  write the report somewhere else ("-" for stdout only)

use std::path::PathBuf;
use std::process::ExitCode;

use benchtemp_audit::run_audit;

fn main() -> ExitCode {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(p),
                None => {
                    eprintln!("--json needs a path (or `-` for stdout)");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}` (expected --root <dir> / --json <path>)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.canonicalize().unwrap_or(root);
    let report = match run_audit(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    println!(
        "benchtemp-audit: {} files, {} violation(s) ({} waived), {} waiver(s)",
        report.files_scanned,
        report.violations.len(),
        report.violations.iter().filter(|v| v.waived).count(),
        report.waivers.len(),
    );
    for rule in benchtemp_audit::rules::ALL_RULES {
        let hits = report.violations.iter().filter(|v| v.rule == rule).count();
        let waived = report
            .violations
            .iter()
            .filter(|v| v.rule == rule && v.waived)
            .count();
        println!("  {rule:<42} {:>3} hit(s), {waived:>3} waived", hits);
    }
    for v in report.unwaivered() {
        println!("VIOLATION {}:{} [{}] {}", v.file, v.line, v.rule, v.message);
    }
    for w in report.unused_waivers() {
        println!(
            "UNUSED WAIVER {}:{} [{}] ({})",
            w.file, w.line, w.rule, w.reason
        );
    }
    if !report.registry_found {
        println!("VIOLATION README.md:0 [env-read-registry] registry markers missing");
    }
    match report.protocol.verify() {
        Ok(()) => println!(
            "protocol model: 2x3 clean ({} states, every terminal completes), seeded bug \
             caught ({} deadlock state(s))",
            report.protocol.correct.states, report.protocol.buggy.deadlocks,
        ),
        Err(e) => println!("VIOLATION crates/tensor/src/pool.rs:0 [protocol-model] {e}"),
    }

    let text = report.to_json().to_string_pretty();
    let dest = json_out.unwrap_or_else(|| root.join("AUDIT_report.json").display().to_string());
    if dest == "-" {
        println!("{text}");
    } else if let Err(e) = std::fs::write(&dest, text + "\n") {
        eprintln!("audit: cannot write {dest}: {e}");
        return ExitCode::from(2);
    } else {
        println!("report: {dest}");
    }

    if report.ok() {
        println!("AUDIT_OK");
        ExitCode::SUCCESS
    } else {
        println!(
            "AUDIT_FAILED: {} unwaivered violation(s), {} unused waiver(s)",
            report.unwaivered().count(),
            report.unused_waivers().count()
        );
        ExitCode::FAILURE
    }
}
