//! `benchtemp-audit` — static enforcement of the workspace's determinism
//! and safety invariants, plus a model checker for the pool's batch
//! protocol. See DESIGN.md §10 for the full rule catalogue and rationale.
//!
//! The driver walks every `crates/*/src/**/*.rs` and `crates/*/tests/**/*.rs`
//! (skipping `fixtures/` directories), lexes each file with the hand-rolled
//! lexer in [`lexer`], runs the token rules in [`rules`], applies inline
//! `audit-allow` waivers, and emits a machine-readable JSON report. Any
//! unwaivered violation, unused waiver, or failure of the [`interleave`]
//! protocol check makes [`AuditReport::ok`] false, which the CLI turns
//! into a non-zero exit for CI.

pub mod interleave;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use benchtemp_util::json;
use benchtemp_util::json::Json;

use rules::{Violation, Waiver, ALL_RULES};

/// Markers delimiting the env-var registry table in README.md. Everything
/// that looks like `BENCHTEMP_[A-Z0-9_]+` between them is a documented
/// variable.
pub const REGISTRY_BEGIN: &str = "<!-- benchtemp-env-registry:begin -->";
pub const REGISTRY_END: &str = "<!-- benchtemp-env-registry:end -->";

/// Everything one audit run learned.
pub struct AuditReport {
    /// Workspace root that was walked.
    pub root: PathBuf,
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub waivers: Vec<Waiver>,
    /// Documented `BENCHTEMP_*` variables from README.md.
    pub registry: BTreeSet<String>,
    /// False when README.md or its registry markers are missing.
    pub registry_found: bool,
    pub protocol: interleave::ProtocolReport,
}

impl AuditReport {
    pub fn unwaivered(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.waived)
    }

    pub fn unused_waivers(&self) -> impl Iterator<Item = &Waiver> {
        self.waivers.iter().filter(|w| !w.used)
    }

    /// The CI gate: no unwaivered violations, no unused waivers, a readable
    /// registry, and a protocol model check that both passes and catches
    /// its seeded bug.
    pub fn ok(&self) -> bool {
        self.unwaivered().count() == 0
            && self.unused_waivers().count() == 0
            && self.registry_found
            && self.protocol.verify().is_ok()
    }

    pub fn to_json(&self) -> Json {
        let rule_summary: Vec<Json> = ALL_RULES
            .iter()
            .map(|rule| {
                let hits = self.violations.iter().filter(|v| v.rule == *rule).count();
                let waived = self
                    .violations
                    .iter()
                    .filter(|v| v.rule == *rule && v.waived)
                    .count();
                json!({
                    "rule": *rule,
                    "hits": hits,
                    "waived": waived,
                    "unwaivered": hits - waived,
                })
            })
            .collect();
        let violations: Vec<Json> = self
            .violations
            .iter()
            .map(|v| {
                json!({
                    "rule": v.rule,
                    "file": v.file.as_str(),
                    "line": v.line,
                    "message": v.message.as_str(),
                    "waived": v.waived,
                    "reason": v.waive_reason.as_deref(),
                })
            })
            .collect();
        let waivers: Vec<Json> = self
            .waivers
            .iter()
            .map(|w| {
                json!({
                    "rule": w.rule.as_str(),
                    "file": w.file.as_str(),
                    "line": w.line,
                    "scope": if w.file_scoped { "file" } else { "line" },
                    "reason": w.reason.as_str(),
                    "used": w.used,
                })
            })
            .collect();
        let registry: Vec<Json> = self.registry.iter().map(|v| Json::Str(v.clone())).collect();
        json!({
            "schema": "benchtemp-audit/v3",
            "files_scanned": self.files_scanned,
            "ok": self.ok(),
            "rules": rule_summary,
            "violations": violations,
            "waivers": waivers,
            "env_registry": { "found": self.registry_found, "vars": Json::Arr(registry) },
            "protocol_model": protocol_json(&self.protocol),
        })
    }
}

fn exploration_json(e: &interleave::Exploration) -> Json {
    json!({
        "states": e.states,
        "transitions": e.transitions,
        "terminals": e.terminals,
        "deadlocks": e.deadlocks,
        "completions": e.completions,
        "panics_observed": e.panics_observed,
        "lost_jobs": e.lost_jobs,
    })
}

fn protocol_json(p: &interleave::ProtocolReport) -> Json {
    json!({
        "instance": "2 workers x 3 jobs",
        "correct": exploration_json(&p.correct),
        "panic_middle_job": exploration_json(&p.panic),
        "notify_before_decrement": exploration_json(&p.buggy),
        "verified": p.verify().is_ok(),
    })
}

/// Every maximal `BENCHTEMP_[A-Z0-9_]+` name in `text`.
fn benchtemp_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("BENCHTEMP_") {
        let start = i + at;
        let mut stop = start + "BENCHTEMP_".len();
        while stop < bytes.len()
            && (bytes[stop].is_ascii_uppercase()
                || bytes[stop].is_ascii_digit()
                || bytes[stop] == b'_')
        {
            stop += 1;
        }
        // A bare "BENCHTEMP_" prefix with no name is not a variable.
        if stop > start + "BENCHTEMP_".len() {
            names.push(&text[start..stop]);
        }
        i = stop;
    }
    names
}

/// Parse the documented env vars out of README text. `None` when the
/// markers are absent.
pub fn parse_registry(readme: &str) -> Option<BTreeSet<String>> {
    let begin = readme.find(REGISTRY_BEGIN)?;
    let end = readme[begin..].find(REGISTRY_END)? + begin;
    Some(
        benchtemp_names(&readme[begin..end])
            .into_iter()
            .map(str::to_string)
            .collect(),
    )
}

/// The stale-row half of `env-read-registry`: a registry row whose variable
/// no scanned string literal names documents a knob nothing reads. One hit
/// per stale variable, on the README line of its row.
fn stale_registry_rows(
    readme: &str,
    registry: &BTreeSet<String>,
    literals: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    let mut reported = BTreeSet::new();
    let rows = readme
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.contains(REGISTRY_BEGIN))
        .take_while(|(_, l)| !l.contains(REGISTRY_END));
    for (i, line) in rows {
        for name in benchtemp_names(line) {
            if registry.contains(name) && !literals.contains(name) && reported.insert(name) {
                out.push(Violation {
                    rule: rules::RULE_ENV_REGISTRY,
                    file: "README.md".to_string(),
                    line: i as u32 + 1,
                    message: format!(
                        "env registry row `{name}` is stale: no string literal in any \
                         scanned file names it"
                    ),
                    waived: false,
                    waive_reason: None,
                });
            }
        }
    }
}

/// Collect every auditable `.rs` file under `root/crates`, sorted so the
/// report order is stable across filesystems. Directories named `fixtures`
/// are skipped — they hold deliberately-violating sources for self-tests.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        for sub in ["src", "tests"] {
            let start = dir.join(sub);
            if start.is_dir() {
                walk(&start, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Path relative to `root`, with forward slashes (rule scoping and report
/// stability both key off this form).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Audit the workspace rooted at `root`: walk, lex, lint, waive, and
/// model-check. IO errors abort; rule hits never do.
pub fn run_audit(root: &Path) -> std::io::Result<AuditReport> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let (registry, registry_found) = match parse_registry(&readme) {
        Some(vars) => (vars, true),
        None => (BTreeSet::new(), false),
    };

    let files = collect_files(root)?;
    let mut violations = Vec::new();
    let mut waivers = Vec::new();
    if !registry_found {
        violations.push(Violation {
            rule: rules::RULE_ENV_REGISTRY,
            file: "README.md".to_string(),
            line: 0,
            message: "env registry markers not found in README.md".to_string(),
            waived: false,
            waive_reason: None,
        });
    }
    let mut literals = BTreeSet::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let raw = lexer::lex(&src);
        let rel = rel_path(root, path);
        for t in &raw {
            if let lexer::Tok::Str(s) = &t.tok {
                literals.extend(benchtemp_names(s).into_iter().map(str::to_string));
            }
        }
        rules::check_file(&rel, &raw, &registry, &mut violations);
        rules::collect_waivers(&rel, &raw, &mut waivers, &mut violations);
    }
    stale_registry_rows(&readme, &registry, &literals, &mut violations);
    rules::apply_waivers(&mut violations, &mut waivers);
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Ok(AuditReport {
        root: root.to_path_buf(),
        files_scanned: files.len(),
        violations,
        waivers,
        registry,
        registry_found,
        protocol: interleave::check_pool_protocol(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_parser_extracts_vars_between_markers() {
        let readme = format!(
            "# Title\nBENCHTEMP_OUTSIDE ignored\n{}\n\
             | `BENCHTEMP_THREADS` | pool size |\n\
             | `BENCHTEMP_TRACE` | trace path |\n{}\ntail BENCHTEMP_AFTER\n",
            REGISTRY_BEGIN, REGISTRY_END
        );
        let vars = parse_registry(&readme).unwrap();
        assert!(vars.contains("BENCHTEMP_THREADS"));
        assert!(vars.contains("BENCHTEMP_TRACE"));
        assert!(!vars.contains("BENCHTEMP_OUTSIDE"));
        assert!(!vars.contains("BENCHTEMP_AFTER"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn registry_parser_rejects_missing_markers() {
        assert!(parse_registry("no markers here").is_none());
        assert!(
            parse_registry(REGISTRY_BEGIN).is_none(),
            "end marker required"
        );
    }

    fn clean_report() -> AuditReport {
        AuditReport {
            root: PathBuf::from("."),
            files_scanned: 0,
            violations: Vec::new(),
            waivers: Vec::new(),
            registry: BTreeSet::new(),
            registry_found: true,
            protocol: interleave::check_pool_protocol(),
        }
    }

    #[test]
    fn report_json_shape_is_stable() {
        let j = clean_report().to_json();
        assert_eq!(
            j.get("schema").unwrap().as_str(),
            Some("benchtemp-audit/v3")
        );
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("rules").unwrap().as_array().unwrap().len(),
            ALL_RULES.len()
        );
        let proto = j.get("protocol_model").unwrap();
        assert_eq!(proto.get("verified").unwrap().as_bool(), Some(true));
        // Round-trips through the util parser.
        let text = j.to_string_pretty();
        assert!(benchtemp_util::json::parse(&text).is_ok());
    }

    #[test]
    fn unused_waiver_fails_the_gate() {
        let mut report = clean_report();
        report.waivers.push(Waiver {
            rule: rules::RULE_WALLCLOCK.to_string(),
            file: "crates/core/src/x.rs".to_string(),
            line: 1,
            reason: "covers nothing".to_string(),
            file_scoped: false,
            used: false,
        });
        assert!(!report.ok(), "an unused waiver must fail the exit code");
        report.waivers[0].used = true;
        assert!(report.ok());
    }
}
