//! `edp_lint` — run the static hazard/lint catalog over every built-in
//! app and report structured diagnostics.
//!
//! ```text
//! edp_lint [--json] [--sarif] [--effects] [--deny warnings] [--seed N]
//! ```
//!
//! Exit status: `0` when the gate passes, `1` when lints are denied
//! (any error-severity diagnostic, or active warnings under
//! `--deny warnings` — the CI configuration), `2` on internal failure
//! (bad arguments, malformed invocation). Allowed findings are always
//! printed with their recorded reason — suppression is visible, never
//! silent.

use edp_analyze::{effect_report, lint_app, LintCode, Report, Severity, DEFAULT_SEED};
use edp_apps::registry::builtin_apps;

const HELP: &str = "\
usage: edp_lint [--json] [--sarif] [--effects] [--deny warnings] [--seed N]

Runs the full static analysis catalog (EDP-W001..W008, EDP-E001..E007)
over every registered app.

  --json            structured report on stdout
  --sarif           SARIF 2.1.0 report on stdout (for code-scanning UIs)
  --effects         per-app effect-summary report: observed vs declared
                    vs closure emission footprints, and whether the
                    app's timers certify as shard-local
  --deny warnings   fail (exit 1) on active warnings, not just errors
  --seed N          seed for the randomized merge-op sweep

exit codes:
  0  gate passed
  1  lints denied (errors, or warnings under --deny warnings)
  2  internal failure (bad arguments)";

struct Options {
    json: bool,
    sarif: bool,
    effects: bool,
    deny_warnings: bool,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        sarif: false,
        effects: false,
        deny_warnings: false,
        seed: DEFAULT_SEED,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--effects" => opts.effects = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => opts.deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny takes `warnings`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--seed" => {
                let v = args.next().ok_or("--seed takes a number")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct AppResult {
    name: String,
    source: Option<&'static str>,
    report: Report,
}

fn print_json(results: &[AppResult]) {
    let mut out = String::from("{\n  \"apps\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_str(&r.name)));
        out.push_str("      \"diagnostics\": [");
        for (j, d) in r.report.diagnostics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"code\": {}, \"name\": {}, \"severity\": {}, \
                 \"subject\": {}, \"message\": {}}}",
                json_str(d.code.code()),
                json_str(d.code.name()),
                json_str(d.code.severity().name()),
                json_str(&d.subject),
                json_str(&d.message),
            ));
        }
        if !r.report.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("],\n      \"allowed\": [");
        for (j, (d, reason)) in r.report.allowed.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"code\": {}, \"subject\": {}, \"reason\": {}}}",
                json_str(d.code.code()),
                json_str(&d.subject),
                json_str(reason),
            ));
        }
        if !r.report.allowed.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let errors: usize = results.iter().map(|r| r.report.errors()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings()).sum();
    let allowed: usize = results.iter().map(|r| r.report.allowed.len()).sum();
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"summary\": {{\"errors\": {errors}, \"warnings\": {warnings}, \"allowed\": {allowed}}}\n"
    ));
    out.push('}');
    println!("{out}");
}

/// SARIF 2.1.0: one run, one rule per catalogued lint code, one result
/// per active diagnostic. Allowed findings are emitted with
/// `"kind": "informational"` suppressions so scanning UIs show the
/// acknowledged hazards without failing on them.
fn print_sarif(results: &[AppResult]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"edp_lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, code) in LintCode::ALL.iter().enumerate() {
        let comma = if i + 1 == LintCode::ALL.len() {
            ""
        } else {
            ","
        };
        let level = match code.severity() {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        out.push_str(&format!(
            "            {{\"id\": {}, \"name\": {}, \
             \"defaultConfiguration\": {{\"level\": \"{level}\"}}}}{comma}\n",
            json_str(code.code()),
            json_str(code.name()),
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let mut results_json = Vec::new();
    for r in results {
        let uri = r.source.unwrap_or("crates/apps/src/registry.rs");
        for d in &r.report.diagnostics {
            let level = match d.code.severity() {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            results_json.push(format!(
                "        {{\"ruleId\": {}, \"level\": \"{level}\", \
                 \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": {}}}}}}}]}}",
                json_str(d.code.code()),
                json_str(&format!("{}: {}: {}", d.app, d.subject, d.message)),
                json_str(uri),
            ));
        }
        for (d, reason) in &r.report.allowed {
            results_json.push(format!(
                "        {{\"ruleId\": {}, \"level\": \"note\", \
                 \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": {}}}}}}}], \
                 \"suppressions\": [{{\"kind\": \"inSource\", \
                 \"justification\": {}}}]}}",
                json_str(d.code.code()),
                json_str(&format!("{}: {}: allowed", d.app, d.subject)),
                json_str(uri),
                json_str(reason),
            ));
        }
    }
    out.push_str(&results_json.join(",\n"));
    if !results_json.is_empty() {
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}");
    println!("{out}");
}

fn print_human(results: &[AppResult]) {
    for r in results {
        if r.report.diagnostics.is_empty() && r.report.allowed.is_empty() {
            continue;
        }
        println!("{}:", r.name);
        for d in &r.report.diagnostics {
            println!("  {d}");
        }
        for (d, reason) in &r.report.allowed {
            println!(
                "  allowed [{} {}] {}: {}",
                d.code.code(),
                d.code.name(),
                d.subject,
                reason
            );
        }
    }
}

/// The `--effects` view: observed vs declared vs closure footprints per
/// kind, per app, plus the timer certificate the engine would load.
fn print_effects() {
    for mut app in builtin_apps() {
        let rep = effect_report(app.program.as_mut(), &app.manifest);
        let world = if rep.closed_world {
            "closed world"
        } else {
            "open world"
        };
        let timer = if rep.timer_local {
            "timers certified local"
        } else {
            "timers may emit"
        };
        println!("{} ({world}, {timer}):", rep.app);
        println!(
            "  {:<16} {:<12} {:<12} {:<12}",
            "event", "observed", "declared", "closure"
        );
        for row in &rep.rows {
            println!(
                "  {:<16} {:<12} {:<12} {:<12}",
                row.kind.name(),
                row.observed.to_string(),
                row.declared.to_string(),
                row.closure.to_string(),
            );
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("edp_lint: {e}");
            std::process::exit(2);
        }
    };

    if opts.effects {
        print_effects();
        return;
    }

    let mut results: Vec<AppResult> = Vec::new();
    for mut app in builtin_apps() {
        let report = lint_app(app.program.as_mut(), &app.manifest, opts.seed);
        results.push(AppResult {
            name: app.manifest.name.to_string(),
            source: app.manifest.source,
            report,
        });
    }

    let errors: usize = results.iter().map(|r| r.report.errors()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings()).sum();
    let allowed: usize = results.iter().map(|r| r.report.allowed.len()).sum();

    if opts.sarif {
        print_sarif(&results);
    } else if opts.json {
        print_json(&results);
    } else {
        print_human(&results);
        let worst = results
            .iter()
            .flat_map(|r| r.report.diagnostics.iter())
            .map(|d| d.code.severity())
            .max();
        let verdict = match worst {
            Some(Severity::Error) => "FAIL",
            Some(Severity::Warning) if opts.deny_warnings => "FAIL (denied warnings)",
            _ => "ok",
        };
        println!(
            "edp_lint: {} apps analyzed, {errors} errors, {warnings} warnings, \
             {allowed} allowed — {verdict}",
            results.len()
        );
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
