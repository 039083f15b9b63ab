//! `edp-analyze`: static hazard/lint analysis for event programs,
//! shared state, and match tables.
//!
//! The analyzer answers, *without simulating traffic*, the questions the
//! paper's §4 resource argument raises about any deployed event program:
//!
//! 1. **Access matrix + hazards** ([`access`], [`hazard`]) — a recording
//!    probe exercises each declared handler once with synthetic inputs
//!    and derives the handler-context × register read/write matrix, then
//!    flags plain registers written from multiple contexts (`EDP-W001`),
//!    RMW cycles spanning handlers (`EDP-W002`), accessor-claim
//!    mismatches (`EDP-W007`), and handlers that panic under probe
//!    (`EDP-E005`).
//! 2. **Merge-op algebra** ([`merge`]) — registered fold ops are probed
//!    for commutativity, associativity, and identity over an exhaustive
//!    boundary domain plus a seeded random sweep (`EDP-E001/E003/E004`).
//! 3. **Table rules** ([`tables`]) — shadowed entries (`EDP-E002`),
//!    duplicate LPM prefixes (`EDP-W003`), missing defaults
//!    (`EDP-W004`).
//! 4. **Event coverage** ([`coverage`]) — dead handlers (`EDP-W005`) and
//!    raised-but-unhandled user events (`EDP-W006`).
//! 5. **Effect summaries** ([`effects`]) — observed emissions are
//!    cross-checked against the manifest's declared closed world:
//!    emissions with no declaration at all (`EDP-W008`) and emissions
//!    outside the declared closure (`EDP-E007`).
//!
//! Findings are [`diag::Diagnostic`]s with stable codes; an app's
//! [`AppManifest`] can `allow` individual `(code, subject)` pairs with a
//! recorded reason, which moves the finding to the report's `allowed`
//! list instead of silencing it. The `edp_lint` binary runs the whole
//! catalog over every registered app and gates CI via `--deny warnings`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod coverage;
pub mod diag;
pub mod effects;
pub mod hazard;
pub mod merge;
pub mod tables;

pub use access::{AccessCell, AccessMatrix};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use effects::{EffectReport, EffectRow};

use edp_core::{AppManifest, EventProgram};

/// Default seed for the randomized merge-op sweep; any fixed value keeps
/// CI deterministic, and `edp_lint --seed` overrides it.
pub const DEFAULT_SEED: u64 = 0xED9_A11A;

/// Runs the full lint catalog over one program + manifest pair.
///
/// Probes the program's declared handlers to build the access matrix,
/// then runs every analysis family and partitions the findings against
/// the manifest's allow list.
pub fn lint_app(program: &mut dyn EventProgram, manifest: &AppManifest, seed: u64) -> Report {
    let matrix = access::extract(program, manifest);
    let mut raw = hazard::check(manifest.name, &matrix);
    for op in &manifest.merge_ops {
        raw.extend(merge::check(manifest.name, op, seed));
    }
    for shape in &manifest.tables {
        raw.extend(tables::check(manifest.name, shape));
    }
    raw.extend(coverage::check(manifest.name, manifest, &matrix));
    raw.extend(effects::check(manifest.name, manifest, &matrix));
    Report::from_findings(raw, &manifest.allows)
}

/// Probes one program and renders its effect report (the `--effects`
/// view): observed vs declared vs closure footprints per event kind.
pub fn effect_report(program: &mut dyn EventProgram, manifest: &AppManifest) -> EffectReport {
    let matrix = access::extract(program, manifest);
    effects::report(manifest, &matrix)
}
