//! Generated kernel variants: production, admission and reporting.
//!
//! This module is the platform-side face of the `xopt` pipeline. For a
//! kernel whose [`kreg::KernelDescriptor`] opts in with
//! [`kreg::VariantSource::Generated`], it generates one variant per
//! family resource level, runs both halves of the admission gate (the
//! constant-time lint differential inside `xopt::generate`, the
//! golden-reference sweep here, under this platform's actual custom
//! instruction semantics from [`crate::insns`]), and packages the
//! outcome — including the hand-written baseline cycles measured
//! side-by-side by the flow — as [`GeneratedVariantRecord`]s for run
//! reports (schema 4's `generated_variants` array).
//!
//! Generation and gating depend only on the kernel and the core
//! configuration, so [`admitted_variants`] runs them once per process
//! for each such pair and shares the outcome list from then on.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use kreg::{AccelLevel, KernelDescriptor, KernelId};
use xobs::json::Json;
use xopt::{GeneratedVariant, OptError};
use xr32::asm::{assemble, Program};
use xr32::config::CpuConfig;
use xr32::ext::ExtensionSet;

use crate::insns;

/// A generated variant that passed both gate halves, with the
/// extension set it must run under and its assembled code.
#[derive(Debug, Clone)]
pub struct AdmittedVariant {
    /// The gated variant (source, tag, pass statistics).
    pub gen: GeneratedVariant,
    /// The custom instructions the variant's blocked loop issues.
    pub ext: ExtensionSet,
    /// `gen.source`, assembled (see [`crate::IssMpn::with_program`]).
    pub program: Arc<Program>,
}

/// Every family level of one kernel with its gate outcome, in registry
/// order.
pub type Outcomes = Vec<(AccelLevel, Result<AdmittedVariant, OptError>)>;

/// How many `(kernel, configuration)` outcome lists the admission memo
/// keeps; the oldest is dropped first. Core configurations can arrive
/// over the wire, so the memo must not grow with them.
pub const ADMISSION_MEMO_CAPACITY: usize = 16;

type MemoEntry = (KernelId, CpuConfig, Arc<Outcomes>);

static ADMISSION_MEMO: Mutex<VecDeque<MemoEntry>> = Mutex::new(VecDeque::new());

fn admission_memo() -> std::sync::MutexGuard<'static, VecDeque<MemoEntry>> {
    // Entries are only ever whole, so a panic elsewhere cannot leave
    // the memo inconsistent.
    ADMISSION_MEMO
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// [`admitted_variants_uncached`], generated and gated once per process
/// for each kernel and core configuration (compared by value) and
/// shared from then on, rejections included. The memo holds code and
/// gate verdicts — never a measured value — and at most
/// [`ADMISSION_MEMO_CAPACITY`] entries.
pub fn admitted_variants(desc: &KernelDescriptor, config: &CpuConfig) -> Arc<Outcomes> {
    let lookup = |memo: &VecDeque<MemoEntry>| {
        memo.iter()
            .find(|(kernel, c, _)| *kernel == desc.id && c == config)
            .map(|(.., outcomes)| Arc::clone(outcomes))
    };
    if let Some(hit) = lookup(&admission_memo()) {
        return hit;
    }
    // Generate outside the lock; a thread that lost the race adopts the
    // winner's (identical) list.
    let fresh = Arc::new(admitted_variants_uncached(desc, config));
    let mut memo = admission_memo();
    if let Some(hit) = lookup(&memo) {
        return hit;
    }
    if memo.len() == ADMISSION_MEMO_CAPACITY {
        memo.pop_front();
    }
    memo.push_back((desc.id, config.clone(), Arc::clone(&fresh)));
    fresh
}

/// Number of outcome lists the admission memo currently holds.
pub fn admission_memo_len() -> usize {
    admission_memo().len()
}

/// Generates and gates every family level of `desc`, in registry
/// order (cheapest first). Each level is independent: one level's
/// rejection does not stop the others — the flow falls back to the
/// hand-written variant for that level alone.
pub fn admitted_variants_uncached(desc: &KernelDescriptor, config: &CpuConfig) -> Outcomes {
    let Some(fam) = desc.family else {
        return Vec::new();
    };
    fam.levels
        .iter()
        .map(|level| {
            let outcome = xopt::generate(desc, level, config).and_then(|gen| {
                let ext = insns::mpn_extension_set(level.add_lanes, level.mac_lanes);
                gen.verify_golden(&desc.conv, config, &ext)?;
                let program = assemble(&gen.source).map_err(OptError::from_assemble)?;
                Ok(AdmittedVariant {
                    gen,
                    ext,
                    program: Arc::new(program),
                })
            });
            (*level, outcome)
        })
        .collect()
}

/// One level's generated-vs-hand-written outcome, as recorded in run
/// reports.
#[derive(Debug, Clone)]
pub struct GeneratedVariantRecord {
    /// The kernel.
    pub kernel: KernelId,
    /// Family mnemonic root (`add`, `mac`).
    pub family: &'static str,
    /// The level's datapath lanes (the A-D curve point).
    pub lanes: u32,
    /// Generated-variant tag (`gen-a{a}m{m}`).
    pub tag: String,
    /// Whether the variant passed the constant-time lint differential.
    pub lint_ok: bool,
    /// Whether the variant passed golden-reference verification.
    pub golden_ok: bool,
    /// Whether the variant drives the curve point (both gates passed).
    pub admitted: bool,
    /// The gate/pipeline error, when not admitted.
    pub error: Option<String>,
    /// ISS cycles of the generated variant (admitted variants only).
    pub cycles_generated: Option<f64>,
    /// ISS cycles of the hand-written variant at the same level.
    pub cycles_hand: f64,
}

impl GeneratedVariantRecord {
    /// The record's run-report row (stable key order).
    pub fn to_json(&self) -> Json {
        let mut row = Json::obj()
            .set("kernel", self.kernel.name())
            .set("family", self.family)
            .set("lanes", u64::from(self.lanes))
            .set("tag", self.tag.as_str())
            .set("lint_ok", self.lint_ok)
            .set("golden_ok", self.golden_ok)
            .set("admitted", self.admitted)
            .set("cycles_hand", self.cycles_hand);
        if let Some(c) = self.cycles_generated {
            row = row.set("cycles_generated", c);
        }
        if let Some(e) = &self.error {
            row = row.set("error", e.as_str());
        }
        row
    }

    /// Generated-over-hand-written cycle ratio, when both were
    /// measured (`< 1.0` means the generated variant is faster).
    pub fn cycle_ratio(&self) -> Option<f64> {
        match (self.cycles_generated, self.cycles_hand) {
            (Some(g), h) if h > 0.0 => Some(g / h),
            _ => None,
        }
    }
}

/// Classifies an [`OptError`] into the two gate verdicts: which halves
/// are known to have passed when the pipeline stopped at `err`.
pub fn gate_verdicts(err: &OptError) -> (bool, bool) {
    match err {
        // Lint gate runs first inside generate(): reaching the golden
        // gate implies lint passed.
        OptError::GoldenRejected { .. } | OptError::Sim(_) => (true, false),
        OptError::LintRejected { .. } => (false, false),
        _ => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::id;

    fn desc(kid: KernelId) -> &'static KernelDescriptor {
        kreg::registry().iter().find(|d| d.id == kid).unwrap()
    }

    #[test]
    fn both_generated_kernels_admit_every_level() {
        let config = CpuConfig::default();
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let outcomes = admitted_variants(desc(kid), &config);
            assert!(!outcomes.is_empty());
            for (level, outcome) in outcomes.iter() {
                let adm = outcome.as_ref().unwrap_or_else(|e| {
                    panic!(
                        "{kid} level a{}m{} rejected: {e}",
                        level.add_lanes, level.mac_lanes
                    )
                });
                assert_eq!(adm.gen.tag, level.generated_tag());
            }
        }
    }

    #[test]
    fn record_json_carries_the_gate_verdicts() {
        let rec = GeneratedVariantRecord {
            kernel: id::ADD_N,
            family: "add",
            lanes: 4,
            tag: "gen-a4m1".into(),
            lint_ok: true,
            golden_ok: true,
            admitted: true,
            error: None,
            cycles_generated: Some(90.0),
            cycles_hand: 100.0,
        };
        let j = rec.to_json();
        assert_eq!(j.get("kernel").and_then(Json::as_str), Some("mpn_add_n"));
        assert_eq!(j.get("admitted"), Some(&Json::Bool(true)));
        assert_eq!(rec.cycle_ratio(), Some(0.9));
        assert_eq!(j.get("cycles_generated").and_then(Json::as_f64), Some(90.0));
    }
}
