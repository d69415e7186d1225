//! Public IR: the analyzer's facts packaged for downstream consumers.
//!
//! `xlint`'s CFG and dataflow solvers were built for the lint engine,
//! but the optimizing pipeline (`xopt`) needs the same facts — which
//! definitions reach a use, what is live after each instruction, where
//! the loop back-edges are. [`UnitIr`] bundles one assembled unit with
//! its [`Cfg`], a whole-program [`Liveness`] solution, and a
//! [`ReachingDefs`] solution per entry point, so rewriters consume the
//! *same* analysis the lints are gated on rather than re-deriving a
//! private (and possibly divergent) one.
//!
//! [`UnitIr::to_json`] serializes the facts as stable, insertion-ordered
//! JSON (instructions by pc, entries in spec order) for the
//! `xr32-lint --ir` dump mode, so optimizer decisions are inspectable
//! and diffable in CI.

use xobs::json::Json;
use xr32::asm::{assemble, Program};

use crate::cfg::Cfg;
use crate::dataflow::{Liveness, ReachingDefs, RegSet, ENTRY_DEF};
use crate::spec::{EntrySpec, SecretSpec};
use crate::{lints, AnalyzeError};

/// Reaching-definition facts for one entry point.
pub struct EntryIr {
    /// The entry's global label.
    pub label: String,
    /// Instruction index of the entry.
    pub pc: usize,
    /// Reaching definitions solved from this entry.
    pub reaching: ReachingDefs,
    /// Per-pc reachability from this entry.
    pub reachable: Vec<bool>,
}

/// One assembled unit plus every dataflow fact the lints compute,
/// exposed as a public IR.
pub struct UnitIr {
    /// The assembled program.
    pub program: Program,
    /// The unit's `;!` annotation spec (custom signatures included).
    pub spec: SecretSpec,
    /// Basic blocks and instruction-level successors.
    pub cfg: Cfg,
    /// Whole-program backward liveness (same exit assumptions as the
    /// dead-store lint: `a0`, `a1` and `sp` live at program exits).
    pub liveness: Liveness,
    /// Per-entry forward facts, in spec order (or global-label order
    /// when the spec declares no entries).
    pub entries: Vec<EntryIr>,
}

impl UnitIr {
    /// Assembles `src`, parses its `;!` annotations, and solves every
    /// dataflow pass.
    ///
    /// # Errors
    ///
    /// Propagates assembler and annotation errors; an entry annotation
    /// naming an unknown label is [`AnalyzeError::UnknownEntry`].
    pub fn from_source(src: &str) -> Result<UnitIr, AnalyzeError> {
        let program = assemble(src)?;
        let spec = SecretSpec::from_source(src)?;
        UnitIr::build(program, spec)
    }

    /// Solves the dataflow passes for an already-assembled `program`
    /// under `spec`. When the spec declares no entries, every global
    /// label is used (matching [`crate::analyze`]).
    ///
    /// # Errors
    ///
    /// [`AnalyzeError::UnknownEntry`] if a spec entry names a label the
    /// program does not define.
    pub fn build(program: Program, spec: SecretSpec) -> Result<UnitIr, AnalyzeError> {
        let entry_specs: Vec<EntrySpec> = if spec.entries().is_empty() {
            program
                .global_labels()
                .map(|(name, _)| EntrySpec::new(name))
                .collect()
        } else {
            spec.entries().to_vec()
        };
        let mut entry_pcs = Vec::with_capacity(entry_specs.len());
        for e in &entry_specs {
            match program.label(&e.label) {
                Some(pc) => entry_pcs.push(pc),
                None => return Err(AnalyzeError::UnknownEntry(e.label.clone())),
            }
        }

        let insns = program.insns();
        let cfg = Cfg::build(&program);
        let exits = lints::exit_pcs(&program, &cfg, &entry_pcs);
        let liveness = if insns.is_empty() {
            Liveness::solve(&cfg, insns, &spec, RegSet::EMPTY, &[])
        } else {
            Liveness::solve(&cfg, insns, &spec, lints::exit_live(), &exits)
        };
        let entries = entry_specs
            .iter()
            .zip(&entry_pcs)
            .map(|(e, &pc)| EntryIr {
                label: e.label.clone(),
                pc,
                reaching: ReachingDefs::solve(&cfg, insns, &spec, pc),
                reachable: cfg.reachable_from(&[pc], insns),
            })
            .collect();
        Ok(UnitIr {
            program,
            spec,
            cfg,
            liveness,
            entries,
        })
    }

    /// The facts for entry `label`, if it was analyzed.
    pub fn entry(&self, label: &str) -> Option<&EntryIr> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// Serializes the IR as stable JSON: instructions and blocks in pc
    /// order, entries in analysis order, register sets as sorted name
    /// arrays. The output is deterministic for a given source, so CI
    /// can diff dumps across commits.
    pub fn to_json(&self) -> Json {
        let insns = self.program.insns();

        let blocks: Vec<Json> = self
            .cfg
            .blocks()
            .iter()
            .map(|b| {
                Json::obj()
                    .set("start", b.start)
                    .set("end", b.end)
                    .set(
                        "succs",
                        Json::Arr(b.succs.iter().map(|&s| s.into()).collect()),
                    )
                    .set(
                        "preds",
                        Json::Arr(b.preds.iter().map(|&p| p.into()).collect()),
                    )
            })
            .collect();

        let insn_rows: Vec<Json> = insns
            .iter()
            .enumerate()
            .map(|(pc, insn)| {
                let mut row = Json::obj().set("pc", pc).set("op", insn.to_string());
                if let Some(line) = self.program.line_of(pc) {
                    row = row.set("line", line);
                }
                row.set("block", self.cfg.block_of(pc))
                    .set("live_out", regset_json(self.liveness.live_out(pc)))
            })
            .collect();

        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                // Reaching definitions of each *used* register, only at
                // pcs this entry can reach — the compact slice xopt's
                // SSA construction actually consumes.
                let mut uses = Vec::new();
                for (pc, insn) in insns.iter().enumerate() {
                    if !e.reachable[pc] {
                        continue;
                    }
                    let mut srcs = insn.sources().to_vec();
                    srcs.sort_unstable();
                    srcs.dedup();
                    for r in srcs {
                        let defs: Vec<Json> = e
                            .reaching
                            .defs_at(pc, r)
                            .iter()
                            .map(|&d| {
                                if d == ENTRY_DEF {
                                    Json::Str("entry".into())
                                } else {
                                    d.into()
                                }
                            })
                            .collect();
                        uses.push(
                            Json::obj()
                                .set("pc", pc)
                                .set("reg", r.to_string())
                                .set("defs", Json::Arr(defs)),
                        );
                    }
                }
                Json::obj()
                    .set("label", e.label.as_str())
                    .set("pc", e.pc)
                    .set("reaching", Json::Arr(uses))
            })
            .collect();

        Json::obj()
            .set("schema", "xlint.unit-ir")
            .set("schema_version", 1u64)
            .set("insns", Json::Arr(insn_rows))
            .set("blocks", Json::Arr(blocks))
            .set("entries", Json::Arr(entries))
    }
}

fn regset_json(set: RegSet) -> Json {
    let mut names: Vec<Json> = set.iter().map(|r| Json::Str(r.to_string())).collect();
    if set.has_carry() {
        names.push(Json::Str("carry".into()));
    }
    Json::Arr(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr32::isa::Reg;

    const LOOP_SRC: &str = ";! entry f inputs=a0,a1,sp,ra
         f:
            movi a2, 0
         .lp:
            addi a2, a2, 1
            bne  a2, a0, .lp
            mov  a0, a2
            ret";

    #[test]
    fn builds_facts_for_a_loop() {
        let ir = UnitIr::from_source(LOOP_SRC).unwrap();
        assert_eq!(ir.entries.len(), 1);
        let e = ir.entry("f").unwrap();
        assert_eq!(e.pc, 0);
        // Inside the loop, a2's reaching defs are both the init (pc 0)
        // and the back-edge redefinition (pc 1).
        let defs = e.reaching.defs_at(1, Reg::new(2));
        assert!(defs.contains(&0) && defs.contains(&1), "got {defs:?}");
        // a0 is live around the loop (branch bound + return value).
        assert!(ir.liveness.live_out(1).contains(Reg::new(0)));
    }

    #[test]
    fn json_dump_is_stable_and_parsable() {
        let ir = UnitIr::from_source(LOOP_SRC).unwrap();
        let a = ir.to_json().to_string_pretty();
        let b = UnitIr::from_source(LOOP_SRC).unwrap().to_json();
        assert_eq!(a, b.to_string_pretty(), "dump must be deterministic");
        let parsed = xobs::json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("xlint.unit-ir")
        );
        let insns = parsed.get("insns").and_then(Json::as_arr).unwrap();
        assert_eq!(insns.len(), ir.program.len());
        assert_eq!(
            insns[0].get("op").and_then(Json::as_str),
            Some("movi a2, 0")
        );
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries[0].get("label").and_then(Json::as_str), Some("f"));
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let Err(err) = UnitIr::from_source(";! entry ghost inputs=a0\nf: ret") else {
            panic!("expected UnknownEntry");
        };
        assert!(matches!(err, AnalyzeError::UnknownEntry(ref l) if l == "ghost"));
    }
}
