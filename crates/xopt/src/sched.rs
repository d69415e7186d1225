//! List scheduling of straight-line runs against the core's
//! [`CostModel`].
//!
//! The in-order XR32 core stalls a consumer until its producer's
//! result delay elapses (load-use interlock, multiplier latency), so
//! reordering independent instructions into those slots is free
//! speedup. The scheduler:
//!
//! 1. splits a [`Unit`] into maximal straight-line runs (no labels, no
//!    control transfers inside a run),
//! 2. builds a dependence DAG per run — RAW/WAR/WAW over general
//!    registers, the carry flag and wide user registers (custom
//!    signatures consulted, conservatively for `Compute` uregs), with
//!    stores ordered against every other memory access,
//! 3. greedily lists ready nodes, preferring stall-free issue, then
//!    the longer critical path, then original order (deterministic),
//! 4. keeps whichever of {scheduled, original} order the cost model
//!    scores better — the pass can never regress a run.

use xlint::{CustomKind, SecretSpec};
use xr32::config::CostModel;
use xr32::isa::{Insn, Reg, UserReg};

use crate::unit::{Item, Unit};

/// A scheduling resource: something an instruction reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rsrc {
    R(Reg),
    Carry,
    U(UserReg),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemKind {
    None,
    Load,
    Store,
}

struct Effects {
    reads: Vec<Rsrc>,
    writes: Vec<Rsrc>,
    mem: MemKind,
}

fn effects(insn: &Insn, spec: &SecretSpec) -> Effects {
    let mut reads: Vec<Rsrc> = insn.sources().iter().map(|&r| Rsrc::R(r)).collect();
    let mut writes: Vec<Rsrc> = xlint::dataflow::insn_dests(insn, spec)
        .into_iter()
        .map(Rsrc::R)
        .collect();
    let mut mem = if insn.is_load() {
        MemKind::Load
    } else if insn.is_store() {
        MemKind::Store
    } else {
        MemKind::None
    };
    match insn {
        Insn::Addc(..) | Insn::Subc(..) => {
            reads.push(Rsrc::Carry);
            writes.push(Rsrc::Carry);
        }
        Insn::Clc => writes.push(Rsrc::Carry),
        Insn::Custom(op) => {
            if let Some(sig) = spec.sig(&op.name) {
                if sig.reads_carry {
                    reads.push(Rsrc::Carry);
                }
                if sig.writes_carry {
                    writes.push(Rsrc::Carry);
                }
                match sig.kind {
                    CustomKind::Load => {
                        mem = MemKind::Load;
                        writes.extend(op.uregs.iter().copied().map(Rsrc::U));
                    }
                    CustomKind::Store => {
                        mem = MemKind::Store;
                        reads.extend(op.uregs.iter().copied().map(Rsrc::U));
                    }
                    CustomKind::Compute => {
                        // Conservative: a compute custom both reads and
                        // writes every ureg operand, so relative order
                        // against its producers/consumers is preserved.
                        reads.extend(op.uregs.iter().copied().map(Rsrc::U));
                        writes.extend(op.uregs.iter().copied().map(Rsrc::U));
                    }
                }
            } else {
                // Unknown signature: act as a full barrier.
                mem = MemKind::Store;
                reads.push(Rsrc::Carry);
                writes.push(Rsrc::Carry);
                reads.extend(op.uregs.iter().copied().map(Rsrc::U));
                writes.extend(op.uregs.iter().copied().map(Rsrc::U));
            }
        }
        _ => {}
    }
    Effects { reads, writes, mem }
}

/// One dependence edge: `from` must issue before the dependent, whose
/// earliest stall-free issue is `from`'s issue time plus `latency`.
struct Edge {
    from: usize,
    latency: u32,
}

/// Builds the dependence DAG of a run. `preds[j]` lists edges into `j`.
fn dag(run: &[Insn], spec: &SecretSpec, cost: &CostModel) -> Vec<Vec<Edge>> {
    let fx: Vec<Effects> = run.iter().map(|i| effects(i, spec)).collect();
    let mut preds: Vec<Vec<Edge>> = (0..run.len()).map(|_| Vec::new()).collect();
    for j in 0..run.len() {
        for i in 0..j {
            let raw = fx[i].writes.iter().any(|w| fx[j].reads.contains(w));
            let war = fx[i].reads.iter().any(|r| fx[j].writes.contains(r));
            let waw = fx[i].writes.iter().any(|w| fx[j].writes.contains(w));
            let mem = matches!(
                (fx[i].mem, fx[j].mem),
                (MemKind::Store, MemKind::Load)
                    | (MemKind::Load, MemKind::Store)
                    | (MemKind::Store, MemKind::Store)
            );
            if raw {
                let lat = cost.issue_cycles(&run[i], None) + cost.result_delay(&run[i]);
                preds[j].push(Edge {
                    from: i,
                    latency: lat,
                });
            } else if war || waw || mem {
                let lat = cost.issue_cycles(&run[i], None);
                preds[j].push(Edge {
                    from: i,
                    latency: lat,
                });
            }
        }
    }
    preds
}

/// Scores an issue order: total cycles including interlock stalls.
fn order_cost(run: &[Insn], order: &[usize], spec: &SecretSpec, cost: &CostModel) -> u64 {
    let preds = dag(run, spec, cost);
    let mut issue_at = vec![0u64; run.len()];
    let mut t = 0u64;
    for &n in order {
        let ready = preds[n]
            .iter()
            .map(|e| issue_at[e.from] + u64::from(e.latency))
            .max()
            .unwrap_or(0);
        t = t.max(ready);
        issue_at[n] = t;
        t += u64::from(cost.issue_cycles(&run[n], None));
    }
    t
}

/// List-schedules one run, returning the chosen issue order.
fn schedule_run(run: &[Insn], spec: &SecretSpec, cost: &CostModel) -> Vec<usize> {
    let n = run.len();
    let preds = dag(run, spec, cost);
    let mut succs: Vec<Vec<(usize, u32)>> = (0..n).map(|_| Vec::new()).collect();
    let mut npreds = vec![0usize; n];
    for (j, es) in preds.iter().enumerate() {
        npreds[j] = es.len();
        for e in es {
            succs[e.from].push((j, e.latency));
        }
    }
    // Critical-path height (latency-weighted longest path to any leaf).
    let mut height = vec![0u64; n];
    for i in (0..n).rev() {
        height[i] = u64::from(cost.issue_cycles(&run[i], None));
        for &(j, lat) in &succs[i] {
            height[i] = height[i].max(u64::from(lat) + height[j]);
        }
    }

    let mut remaining: Vec<usize> = (0..n).filter(|&i| npreds[i] == 0).collect();
    let mut left = npreds.clone();
    let mut issue_at = vec![0u64; n];
    let mut order = Vec::with_capacity(n);
    let mut t = 0u64;
    while order.len() < n {
        // Earliest stall-free issue time per ready node.
        let ready_time = |i: usize| {
            preds[i]
                .iter()
                .map(|e| issue_at[e.from] + u64::from(e.latency))
                .max()
                .unwrap_or(0)
        };
        // Prefer: issuable now without stall, then tallest critical
        // path, then original order.
        let pick = *remaining
            .iter()
            .min_by_key(|&&i| {
                let stall = ready_time(i).saturating_sub(t);
                (stall, u64::MAX - height[i], i)
            })
            .expect("ready set cannot be empty while nodes remain");
        remaining.retain(|&i| i != pick);
        t = t.max(ready_time(pick));
        issue_at[pick] = t;
        t += u64::from(cost.issue_cycles(&run[pick], None));
        order.push(pick);
        for &(j, _) in &succs[pick] {
            left[j] -= 1;
            if left[j] == 0 {
                remaining.push(j);
            }
        }
    }
    order
}

/// Schedules every straight-line run of `unit` in place, consulting
/// `spec` for custom-instruction signatures. Runs whose scheduled
/// order does not beat the original cost are left untouched.
///
/// Returns the number of runs that were actually reordered.
pub fn schedule_unit(unit: &mut Unit, spec: &SecretSpec, cost: &CostModel) -> usize {
    // Collect maximal runs of consecutive Op items whose instructions
    // neither transfer control nor end a block.
    let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, end) item indices
    let mut start = None;
    for (ix, item) in unit.items.iter().enumerate() {
        let breaks = match item {
            Item::Op { insn, .. } => insn.ends_block() || insn.branch_target().is_some(),
            _ => true,
        };
        match (start, breaks) {
            (None, false) => start = Some(ix),
            (Some(s), true) => {
                runs.push((s, ix));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, unit.items.len()));
    }

    let mut reordered = 0;
    for (s, e) in runs {
        if e - s < 2 {
            continue;
        }
        let insns: Vec<Insn> = unit.items[s..e]
            .iter()
            .map(|it| match it {
                Item::Op { insn, .. } => insn.clone(),
                _ => unreachable!("runs contain only ops"),
            })
            .collect();
        let order = schedule_run(&insns, spec, cost);
        let identity: Vec<usize> = (0..insns.len()).collect();
        if order == identity {
            continue;
        }
        let old = order_cost(&insns, &identity, spec, cost);
        let new = order_cost(&insns, &order, spec, cost);
        if new >= old {
            continue;
        }
        let items: Vec<Item> = unit.items[s..e].to_vec();
        for (k, &src) in order.iter().enumerate() {
            unit.items[s + k] = items[src].clone();
        }
        reordered += 1;
    }
    reordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr32::config::CpuConfig;

    fn sched(src: &str) -> (Unit, usize) {
        let mut unit = Unit::parse(src).unwrap();
        let spec = SecretSpec::from_source(src).unwrap();
        let cost = CpuConfig::default().cost_model();
        let n = schedule_unit(&mut unit, &spec, &cost);
        (unit, n)
    }

    #[test]
    fn fills_the_load_use_slot() {
        // lw;addc back-to-back stalls one cycle; the independent
        // pointer bumps can hide it.
        let src = "
f:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addc a4, a4, a5
    sw   a4, a0, 0
    addi a1, a1, 4
    addi a2, a2, 4
    ret
";
        let (unit, n) = sched(src);
        assert_eq!(n, 1, "the run must be reordered");
        let ops: Vec<String> = unit
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Op { .. } => Some(it.text()),
                _ => None,
            })
            .collect();
        // The addc must no longer immediately follow the second load.
        let addc = ops.iter().position(|t| t.starts_with("addc")).unwrap();
        assert!(
            ops[addc - 1].starts_with("addi"),
            "a bump should fill the load-use slot: {ops:?}"
        );
        // The store still sees the combine before it.
        let sw = ops.iter().position(|t| t.starts_with("sw")).unwrap();
        assert!(addc < sw);
    }

    #[test]
    fn already_optimal_runs_are_untouched() {
        let src = "
f:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addi a1, a1, 4
    addi a2, a2, 4
    addc a4, a4, a5
    sw   a4, a0, 0
    ret
";
        let (unit, _) = sched(src);
        let cost = CpuConfig::default().cost_model();
        let spec = SecretSpec::from_source(src).unwrap();
        let insns: Vec<Insn> = unit
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Op { insn, .. } => Some(insn.clone()),
                _ => None,
            })
            .collect();
        // Whatever the scheduler did, the cost never regressed the
        // hand-scheduled order.
        let run = &insns[..insns.len() - 1]; // drop ret
        let identity: Vec<usize> = (0..run.len()).collect();
        assert!(order_cost(run, &identity, &spec, &cost) <= 8);
    }

    #[test]
    fn stores_stay_ordered_against_loads() {
        let src = "
f:
    sw   a4, a0, 0
    lw   a5, a0, 0
    add  a6, a5, a5
    ret
";
        let (unit, _) = sched(src);
        let ops: Vec<String> = unit
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Op { .. } => Some(it.text()),
                _ => None,
            })
            .collect();
        let sw = ops.iter().position(|t| t.starts_with("sw")).unwrap();
        let lw = ops.iter().position(|t| t.starts_with("lw")).unwrap();
        assert!(sw < lw, "store/load order must be preserved: {ops:?}");
    }
}
