//! The simulation loop as it stood before blocks were decoded, frozen
//! as a test oracle.
//!
//! It keeps a `HashMap<Reg, u64>` scoreboard per run and re-derives
//! every instruction's opcode, load flag and address on every run. The
//! decoded loop in [`crate::sim`] must reproduce it bit for bit: the
//! properties below compare `RunStats`, `SimError` and traced
//! `IssueEvent` sequences over random blocks, processor models, issue
//! widths, latency tables, stateful memory models, fault plans and
//! cycle budgets.

use std::collections::HashMap;

use bsched_faults::{fault_point, Site};
use bsched_ir::{BasicBlock, OpLatencies, Reg};
use bsched_memsim::LatencyModel;
use bsched_stats::Pcg32;

use crate::error::SimError;
use crate::processor::ProcessorModel;
use crate::result::{InterlockBreakdown, SimResult};
use crate::sim::{IssueEvent, RunStats};

/// An in-flight load.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    issued: u64,
    completes: u64,
}

/// The batch loop: `try_simulate_runs_stats` before decoding.
fn oracle_runs_stats(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    runs: u32,
    budget: Option<u64>,
    rng: &Pcg32,
) -> Result<RunStats, SimError> {
    assert!(width >= 1, "issue width must be at least 1");
    let budget = budget.unwrap_or(u64::MAX);
    let mut elapsed = Vec::with_capacity(runs as usize);
    let mut interlocks = Vec::with_capacity(runs as usize);
    for r in 0..runs {
        if bsched_faults::cancelled() {
            return Err(SimError::Cancelled);
        }
        let mut run_rng = rng.split(u64::from(r));
        let (result, cycles) = simulate_inner_guarded(
            block,
            mem,
            model,
            width,
            OpLatencies::unit(),
            &mut run_rng,
            None,
            budget,
        )?;
        elapsed.push(cycles as f64);
        interlocks.push(result.interlocks as f64);
    }
    Ok(RunStats {
        elapsed,
        interlocks,
    })
}

/// Maps a symbolic memory location to a flat simulated address: each
/// region gets a 16 GiB band, offsets (possibly negative, e.g. `a[-1]`)
/// land inside it. Unknown offsets map to `None` so address-aware models
/// treat them as unpredictable.
fn address_of(inst: &bsched_ir::Inst) -> Option<u64> {
    let access = inst.mem()?;
    let offset = access.loc().offset()?;
    let base = (u64::from(access.loc().region().raw()) + 1) << 34;
    Some(base.wrapping_add_signed(offset))
}

/// The single simulation loop. `budget` bounds one run's issue clock:
/// the moment an instruction's issue cycle passes it the run aborts with
/// [`SimError::BudgetExceeded`]. Every public infallible entry point
/// calls this with `budget = u64::MAX`, which can never trip.
#[allow(clippy::too_many_arguments)]
fn simulate_inner_guarded(
    block: &BasicBlock,
    mem: &dyn LatencyModel,
    model: ProcessorModel,
    width: u32,
    op_latencies: OpLatencies,
    rng: &mut Pcg32,
    mut trace: Option<&mut Vec<IssueEvent>>,
    budget: u64,
) -> Result<(SimResult, u64), SimError> {
    mem.begin_run();
    // Hoisted so the fault hooks cost one relaxed load per run, not one
    // per instruction, when no plan is installed.
    let faults_on = bsched_faults::active();
    let mut reg_ready: HashMap<Reg, u64> = HashMap::new();
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut breakdown = InterlockBreakdown::default();
    let mut cycle: u64 = 0;
    let mut slots_used: u32 = 0;
    let mut instructions: u64 = 0;

    for (id, inst) in block.iter_ids() {
        if inst.opcode().is_vnop() {
            continue;
        }
        let earliest = cycle;

        // Operand readiness (register scoreboard).
        let operand_ready = inst
            .uses()
            .iter()
            .map(|u| reg_ready.get(u).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let mut issue = earliest.max(operand_ready);
        breakdown.operand += issue - earliest;

        // Injected processor stall: the machine simply loses `arg`
        // cycles before this issue (watchdog fodder — large stalls trip
        // the cycle budget below).
        if faults_on {
            if let Some(fault) = fault_point!(Site::SimStall) {
                let stall = fault.arg.clamp(1, 1 << 50);
                issue = issue.saturating_add(stall);
                breakdown.operand = breakdown.operand.saturating_add(stall);
            }
        }

        // Processor-model constraints.
        match model {
            ProcessorModel::Unlimited => {}
            ProcessorModel::MaxOutstanding(k) => {
                if inst.is_load() {
                    outstanding.retain(|o| o.completes > issue);
                    if outstanding.len() >= k as usize {
                        // Block until enough outstanding loads complete.
                        let mut completions: Vec<u64> =
                            outstanding.iter().map(|o| o.completes).collect();
                        completions.sort_unstable();
                        let free_at = completions[outstanding.len() - k as usize];
                        if free_at > issue {
                            breakdown.max_outstanding += free_at - issue;
                            issue = free_at;
                        }
                        outstanding.retain(|o| o.completes > issue);
                    }
                }
            }
            ProcessorModel::MaxLength(k) => {
                // The processor cannot execute past `issued + k` while a
                // load is still outstanding: each such load creates a
                // blocked interval [issued + k, completes).
                loop {
                    let barrier = outstanding
                        .iter()
                        .filter(|o| issue >= o.issued + u64::from(k) && issue < o.completes)
                        .map(|o| o.completes)
                        .max();
                    match barrier {
                        Some(c) if c > issue => {
                            breakdown.max_length += c - issue;
                            issue = c;
                        }
                        _ => break,
                    }
                }
                outstanding.retain(|o| o.completes > issue);
            }
        }

        if issue > budget {
            return Err(SimError::BudgetExceeded {
                budget,
                cycle: issue,
            });
        }

        // Issue.
        let complete = if inst.is_load() {
            let mut latency = mem.sample_at(address_of(inst), rng).max(1);
            // Adversarial jitter stays inside the model's declared
            // support, so the timeline validator's bounds still hold —
            // the *number* changes, never the invariant.
            if faults_on {
                if let Some(fault) = fault_point!(Site::LatencyJitter) {
                    latency = bsched_faults::jitter_latency(
                        latency,
                        fault.arg,
                        mem.min_latency(),
                        mem.max_latency(),
                    );
                }
            }
            let complete = issue.saturating_add(latency);
            outstanding.push(Outstanding {
                issued: issue,
                completes: complete,
            });
            complete
        } else {
            issue + u64::from(op_latencies.latency(inst.opcode()))
        };
        for &d in inst.defs() {
            reg_ready.insert(d, complete);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.push(IssueEvent {
                id,
                issue_cycle: issue,
                complete_cycle: complete,
                stall_cycles: issue - earliest,
            });
        }
        instructions += 1;
        // Advance the issue clock: `width` slots per cycle.
        if issue > cycle {
            cycle = issue;
            slots_used = 0;
        }
        slots_used += 1;
        if slots_used >= width {
            cycle += 1;
            slots_used = 0;
        }
    }

    let elapsed = cycle + u64::from(slots_used > 0);
    Ok((
        SimResult {
            instructions,
            interlocks: breakdown.total(),
            breakdown,
        },
        elapsed,
    ))
}

mod tests {
    use super::*;
    use crate::sim::{
        simulate_block_custom, simulate_block_traced, simulate_runs_stats, try_simulate_runs_stats,
    };
    use bsched_faults::{FaultPlan, FaultSpec};
    use bsched_ir::{Inst, Opcode};
    use bsched_memsim::{
        CacheModel, FixedLatency, LineCache, MarkovNetworkModel, MemorySystem, NetworkModel,
    };
    use bsched_regalloc::{allocate, AllocatorConfig};
    use bsched_workload::{random_block, GeneratorConfig};
    use proptest::prelude::*;

    /// A random block of about `size` instructions. With `allocated` it
    /// runs through the register allocator first, so it carries physical
    /// registers and spill code; otherwise it keeps virtual registers.
    /// Either way some virtual no-ops are sprinkled in.
    fn block_for(seed: u64, size: usize, allocated: bool) -> BasicBlock {
        let mut rng = Pcg32::seed_from_u64(seed);
        let config = GeneratorConfig {
            size,
            load_fraction: 0.1 + 0.6 * rng.next_f64(),
            chain_fraction: 0.5 * rng.next_f64(),
            store_fraction: 0.2 * rng.next_f64(),
        };
        let mut block = random_block(&config, &mut rng);
        if allocated {
            let alloc = AllocatorConfig {
                int_regs: 6 + rng.next_index(7) as u32,
                fp_regs: 6 + rng.next_index(11) as u32,
                ..AllocatorConfig::mips_default()
            };
            block = allocate(&block, &alloc)
                .expect("random blocks allocate")
                .block;
        }
        let mut insts = Vec::with_capacity(block.len() + block.len() / 8);
        for inst in block.insts() {
            if rng.next_f64() < 0.1 {
                insts.push(Inst::new(Opcode::VNop, vec![], vec![], None));
            }
            insts.push(inst.clone());
        }
        // Rotating the block, like a loop body in steady state, leaves
        // registers read before they are written, so a scoreboard that
        // leaked from one run into the next would show.
        let rotation = rng.next_index(insts.len() / 2 + 1);
        insts.rotate_left(rotation);
        BasicBlock::new(block.name(), insts)
    }

    /// Memory models, stateless and stateful (`LineCache` and the Markov
    /// network keep per-run state that `begin_run` resets).
    fn mem_for(kind: usize) -> Box<dyn LatencyModel> {
        match kind {
            0 => Box::new(FixedLatency::new(4)),
            1 => Box::new(MemorySystem::from(NetworkModel::new(3.0, 2.0))),
            2 => Box::new(CacheModel::l80_10()),
            3 => Box::new(LineCache::new(32, 8, 2, 2, 10)),
            4 => Box::new(MarkovNetworkModel::bursty()),
            _ => Box::new(LineCache::small_l1()),
        }
    }

    fn processor_for(kind: u32, k: u32) -> ProcessorModel {
        match kind {
            0 => ProcessorModel::Unlimited,
            1 => ProcessorModel::MaxOutstanding(k),
            _ => ProcessorModel::MaxLength(k),
        }
    }

    fn latencies_for(fpu: bool) -> OpLatencies {
        if fpu {
            OpLatencies::mips_fpu()
        } else {
            OpLatencies::unit()
        }
    }

    /// Budget kind 0 is unlimited; the others are small enough that some
    /// runs trip them.
    fn budget_for(kind: u64) -> Option<u64> {
        (kind > 0).then_some(kind * 8)
    }

    /// One untraced run at `width` under `op_latencies`, then one traced
    /// run at width 1, each from a fresh memory model and the same seed.
    type SingleRuns = ((SimResult, u64), (SimResult, Vec<IssueEvent>));

    fn oracle_single_runs(
        block: &BasicBlock,
        mem_kind: usize,
        model: ProcessorModel,
        width: u32,
        op_latencies: OpLatencies,
        seed: u64,
    ) -> SingleRuns {
        let mut rng = Pcg32::seed_from_u64(seed);
        let untraced = simulate_inner_guarded(
            block,
            &*mem_for(mem_kind),
            model,
            width,
            op_latencies,
            &mut rng,
            None,
            u64::MAX,
        )
        .unwrap();
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut trace = Vec::new();
        let (traced, _) = simulate_inner_guarded(
            block,
            &*mem_for(mem_kind),
            model,
            1,
            OpLatencies::unit(),
            &mut rng,
            Some(&mut trace),
            u64::MAX,
        )
        .unwrap();
        (untraced, (traced, trace))
    }

    fn decoded_single_runs(
        block: &BasicBlock,
        mem_kind: usize,
        model: ProcessorModel,
        width: u32,
        op_latencies: OpLatencies,
        seed: u64,
    ) -> SingleRuns {
        let mut rng = Pcg32::seed_from_u64(seed);
        let untraced = simulate_block_custom(
            block,
            &*mem_for(mem_kind),
            model,
            width,
            op_latencies,
            &mut rng,
        );
        let mut rng = Pcg32::seed_from_u64(seed);
        let traced = simulate_block_traced(block, &*mem_for(mem_kind), model, &mut rng);
        (untraced, traced)
    }

    /// The cell key the fault-plan property arms its specs under.
    const FAULT_KEY: &str = "__oracle__";

    /// Runs `f` under a freshly installed `plan`, so every call starts
    /// from zeroed fault counters and sees the same fault occurrences.
    fn under_plan<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
        bsched_faults::install(plan.clone());
        bsched_faults::with_cell_context(FAULT_KEY, 0, f)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batches — guarded and unguarded — match the oracle's samples
        /// and its `BudgetExceeded` payload.
        #[test]
        fn decoded_batches_match_the_oracle(
            seed in 0u64..1 << 32,
            size in 1usize..70,
            allocated in 0u8..2,
            mem_kind in 0usize..6,
            kind in 0u32..3,
            k in 1u32..6,
            width in 1u32..4,
            runs in 0u32..6,
            budget in 0u64..4,
        ) {
            let block = block_for(seed, size, allocated == 1);
            let model = processor_for(kind, k);
            let rng = Pcg32::seed_from_u64(seed ^ 0x5eed);
            let budget = budget_for(budget);
            let oracle =
                oracle_runs_stats(&block, &*mem_for(mem_kind), model, width, runs, budget, &rng);
            let decoded = try_simulate_runs_stats(
                &block,
                &*mem_for(mem_kind),
                model,
                width,
                runs,
                budget,
                &rng,
            );
            prop_assert_eq!(&decoded, &oracle);
            let unguarded =
                oracle_runs_stats(&block, &*mem_for(mem_kind), model, width, runs, None, &rng)
                    .unwrap();
            prop_assert_eq!(
                simulate_runs_stats(&block, &*mem_for(mem_kind), model, width, runs, &rng),
                unguarded
            );
        }

        /// Single runs match the oracle at every width, under unit and
        /// §6 FP latencies, and the width-1 trace matches event for event.
        #[test]
        fn decoded_single_runs_match_the_oracle(
            seed in 0u64..1 << 32,
            size in 1usize..70,
            allocated in 0u8..2,
            mem_kind in 0usize..6,
            kind in 0u32..3,
            k in 1u32..6,
            width in 1u32..4,
            fpu in 0u8..2,
        ) {
            let block = block_for(seed, size, allocated == 1);
            let args = (processor_for(kind, k), width, latencies_for(fpu == 1), seed ^ 0x0dd);
            prop_assert_eq!(
                decoded_single_runs(&block, mem_kind, args.0, args.1, args.2, args.3),
                oracle_single_runs(&block, mem_kind, args.0, args.1, args.2, args.3)
            );
        }

        /// Under `sim-stall` and `latency-jitter` fault plans the two
        /// loops fire the same faults at the same instructions, so
        /// samples, budget trips and traces still agree.
        #[test]
        fn decoded_loop_matches_the_oracle_under_faults(
            seed in 0u64..1 << 32,
            size in 1usize..50,
            allocated in 0u8..2,
            mem_kind in 0usize..6,
            kind in 0u32..3,
            k in 1u32..6,
            width in 1u32..4,
            budget in 0u64..4,
            stall in 1u64..30,
            jitter in 1u64..40,
        ) {
            let _g = crate::sim::tests::fault_lock();
            let stall = FaultSpec::always(Site::SimStall).with_rate(0.05).with_arg(stall);
            let jitter = FaultSpec::always(Site::LatencyJitter).with_rate(0.3).with_arg(jitter);
            let plan = FaultPlan::seeded(seed)
                .with(stall.with_key(FAULT_KEY))
                .with(jitter.with_key(FAULT_KEY));
            let block = block_for(seed, size, allocated == 1);
            let model = processor_for(kind, k);
            let rng = Pcg32::seed_from_u64(seed ^ 0xfa17);
            let budget = budget_for(budget);
            let unit = OpLatencies::unit();
            let oracle = under_plan(&plan, || {
                oracle_runs_stats(&block, &*mem_for(mem_kind), model, width, 4, budget, &rng)
            });
            let decoded = under_plan(&plan, || {
                try_simulate_runs_stats(&block, &*mem_for(mem_kind), model, width, 4, budget, &rng)
            });
            let oracle_single = under_plan(&plan, || {
                oracle_single_runs(&block, mem_kind, model, width, unit, seed)
            });
            let decoded_single = under_plan(&plan, || {
                decoded_single_runs(&block, mem_kind, model, width, unit, seed)
            });
            bsched_faults::clear();
            prop_assert_eq!(decoded, oracle);
            prop_assert_eq!(decoded_single, oracle_single);
        }
    }
}
