//! The `table` workload: one op is one Table 2 cell, a stand-in × system
//! row, balanced against traditional, evaluated with
//! `try_run_cell_compiled` from programs compiled once in setup (as
//! `run_cells` memoizes them). Evaluation fans out over
//! `BSCHED_THREADS` threads. Each round is all 8 × 17 cells in a seeded
//! order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bsched_bench::{eval_config, table2_rows, try_run_cell_compiled, Cell, SystemRow};
use bsched_cpusim::{try_simulate_runs_stats, ProcessorModel};
use bsched_memsim::{LatencyModel, MemorySystem};
use bsched_pipeline::{
    compare, try_evaluate_serial, CompiledProgram, EvalConfig, ProgramEval, SchedulerChoice,
};
use bsched_stats::{bootstrap_means, Pcg32};
use bsched_workload::perfect_club;

use crate::measure;
use crate::trace::{self, span, span_under, Tracer};
use crate::{pinned_pipeline, Outcome};

const PROCESSOR: ProcessorModel = ProcessorModel::Unlimited;

struct Setup {
    rows: Vec<SystemRow>,
    /// Per stand-in: the balanced program, and a traditional program per
    /// distinct optimistic latency (keyed by its canonical spelling).
    programs: Vec<(CompiledProgram, BTreeMap<String, CompiledProgram>)>,
}

impl Setup {
    fn cell_programs(&self, bench: usize, row: usize) -> (&CompiledProgram, &CompiledProgram) {
        let (balanced, traditional) = &self.programs[bench];
        let key = SchedulerChoice::traditional(self.rows[row].optimistic).canonical();
        (balanced, &traditional[&key])
    }
}

fn setup() -> Result<Setup, String> {
    let p = pinned_pipeline();
    let rows = table2_rows();
    let mut programs = Vec::new();
    for bench in perfect_club() {
        let compile = |choice: &SchedulerChoice| {
            p.compile(bench.function(), choice)
                .map_err(|e| e.to_string())
        };
        let balanced = compile(&SchedulerChoice::balanced())?;
        let mut traditional = BTreeMap::new();
        for row in &rows {
            let choice = SchedulerChoice::traditional(row.optimistic);
            if let Entry::Vacant(e) = traditional.entry(choice.canonical()) {
                e.insert(compile(&choice)?);
            }
        }
        programs.push((balanced, traditional));
    }
    Ok(Setup { rows, programs })
}

/// `try_evaluate` rebuilt from the simulator, bootstrap and fan-out
/// public functions, with spans around each layer. Bit-identical to the
/// library: the same counter-split streams, folded in block order.
fn evaluate_rebuilt(
    program: &CompiledProgram,
    mem: &MemorySystem,
    cfg: &EvalConfig,
    tracer: Option<&Tracer>,
) -> Result<ProgramEval, String> {
    let block_stats =
        |i: usize, block: &bsched_ir::BasicBlock, mem: &dyn LatencyModel, parent: u32| {
            let _item = span_under(tracer, "par.item", parent);
            let block_rng = Pcg32::seed_from_u64(cfg.seed).split(i as u64);
            let stats = {
                let _s = span(tracer, "cpusim.simulate");
                try_simulate_runs_stats(
                    block,
                    mem,
                    cfg.processor,
                    cfg.issue_width,
                    cfg.runs,
                    cfg.cycle_budget,
                    &block_rng,
                )
                .map_err(|e| e.to_string())?
            };
            let _s = span(tracer, "stats.bootstrap");
            let mut boot_rng = Pcg32::seed_from_u64(cfg.seed ^ 0xB007_5742_u64).split(i as u64);
            let means = bootstrap_means(&stats.elapsed, cfg.resamples, &mut boot_rng);
            Ok::<_, String>((means, stats.mean_interlocks()))
        };
    let per_block: Vec<(Vec<f64>, f64)> = {
        let wall = span(tracer, "par.wall");
        let parent = wall.id();
        match mem.as_sync() {
            Some(sync_mem) => bsched_par::parallel_map(&program.blocks, |i, cb| {
                block_stats(i, &cb.block, sync_mem, parent)
            }),
            None => program
                .blocks
                .iter()
                .enumerate()
                .map(|(i, cb)| block_stats(i, &cb.block, mem, parent))
                .collect(),
        }
        .into_iter()
        .collect::<Result<_, _>>()?
    };
    let mut bootstrap_runtimes = vec![0.0; cfg.resamples];
    let mut mean_interlocks = 0.0;
    for (cb, (means, interlocks)) in program.blocks.iter().zip(per_block) {
        let freq = cb.block.frequency();
        for (total, m) in bootstrap_runtimes.iter_mut().zip(&means) {
            *total += m * freq;
        }
        mean_interlocks += interlocks * freq;
    }
    let mean_runtime =
        bootstrap_runtimes.iter().sum::<f64>() / bootstrap_runtimes.len().max(1) as f64;
    Ok(ProgramEval {
        bootstrap_runtimes,
        mean_runtime,
        dynamic_instructions: program.dynamic_instructions(),
        mean_interlocks,
    })
}

/// `try_run_cell_compiled` rebuilt around [`evaluate_rebuilt`].
fn cell_rebuilt(
    balanced: &CompiledProgram,
    traditional: &CompiledProgram,
    row: &SystemRow,
    tracer: Option<&Tracer>,
) -> Result<Cell, String> {
    let _root = span(tracer, "bench.cell");
    let cfg = eval_config(PROCESSOR);
    let b = evaluate_rebuilt(balanced, &row.system, &cfg, tracer)?;
    let t = evaluate_rebuilt(traditional, &row.system, &cfg, tracer)?;
    let improvement = {
        let _s = span(tracer, "stats.compare");
        compare(&t, &b)
    };
    Ok(Cell {
        improvement,
        traditional_spill_percent: traditional.spill_percent(),
        balanced_spill_percent: balanced.spill_percent(),
        traditional: t,
        balanced: b,
    })
}

/// The reference: both programs re-evaluated serially.
fn cell_reference(
    balanced: &CompiledProgram,
    traditional: &CompiledProgram,
    row: &SystemRow,
) -> Result<Cell, String> {
    let cfg = eval_config(PROCESSOR);
    let b = try_evaluate_serial(balanced, &row.system, &cfg).map_err(|e| e.to_string())?;
    let t = try_evaluate_serial(traditional, &row.system, &cfg).map_err(|e| e.to_string())?;
    Ok(Cell {
        improvement: compare(&t, &b),
        traditional_spill_percent: traditional.spill_percent(),
        balanced_spill_percent: balanced.spill_percent(),
        traditional: t,
        balanced: b,
    })
}

fn eval_bits(e: &ProgramEval) -> Vec<u64> {
    let mut v: Vec<u64> = e.bootstrap_runtimes.iter().map(|x| x.to_bits()).collect();
    v.extend([e.mean_runtime, e.dynamic_instructions, e.mean_interlocks].map(f64::to_bits));
    v
}

/// Bit-for-bit equality of two cells.
pub fn same_cell(a: &Cell, b: &Cell) -> bool {
    let scalars = |c: &Cell| {
        [
            c.improvement.mean_percent,
            c.improvement.interval.low,
            c.improvement.interval.high,
            c.improvement.interval.level,
            c.traditional_spill_percent,
            c.balanced_spill_percent,
        ]
        .map(f64::to_bits)
    };
    scalars(a) == scalars(b)
        && eval_bits(&a.balanced) == eval_bits(&b.balanced)
        && eval_bits(&a.traditional) == eval_bits(&b.traditional)
}

pub fn run(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        s = Some(setup()?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one setup");
    let threads = bsched_par::max_threads();
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x7AB1_E002);
    let tracer = traced.then(Tracer::default);
    let mut ops: Vec<(usize, usize)> = (0..s.programs.len())
        .flat_map(|b| (0..s.rows.len()).map(move |r| (b, r)))
        .collect();
    let runs = u64::from(eval_config(PROCESSOR).runs);
    let mut sim_runs = 0;
    // Each result is compared with its serial re-evaluation between
    // ops, outside the op timing. Untraced ops call the library, traced
    // ops the rebuild.
    let mut refs: BTreeMap<(usize, usize), Cell> = BTreeMap::new();
    let [plain, phase] = measure::rounds(Duration::from_secs_f64(seconds), traced, |phase, on| {
        measure::shuffle(&mut ops, &mut rng);
        let mut spent = Duration::ZERO;
        for &(b, r) in &ops {
            let (balanced, traditional) = s.cell_programs(b, r);
            let row = &s.rows[r];
            let t0 = Instant::now();
            let cell = if on {
                cell_rebuilt(balanced, traditional, row, tracer.as_ref())
            } else {
                try_run_cell_compiled(balanced, traditional, row, PROCESSOR)
                    .map_err(|e| e.to_string())
            };
            let dt = t0.elapsed();
            spent += dt;
            phase.attempted += 1;
            if on {
                sim_runs += runs * (balanced.blocks.len() + traditional.blocks.len()) as u64;
            }
            let reference = match refs.entry((b, r)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(cell_reference(balanced, traditional, row)?),
            };
            match cell {
                Ok(cell) if same_cell(&cell, reference) => {
                    phase.correct += 1;
                    phase.lat.push(dt);
                }
                Ok(_) => eprintln!(
                    "cell {}: differs from its serial re-evaluation",
                    row.label()
                ),
                Err(e) => eprintln!("cell {}: {e}", row.label()),
            }
        }
        Ok((spent, phase.lat.len()))
    })?;
    let mut outcome = Outcome::new("table", threads, setup_s);
    let Some(tracer) = tracer else {
        outcome.absorb(&plain, &plain.lat, &plain.lat);
        return Ok(outcome);
    };
    outcome.count(&plain);
    outcome.count(&phase);
    let spans = tracer.spans();
    let by = trace::totals(&spans);
    let ops = phase.correct.max(1) as f64;
    let self_us = |name: &str| by.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3) / ops;
    let total_us = |name: &str| by.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3) / ops;
    outcome.layer("cpusim.simulate_us", self_us("cpusim.simulate"), "us");
    outcome.layer("cpusim.runs", sim_runs as f64 / ops, "count");
    outcome.layer("stats.bootstrap_us", self_us("stats.bootstrap"), "us");
    outcome.layer("stats.compare_us", self_us("stats.compare"), "us");
    let (busy, wall) = (total_us("par.item"), total_us("par.wall"));
    outcome.layer("par.busy_us", busy, "us");
    outcome.layer("par.wall_us", wall, "us");
    outcome.layer("par.utilization", busy / (wall * threads as f64), "ratio");
    outcome.layer("bench.cell_us", total_us("bench.cell"), "us");
    // The layers' prediction of an op: simulation and bootstrap along
    // each fan-out on the CPUs the run may use, plus the comparison.
    let predicted = trace::predicted_ns(
        &spans,
        "par.wall",
        &["cpusim.simulate", "stats.bootstrap"],
        &["stats.compare"],
        crate::nproc(),
    );
    let attributed_ms = predicted as f64 / 1e6 / ops;
    outcome.trace_summary(&plain, &phase, attributed_ms);
    outcome.tracer = Some(tracer);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilt_cell_matches_library_and_reference() {
        let s = setup().expect("setup compiles");
        for (b, r) in [(0, 0), (3, 9), (7, 16)] {
            let (balanced, traditional) = s.cell_programs(b, r);
            let row = &s.rows[r];
            let lib = try_run_cell_compiled(balanced, traditional, row, PROCESSOR).expect("cell");
            let tracer = Tracer::default();
            let rebuilt = cell_rebuilt(balanced, traditional, row, Some(&tracer)).expect("rebuilt");
            let reference = cell_reference(balanced, traditional, row).expect("reference");
            assert!(same_cell(&lib, &rebuilt));
            assert!(same_cell(&lib, &reference));
            assert!(tracer.spans().iter().any(|s| s.name == "cpusim.simulate"));
        }
    }

    #[test]
    fn a_perturbed_cell_is_caught() {
        let s = setup().expect("setup compiles");
        let (balanced, traditional) = s.cell_programs(1, 2);
        let row = &s.rows[2];
        let mut cell = cell_reference(balanced, traditional, row).expect("reference");
        let reference = cell.clone();
        cell.balanced.bootstrap_runtimes[17] += 1e-9;
        assert!(!same_cell(&cell, &reference));
    }
}
