//! The `compile` workload: one op is `Pipeline::compile_block` on one
//! block, single-threaded, with no simulation.
//!
//! Each round compiles the 32 stand-in blocks plus [`RANDOM_PER_SIZE`]
//! seeded random blocks at each of [`RANDOM_SIZES`] instructions, under
//! the balanced scheduler and one traditional scheduler, in a seeded
//! order. The seed changes which random blocks are drawn and the order,
//! never how many blocks there are or how large.

use std::time::{Duration, Instant};

use bsched_core::{BalancedWeights, ListScheduler, Ratio, TraditionalWeights, WeightAssigner};
use bsched_dag::build_dag;
use bsched_ir::BasicBlock;
use bsched_pipeline::{CompiledBlock, Pipeline, SchedulerChoice};
use bsched_regalloc::allocate;
use bsched_stats::Pcg32;
use bsched_verify::{verify_allocation, verify_schedule};
use bsched_workload::{perfect_club, random_block, GeneratorConfig};

use crate::measure;
use crate::trace::{self, span, Tracer};
use crate::{pinned_pipeline, Outcome};

/// Instruction counts of the random blocks: one bucket per size.
pub const RANDOM_SIZES: [usize; 4] = [25, 50, 100, 200];
/// Random blocks drawn per size bucket.
pub const RANDOM_PER_SIZE: usize = 24;
/// The traditional scheduler's assumed load latency (the cache-hit time
/// of Table 2's first rows).
const TRADITIONAL_LATENCY: i64 = 2;

/// The two schedulers every block is compiled under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    Balanced,
    Traditional,
}

impl Choice {
    pub const ALL: [Choice; 2] = [Choice::Balanced, Choice::Traditional];

    pub fn library(self) -> SchedulerChoice {
        match self {
            Choice::Balanced => SchedulerChoice::balanced(),
            Choice::Traditional => {
                SchedulerChoice::traditional(Ratio::from_int(TRADITIONAL_LATENCY))
            }
        }
    }

    fn assigner(self) -> Box<dyn WeightAssigner> {
        match self {
            Choice::Balanced => Box::new(BalancedWeights::new()),
            Choice::Traditional => Box::new(TraditionalWeights::new(Ratio::from_int(
                TRADITIONAL_LATENCY,
            ))),
        }
    }
}

/// The panic message of a known library defect: `BalancedWeights`
/// computes weights in exact rationals, and on about 0.25% of
/// 200-instruction random draws (13 of 5600 measured; none at 25, 50 or
/// 100 instructions) a numerator overflows `i64`.
pub const KNOWN_OVERFLOW: &str = "ratio numerator overflow";
/// Random draws a set-up may redraw for [`KNOWN_OVERFLOW`] before the run
/// fails. At the defect's measured rate more than two in one set-up
/// (24 draws of 200 instructions) happens less than once in 20 000
/// seeds, so a change that makes the overflow more frequent fails the
/// run.
pub const MAX_OVERFLOW_REDRAWS: usize = 2;

/// Runs `f`, turning a panic into an error carrying its message.
pub fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload.as_ref()))))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Whether compiling `block` under either scheduler hits the known
/// overflow. Any other panic, and any error, does not count: such a
/// block is kept, and its ops fail in the timed window.
fn hits_known_overflow(p: &Pipeline, block: &BasicBlock) -> bool {
    Choice::ALL.iter().any(|c| {
        caught(|| {
            p.compile_block(block, &c.library())
                .map_err(|e| e.to_string())
        })
        .is_err_and(|e| e.contains(KNOWN_OVERFLOW))
    })
}

/// The workload's inputs: stand-in blocks first, then random blocks, and
/// the number of draws redrawn because they hit [`KNOWN_OVERFLOW`].
pub fn inputs(seed: u64) -> (Vec<BasicBlock>, usize) {
    let p = pinned_pipeline();
    let mut blocks: Vec<BasicBlock> = perfect_club()
        .iter()
        .flat_map(|b| b.function().blocks().to_vec())
        .collect();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut redrawn = 0;
    for size in RANDOM_SIZES {
        let cfg = GeneratorConfig {
            size,
            ..GeneratorConfig::default()
        };
        for _ in 0..RANDOM_PER_SIZE {
            // The generator may overshoot by an instruction or two;
            // redraw until the block has exactly `size`, so the seed
            // never changes the work histogram.
            let block = loop {
                let b = random_block(&cfg, &mut rng);
                if b.len() != size {
                    continue;
                }
                if !hits_known_overflow(&p, &b) {
                    break b;
                }
                redrawn += 1;
            };
            blocks.push(block);
        }
    }
    (blocks, redrawn)
}

/// Instruction-count histogram of a block set (the work a round does).
#[cfg(test)]
pub fn histogram(blocks: &[BasicBlock]) -> std::collections::BTreeMap<usize, usize> {
    let mut h = std::collections::BTreeMap::new();
    for b in blocks {
        *h.entry(b.len()).or_insert(0) += 1;
    }
    h
}

/// Every intermediate of one compile, rebuilt from the layers' public
/// functions so each can be timed and independently verified.
pub struct Rebuilt {
    pub out: CompiledBlock,
    pub edges: usize,
    ordered: BasicBlock,
    order1: Vec<bsched_ir::InstId>,
    allocated: BasicBlock,
    order2: Vec<bsched_ir::InstId>,
}

/// `Pipeline::compile_block` for the pinned pipeline (no analysis gate,
/// no validation, Belady allocation, both passes, no renaming), rebuilt
/// from `build_dag`, the weight assigners, `ListScheduler` and
/// `allocate`, with a span around each layer.
pub fn compile_rebuilt(
    p: &Pipeline,
    block: &BasicBlock,
    choice: Choice,
    tracer: Option<&Tracer>,
) -> Result<Rebuilt, String> {
    let _root = span(tracer, "pipeline.compile");
    let assigner = choice.assigner();
    let scheduler = ListScheduler::new()
        .with_direction(p.direction)
        .with_rounding(p.rounding);

    let dag1 = {
        let _s = span(tracer, "dag.build1");
        build_dag(block, p.alias)
    };
    let weights1 = {
        let _s = span(tracer, "core.weights1");
        assigner.assign(&dag1)
    };
    let (order1, ordered) = {
        let _s = span(tracer, "core.list1");
        let sched = scheduler.run_with_weights(&dag1, &weights1);
        (sched.order().to_vec(), sched.apply(block))
    };
    let (allocated, spill_count) = {
        let _s = span(tracer, "regalloc.alloc");
        let alloc = allocate(&ordered, &p.allocator).map_err(|e| e.to_string())?;
        (alloc.block.clone(), alloc.spill_count())
    };
    let dag2 = {
        let _s = span(tracer, "dag.build2");
        build_dag(&allocated, p.alias)
    };
    let weights2 = {
        let _s = span(tracer, "core.weights2");
        assigner.assign(&dag2)
    };
    let (order2, final_block) = {
        let _s = span(tracer, "core.list2");
        let sched = scheduler.run_with_weights(&dag2, &weights2);
        (sched.order().to_vec(), sched.apply(&allocated))
    };
    Ok(Rebuilt {
        edges: dag1.edge_count() + dag2.edge_count(),
        out: CompiledBlock {
            block: final_block,
            spill_count,
        },
        ordered,
        order1,
        allocated,
        order2,
    })
}

/// Checks one library output against a reference built outside the
/// timed path: the layered rebuild must agree with it exactly, and every
/// rebuilt step must pass `bsched-verify`'s independent validators.
pub fn check(
    p: &Pipeline,
    block: &BasicBlock,
    choice: Choice,
    got: &CompiledBlock,
) -> Result<(), String> {
    let r = compile_rebuilt(p, block, choice, None)?;
    verify_schedule(block, &r.order1, p.alias).map_err(|e| format!("pass 1: {e}"))?;
    verify_allocation(&r.ordered, &r.allocated, &p.allocator).map_err(|e| format!("alloc: {e}"))?;
    verify_schedule(&r.allocated, &r.order2, p.alias).map_err(|e| format!("pass 2: {e}"))?;
    if r.out.block != got.block || r.out.spill_count != got.spill_count {
        return Err(format!(
            "{}: compile_block differs from the rebuilt compile",
            block.name()
        ));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Outcome, String> {
    let p = pinned_pipeline();
    let mut setup_s = Vec::new();
    let mut drawn = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        drawn = Some(inputs(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (blocks, redrawn) = drawn.expect("at least one setup");
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x0C0F_FEE5);
    let tracer = traced.then(Tracer::default);
    let mut ops: Vec<(usize, Choice)> = (0..blocks.len())
        .flat_map(|i| Choice::ALL.map(|c| (i, c)))
        .collect();
    // The first output of each (block, scheduler); every later op must
    // equal it. Untraced ops call the library, traced ops the rebuild.
    let mut first: Vec<Option<CompiledBlock>> = vec![None; ops.len()];
    let [plain, traced_phase] =
        measure::rounds(Duration::from_secs_f64(seconds), traced, |phase, on| {
            measure::shuffle(&mut ops, &mut rng);
            let mut spent = Duration::ZERO;
            for &(i, choice) in &ops {
                let block = &blocks[i];
                let t0 = Instant::now();
                let out = caught(|| {
                    if on {
                        compile_rebuilt(&p, block, choice, tracer.as_ref()).map(|r| r.out)
                    } else {
                        p.compile_block(block, &choice.library())
                            .map_err(|e| e.to_string())
                    }
                });
                let dt = t0.elapsed();
                spent += dt;
                phase.attempted += 1;
                let slot = &mut first[i * 2 + usize::from(choice == Choice::Traditional)];
                let ok = match (out, slot.as_ref()) {
                    (Ok(out), None) => {
                        *slot = Some(out);
                        true
                    }
                    (Ok(out), Some(prev)) => {
                        out.block == prev.block && out.spill_count == prev.spill_count
                    }
                    (Err(e), _) => {
                        eprintln!("compile {}: {e}", block.name());
                        false
                    }
                };
                if ok {
                    phase.correct += 1;
                    phase.lat.push(dt);
                }
            }
            Ok((spent, phase.lat.len()))
        })?;

    // Outside the timed window: every distinct output against the
    // independent reference.
    let mut failed_checks = 0;
    for (k, out) in first.iter().enumerate() {
        let (block, choice) = (&blocks[k / 2], Choice::ALL[k % 2]);
        let Some(out) = out else { continue };
        if let Err(e) = caught(|| check(&p, block, choice, out)) {
            eprintln!("check: {e}");
            failed_checks += 1;
        }
    }

    let mut outcome = Outcome::new("compile", 1, setup_s);
    outcome.note("overflow_redraws", redrawn.to_string());
    if redrawn > 0 {
        eprintln!("layerbench: redrew {redrawn} random blocks that hit {KNOWN_OVERFLOW:?}");
    }
    if redrawn > MAX_OVERFLOW_REDRAWS {
        outcome.fail(format!(
            "{redrawn} random draws hit {KNOWN_OVERFLOW:?} (at most {MAX_OVERFLOW_REDRAWS} expected)"
        ));
    }
    outcome.fail_ops(failed_checks);
    let Some(tracer) = tracer else {
        outcome.absorb(&plain, &plain.lat, &plain.lat);
        return Ok(outcome);
    };
    outcome.count(&plain);
    outcome.count(&traced_phase);
    let spans = tracer.spans();
    let by = trace::totals(&spans);
    let ops = traced_phase.correct.max(1) as f64;
    let per_op = |name: &str| by.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3) / ops;
    let layers = [
        ("dag.build1_us", "dag.build1"),
        ("dag.build2_us", "dag.build2"),
        ("core.weights1_us", "core.weights1"),
        ("core.weights2_us", "core.weights2"),
        ("core.list1_us", "core.list1"),
        ("core.list2_us", "core.list2"),
        ("regalloc.alloc_us", "regalloc.alloc"),
        ("pipeline.unattributed_us", "pipeline.compile"),
    ];
    for (metric, name) in layers {
        outcome.layer(metric, per_op(name), "us");
    }
    let compile_us = by.get("pipeline.compile").map_or(0, |t| t.total_ns) as f64 / 1e3 / ops;
    outcome.layer("pipeline.compile_us", compile_us, "us");

    // Counts from one untraced pass over the round's distinct ops.
    let (mut edges, mut spills) = (0usize, 0usize);
    for block in &blocks {
        for choice in Choice::ALL {
            // A block that fails has already failed its ops.
            if let Ok(r) = caught(|| compile_rebuilt(&p, block, choice, None)) {
                edges += r.edges;
                spills += r.out.spill_count;
            }
        }
    }
    let distinct = (blocks.len() * 2) as f64;
    outcome.layer("dag.edges", edges as f64 / distinct, "count");
    outcome.layer("regalloc.spills", spills as f64 / distinct, "count");

    let attributed_ms = trace::attributed_ns(&spans, "pipeline.compile") as f64 / 1e6 / ops;
    outcome.trace_summary(&plain, &traced_phase, attributed_ms);
    outcome.tracer = Some(tracer);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(11), inputs(11));
        assert_ne!(inputs(11).0, inputs(12).0);
    }

    #[test]
    fn seeds_share_one_work_histogram() {
        let h = histogram(&inputs(1).0);
        for seed in [2, 3, 99] {
            assert_eq!(histogram(&inputs(seed).0), h);
        }
        let n: usize = h.values().sum();
        assert_eq!(n, 32 + RANDOM_SIZES.len() * RANDOM_PER_SIZE);
    }

    #[test]
    fn rebuilt_compile_equals_compile_block() {
        let p = pinned_pipeline();
        for block in inputs(5).0 {
            for choice in Choice::ALL {
                let lib = p
                    .compile_block(&block, &choice.library())
                    .expect("compiles");
                check(&p, &block, choice, &lib).expect("rebuild agrees and verifies");
            }
        }
    }

    #[test]
    fn only_the_known_overflow_is_redrawn() {
        let known = caught::<()>(|| panic!("{}", KNOWN_OVERFLOW));
        assert!(known.is_err_and(|e| e.contains(KNOWN_OVERFLOW)));
        let other = caught::<()>(|| panic!("index out of bounds"));
        assert!(other.is_err_and(|e| !e.contains(KNOWN_OVERFLOW)));
        // Blocks that compile are kept, and the redraw count is part of
        // the seeded inputs.
        let p = pinned_pipeline();
        let (blocks, redrawn) = inputs(5);
        assert!(blocks.iter().all(|b| !hits_known_overflow(&p, b)));
        assert!(redrawn <= MAX_OVERFLOW_REDRAWS);
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let p = pinned_pipeline();
        let block = &inputs(5).0[40];
        let mut lib = p
            .compile_block(block, &Choice::Balanced.library())
            .expect("compiles");
        lib.spill_count += 1;
        assert!(check(&p, block, Choice::Balanced, &lib).is_err());
    }
}
