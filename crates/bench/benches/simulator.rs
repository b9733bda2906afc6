//! Throughput of the instruction-level simulator and the full §4.3
//! measurement protocol.
//!
//! These benches size the cost of regenerating the paper's tables: one
//! `simulate_block` call per (block, run), 30 runs per block (the
//! `try_simulate_runs_stats` batch the evaluation runs on), bootstrap on
//! top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bsched_cpusim::{simulate_block, simulate_runs, try_simulate_runs_stats, ProcessorModel};
use bsched_memsim::{CacheModel, MemorySystem, NetworkModel};
use bsched_pipeline::{evaluate, EvalConfig, Pipeline, SchedulerChoice};
use bsched_stats::Pcg32;
use bsched_workload::{perfect, random_block, GeneratorConfig};

fn bench_single_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate-block");
    for size in [50usize, 200] {
        let cfg = GeneratorConfig {
            size,
            ..GeneratorConfig::default()
        };
        let block = random_block(&cfg, &mut Pcg32::seed_from_u64(7));
        group.throughput(Throughput::Elements(size as u64));
        for (name, model) in [
            ("unlimited", ProcessorModel::Unlimited),
            ("max8", ProcessorModel::max_8()),
            ("len8", ProcessorModel::len_8()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, size), &block, |b, block| {
                let mem = CacheModel::l80_10();
                let mut rng = Pcg32::seed_from_u64(1);
                b.iter(|| black_box(simulate_block(black_box(block), &mem, model, &mut rng)));
            });
        }
    }
    group.finish();
}

fn bench_thirty_runs(c: &mut Criterion) {
    let cfg = GeneratorConfig {
        size: 100,
        ..GeneratorConfig::default()
    };
    let block = random_block(&cfg, &mut Pcg32::seed_from_u64(11));
    let mem: MemorySystem = NetworkModel::new(3.0, 5.0).into();
    c.bench_function("simulate-30-runs", |b| {
        let rng = Pcg32::seed_from_u64(2);
        b.iter(|| {
            black_box(simulate_runs(
                &block,
                &mem,
                ProcessorModel::Unlimited,
                30,
                &rng,
            ))
        });
    });
}

/// The §4.3 simulation kernel on its own: one 30-run guarded batch over
/// the largest block of the MDG stand-in, as `evaluate()` runs it per
/// block.
fn bench_stand_in_batch(c: &mut Criterion) {
    let compiled = Pipeline::default()
        .compile(perfect::mdg().function(), &SchedulerChoice::balanced())
        .unwrap();
    let block = compiled
        .blocks
        .iter()
        .map(|cb| &cb.block)
        .max_by_key(|b| b.len())
        .expect("MDG has blocks");
    let mem: MemorySystem = NetworkModel::new(2.0, 5.0).into();
    let rng = Pcg32::seed_from_u64(3);
    let mut group = c.benchmark_group("try-simulate-runs-stats-30");
    group.throughput(Throughput::Elements(30 * block.len() as u64));
    group.bench_with_input(BenchmarkId::new("mdg", block.len()), block, |b, block| {
        b.iter(|| {
            black_box(try_simulate_runs_stats(
                black_box(block),
                &mem,
                ProcessorModel::Unlimited,
                1,
                30,
                None,
                &rng,
            ))
        });
    });
    group.finish();
}

fn bench_full_protocol(c: &mut Criterion) {
    // One full Table 2 cell: compile MDG with both schedulers and run the
    // bootstrap comparison.
    let bench = perfect::mdg();
    let pipeline = Pipeline::default();
    let compiled = pipeline
        .compile(bench.function(), &SchedulerChoice::balanced())
        .unwrap();
    let mem: MemorySystem = NetworkModel::new(2.0, 5.0).into();
    c.bench_function("evaluate-mdg", |b| {
        let cfg = EvalConfig::default();
        b.iter(|| black_box(evaluate(&compiled, &mem, &cfg)));
    });
    c.bench_function("compile-mdg-balanced", |b| {
        b.iter(|| black_box(pipeline.compile(bench.function(), &SchedulerChoice::balanced())));
    });
}

fn bench_register_allocation(c: &mut Criterion) {
    use bsched_regalloc::{allocate, allocate_usage_count, AllocatorConfig};
    let cfg = GeneratorConfig {
        size: 150,
        load_fraction: 0.35,
        ..GeneratorConfig::default()
    };
    let block = random_block(&cfg, &mut Pcg32::seed_from_u64(21));
    let alloc_cfg = AllocatorConfig::mips_default();
    c.bench_function("regalloc-belady-150", |b| {
        b.iter(|| black_box(allocate(&block, &alloc_cfg).expect("allocates")));
    });
    c.bench_function("regalloc-usage-count-150", |b| {
        b.iter(|| black_box(allocate_usage_count(&block, &alloc_cfg).expect("allocates")));
    });
}

fn bench_bootstrap(c: &mut Criterion) {
    use bsched_stats::{bootstrap_means, paired_improvement};
    let mut rng = Pcg32::seed_from_u64(5);
    let samples: Vec<f64> = (0..30)
        .map(|_| 1000.0 + rng.next_standard_normal() * 25.0)
        .collect();
    c.bench_function("bootstrap-30x100", |b| {
        b.iter(|| black_box(bootstrap_means(&samples, 100, &mut rng)));
    });
    let t = bootstrap_means(&samples, 100, &mut rng);
    let bal: Vec<f64> = t.iter().map(|x| x * 0.9).collect();
    c.bench_function("paired-improvement-100", |b| {
        b.iter(|| black_box(paired_improvement(&t, &bal)));
    });
}

criterion_group!(
    benches,
    bench_single_run,
    bench_thirty_runs,
    bench_stand_in_batch,
    bench_full_protocol,
    bench_register_allocation,
    bench_bootstrap
);
criterion_main!(benches);
