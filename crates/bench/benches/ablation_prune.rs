//! Ablation: each Shared pruning rule toggled independently (DESIGN.md
//! §6), the build's fifth (family) rule on top of the paper's four, plus
//! Cubing's modernized in-memory variant — quantifies how much each §5
//! optimization contributes.

use criterion::{criterion_group, criterion_main, Criterion};
use flowcube_bench::experiments::{base_config, paper_path_spec};
use flowcube_datagen::generate;
use flowcube_mining::{mine, mine_cubing, CubingConfig, CubingIo, SharedConfig, TransactionDb};
use flowcube_pathdb::MergePolicy;

fn bench(c: &mut Criterion) {
    let n = 1_000usize;
    let generated = generate(&base_config(n));
    let spec = paper_path_spec(generated.db.schema());
    let tx = TransactionDb::encode(&generated.db, spec, MergePolicy::Sum);
    let delta = (n as f64 * 0.01).ceil() as u64;
    let mut group = c.benchmark_group("ablation_prune");
    group.sample_size(10);

    let variants: Vec<(&str, SharedConfig)> = vec![
        ("all-prunes", SharedConfig::shared(delta)),
        ("family(rule 5)", SharedConfig::cube_family(delta)),
        ("no-precount", {
            let mut cfg = SharedConfig::shared(delta);
            cfg.precount = false;
            cfg
        }),
        ("no-unlinkable", {
            let mut cfg = SharedConfig::shared(delta);
            cfg.prune_unlinkable = false;
            cfg
        }),
        ("no-ancestor", {
            let mut cfg = SharedConfig::shared(delta);
            cfg.prune_ancestor_pairs = false;
            cfg
        }),
        ("none(basic)", SharedConfig::basic(delta)),
        ("lookahead", SharedConfig::shared_ahead(delta)),
    ];
    for (name, cfg) in variants {
        group.bench_function(name, |b| b.iter(|| mine(&tx, &cfg)));
    }

    group.bench_function("cubing-spill-plain(paper)", |b| {
        b.iter(|| mine_cubing(&generated.db, &tx, &CubingConfig::new(delta)))
    });
    group.bench_function("cubing-mem-pruned(modern)", |b| {
        b.iter(|| mine_cubing(&generated.db, &tx, &CubingConfig::pruned_in_memory(delta)))
    });
    group.bench_function("cubing-mem-plain", |b| {
        b.iter(|| {
            mine_cubing(
                &generated.db,
                &tx,
                &CubingConfig {
                    min_support: delta,
                    local_pruning: false,
                    io: CubingIo::InMemory,
                    threads: 0,
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
