//! SPARQL evaluator benchmarks over the generated dataset: the BGP joins and
//! initialization page shapes of [`SPARQL_EXEC_CASES`].

use criterion::{criterion_group, criterion_main, Criterion};
use sapphire_bench::SPARQL_EXEC_CASES;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_sparql::{evaluate_select, parse_select, WorkBudget};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let graph = generate(DatasetConfig::small(42));
    let mut group = c.benchmark_group("sparql_exec");
    group.sample_size(20);
    for &(name, query) in SPARQL_EXEC_CASES {
        let parsed = parse_select(query).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    evaluate_select(&graph, black_box(&parsed), &mut WorkBudget::unlimited())
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
