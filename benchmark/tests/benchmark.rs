//! Tests of the benchmark's own code: span arithmetic, seeded inputs,
//! metric naming, and that every named metric reaches the output.

use quicert_benchmark::inputs::{service_config, world_config};
use quicert_benchmark::stats::{median, quantile};
use quicert_benchmark::trace::{layer_times, self_times_ns, Span, Tracer};
use quicert_benchmark::{run, Outcome, Run, Sizes, Workload, END_TO_END, PER_LAYER};

use quicert::churn::Timeline;
use quicert::pki::World;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: the covered part counts once.
        span("b", 20, 50, Some(0)),
        // A grandchild only reduces its own parent.
        span("c", 25, 45, Some(2)),
        // Sticks out past its parent: only the inside part is covered.
        span("d", 90, 120, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 10, 20, 30]);

    let layers = layer_times(&spans);
    let root = layers["root"];
    assert_eq!(root.calls, 1);
    assert!((root.span_s - 100e-9).abs() < 1e-15);
    assert!((root.self_s - 50e-9).abs() < 1e-15);
    for layer in layers.values() {
        assert!(layer.self_s <= layer.span_s);
    }
}

#[test]
fn layer_times_sum_repeated_spans_of_one_name() {
    let spans = [
        span("fold", 0, 10, None),
        span("issue", 2, 6, Some(0)),
        span("fold", 20, 40, None),
        span("issue", 25, 30, Some(2)),
        span("issue", 30, 35, Some(2)),
    ];
    let layers = layer_times(&spans);
    assert_eq!(layers["fold"].calls, 2);
    assert_eq!(layers["issue"].calls, 3);
    assert!((layers["fold"].self_s - (6e-9 + 10e-9)).abs() < 1e-15);
    assert!((layers["issue"].self_s - 14e-9).abs() < 1e-15);
}

#[test]
fn tracer_links_nested_spans_and_a_disabled_one_records_nothing() {
    let mut tracer = Tracer::new();
    tracer.next_op();
    tracer.enter("outer");
    let value = tracer.span("inner", || 7);
    tracer.exit();
    assert_eq!(value, 7);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans.iter().all(|s| s.op == 1));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let mut written = Vec::new();
    tracer.write(&mut written).unwrap();
    assert_eq!(String::from_utf8(written).unwrap().lines().count(), 3);

    let mut off = Tracer::disabled();
    off.enter("outer");
    off.span("inner", || ());
    off.exit();
    assert!(off.spans().is_empty());
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

/// Ranks, names and seeds of the first records a config derives.
fn fingerprint(seed: u64, workload: Workload) -> Vec<(usize, String, u64)> {
    let world = World::streaming(world_config(workload, seed, &Sizes::tiny()));
    world
        .domain_chunk(1, 64)
        .into_iter()
        .map(|r| (r.rank, r.name, r.seed))
        .collect()
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let sizes = Sizes::tiny();
    for workload in Workload::ALL {
        assert_eq!(fingerprint(7, workload), fingerprint(7, workload));
        assert_ne!(fingerprint(7, workload), fingerprint(8, workload));
        assert_eq!(
            world_config(workload, 7, &sizes).domains,
            sizes.domains(workload)
        );
    }
    let timeline = |seed, episode| Timeline::new(service_config(seed, episode, &sizes, 1).churn);
    let differ = |a: &Timeline, b: &Timeline| {
        (1..=sizes.churn_ticks).any(|t| a.events_at(t) != b.events_at(t))
    };
    assert!(!differ(&timeline(7, 0), &timeline(7, 0)));
    assert!(differ(&timeline(7, 0), &timeline(8, 0)));
    assert!(differ(&timeline(7, 0), &timeline(7, 1)));
}

/// Metric names of one array of `BENCHMARK.json`, in file order.
fn benchmark_json_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_unique_and_match_benchmark_json() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    for name in &all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad metric name {name:?}"
        );
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names repeat");

    let names =
        |list: &[(&str, &str)]| list.iter().map(|&(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(benchmark_json_names("end_to_end"), names(END_TO_END));
    assert_eq!(benchmark_json_names("per_layer"), names(PER_LAYER));
    assert_eq!(
        benchmark_json_names("workloads"),
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
}

#[test]
fn every_named_metric_appears_in_the_output() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&Run {
                workload,
                seed: 3,
                seconds: 0.01,
                trace,
                sizes: Sizes::tiny(),
            });
            let missing = outcome.missing(trace);
            assert!(
                missing.is_empty(),
                "{workload:?} trace={trace}: missing {missing:?}"
            );
            assert!(outcome.attempted > 0);
            assert_eq!(
                outcome.failed, 0,
                "{workload:?} trace={trace}: {:?}",
                outcome.notes
            );
            let line = outcome.result_line(trace);
            assert!(line.starts_with("{\"correct\": "), "{line}");
            for &(name, unit) in Outcome::expected(trace) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload:?}: {name} not in {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for &(name, _) in END_TO_END {
                    assert!(outcome.metrics[name] > 0.0, "{workload:?}: {name} is 0");
                }
            }
        }
    }
}
