//! End-to-end and per-layer benchmark of the quicert scan engine and the
//! resident campaign service.
//!
//! One invocation runs one workload from a seed for a fixed time and
//! ends its standard output with a single JSON result line. Untraced runs
//! (`--trace 0`) report the end-to-end metrics of [`END_TO_END`]; traced
//! runs (`--trace 1`) drive the same work chunk by chunk through the
//! library's public functions, record a span around every call into a
//! layer, and report the per-layer metrics of [`PER_LAYER`]. The design —
//! why each workload exists and which layer metric should move which
//! end-to-end metric — is recorded in `README.md` beside this crate.

mod churn;
pub mod inputs;
mod scans;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// Scan worker threads of every untraced run (the reference host has 2 CPUs).
pub const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `stream_quicreach` at the three Fig. 3 Initial sizes, memo on.
    ReachSweep,
    /// `stream_quicreach_chaos` under `FaultPlan::MODERATE` (memo bypassed).
    ReachLossy,
    /// `stream_https_scan` then `stream_compression_support`.
    CertFunnel,
    /// `CampaignService` delta snapshots over a churn timeline.
    ChurnService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReachSweep,
        Workload::ReachLossy,
        Workload::CertFunnel,
        Workload::ChurnService,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReachSweep => "reach_sweep",
            Workload::ReachLossy => "reach_lossy",
            Workload::CertFunnel => "cert_funnel",
            Workload::ChurnService => "churn_service",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. What "domains" and "op" mean per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("domains_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs of every
/// workload (0 where a workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pki.derive.records", "count"),
    ("pki.derive.busy_s", "s"),
    ("pki.issue.chains", "count"),
    ("pki.issue.busy_s", "s"),
    ("pki.issue.der_bytes", "bytes"),
    ("pki.chain_len.hit_ratio", "ratio"),
    ("scanner.summary.calls", "count"),
    ("scanner.summary.busy_s", "s"),
    ("scanner.fold.quicreach.records", "count"),
    ("scanner.fold.quicreach.busy_s", "s"),
    ("scanner.fold.https.records", "count"),
    ("scanner.fold.https.busy_s", "s"),
    ("scanner.fold.compression.records", "count"),
    ("scanner.fold.compression.busy_s", "s"),
    ("scanner.memo.hits", "count"),
    ("scanner.memo.misses", "count"),
    ("scanner.memo.hit_ratio", "ratio"),
    ("scanner.compression_probe.busy_s", "s"),
    ("tls.flight.builds", "count"),
    ("tls.flight.busy_s", "s"),
    ("tls.flight.bytes", "bytes"),
    ("compress.calls", "count"),
    ("compress.busy_s", "s"),
    ("compress.bytes_in", "bytes"),
    ("compress.bytes_out", "bytes"),
    ("compress.mb_per_s", "MB/s"),
    ("quic.handshake.count", "count"),
    ("quic.handshake.busy_s", "s"),
    ("quic.handshake.retransmissions", "count"),
    ("netsim.events", "count"),
    ("netsim.timer_fires", "count"),
    ("netsim.drops", "count"),
    ("netsim.events_per_handshake", "ratio"),
    ("analysis.merge.count", "count"),
    ("analysis.merge.busy_s", "s"),
    ("core.pump.chunks", "count"),
    ("core.pump.busy_s", "s"),
    ("core.pump.max_worker_s", "s"),
    ("core.pump.idle_s", "s"),
    ("core.pump.imbalance", "ratio"),
    ("core.service.advance_s", "s"),
    ("core.service.snapshot_s", "s"),
    ("core.service.refold_s", "s"),
    ("core.service.dirty_segments", "count"),
    ("core.service.probed", "count"),
    ("core.service.probe_ratio", "ratio"),
    ("churn.events.count", "count"),
    ("churn.events.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Populations and repetition counts. [`Sizes::standard`] is what the
/// benchmark measures; [`Sizes::tiny`] keeps the crate's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Domains of `reach_sweep`.
    pub reach_domains: usize,
    /// Domains of `reach_lossy`.
    pub lossy_domains: usize,
    /// Domains of `cert_funnel`.
    pub funnel_domains: usize,
    /// Domains of `churn_service`.
    pub churn_domains: usize,
    /// Ranks per service segment.
    pub churn_segment: usize,
    /// Last tick each service episode requests.
    pub churn_ticks: u64,
    /// Tick of the era migration.
    pub churn_migration_tick: u64,
    /// Fewest timed passes (or service episodes) an untraced run makes,
    /// however short `--seconds` is.
    pub min_passes: usize,
    /// Fewest service bring-ups an untraced `churn_service` run times.
    pub min_setups: usize,
    /// Records in the fixed sample that times layers only reachable
    /// inside another call.
    pub sample: usize,
    /// Records per chunk of the traced decomposition.
    pub chunk: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn standard() -> Sizes {
        Sizes {
            reach_domains: 200_000,
            lossy_domains: 60_000,
            funnel_domains: 20_000,
            churn_domains: 20_000,
            churn_segment: 64,
            churn_ticks: 100,
            churn_migration_tick: 50,
            min_passes: 3,
            min_setups: 5,
            sample: 1024,
            chunk: 1024,
        }
    }

    /// A configuration small enough for unit tests.
    pub fn tiny() -> Sizes {
        Sizes {
            reach_domains: 1_500,
            lossy_domains: 800,
            funnel_domains: 600,
            churn_domains: 1_000,
            churn_segment: 64,
            churn_ticks: 6,
            churn_migration_tick: 3,
            min_passes: 1,
            min_setups: 2,
            sample: 8,
            chunk: 256,
        }
    }

    /// The population a workload scans.
    pub fn domains(&self, workload: Workload) -> usize {
        match workload {
            Workload::ReachSweep => self.reach_domains,
            Workload::ReachLossy => self.lossy_domains,
            Workload::CertFunnel => self.funnel_domains,
            Workload::ChurnService => self.churn_domains,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the timed loop runs, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Populations and repetition counts.
    pub sizes: Sizes,
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Failed checks ÷ attempted checks.
    pub fn failed_ratio(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The metric list a run of this kind must report.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Names of expected metrics this outcome lacks.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        Outcome::expected(trace)
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.metrics.contains_key(name))
            .collect()
    }

    /// The final result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics being
    /// the expected list for the run's kind.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Outcome::expected(trace)
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0 && self.missing(trace).is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Environment variable naming the directory traced runs write their
/// spans to; spans stay in memory only when it is unset.
pub const TRACE_DIR_ENV: &str = "QUICERT_BENCH_TRACE_DIR";

/// Write a traced run's spans to `$QUICERT_BENCH_TRACE_DIR`, one file per
/// workload and seed, and note where they went.
pub fn save_spans(run: &Run, tracer: &trace::Tracer, out: &mut Outcome) {
    let Some(dir) = std::env::var_os(TRACE_DIR_ENV) else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!(
        "{}-seed{}.spans.tsv",
        run.workload.name(),
        run.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    out.notes.push(match written {
        Ok(()) => format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans: could not write {}: {e}", path.display()),
    });
}

/// Run one benchmark invocation.
pub fn run(run: &Run) -> Outcome {
    match run.workload {
        Workload::ChurnService => churn::run(run),
        _ => scans::run(run),
    }
}
