//! The three streamed-scan workloads: `reach_sweep`, `reach_lossy` and
//! `cert_funnel`.
//!
//! An untraced run first computes a reference summary per engine call by
//! decomposing the scan outside the engine (the code the traced run
//! records spans in, with recording off), then times passes of fresh
//! engines until `--seconds` have elapsed, checking every streamed
//! summary against the reference. A traced run makes one engine pass at
//! the benchmark's worker count (pump statistics), one traced
//! decomposition bracketed by two single-worker passes (the untraced
//! baseline of the tracing overhead), and finally a fixed sample that
//! times the layers only reachable inside another call.

use std::time::Instant;

use quicert::analysis::Merge;
use quicert::compress::{compress_with, Algorithm};
use quicert::core::{PumpStats, ScanEngine};
use quicert::netsim::{FaultPlan, NetworkProfile};
use quicert::obs::MetricsRegistry;
use quicert::pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert::scanner::compression::{CompressionProbe, CompressionShard};
use quicert::scanner::https_scan::{ChainSummary, HttpsObservation, HttpsScanShard};
use quicert::scanner::quicreach::{self, ProbeScratch, QuicReachShard};
use quicert::tls::{messages, ServerFlight, ServerFlightParams};

use crate::inputs::world_config;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::{layer_times, Tracer};
use crate::{Outcome, Run, Workload, WORKERS};

/// The engine's default Initial size (the paper reports at 1362 bytes).
const DEFAULT_INITIAL: usize = 1362;

/// Engines each timed pass builds, every one timed as a set-up; the pass
/// scans with the last. A set-up takes about a millisecond, and the host's
/// speed wanders by a quarter over seconds, so a single set-up per pass
/// would sample a few instants of the run; several per pass cover all of it.
const SETUPS_PER_PASS: usize = 8;

/// One user-visible call into the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Call {
    /// A streamed quicreach scan at one Initial size under a fault plan.
    Reach {
        /// Client Initial size.
        initial: usize,
        /// Fault overlay (`NONE` keeps the scenario-class memo on).
        plan: FaultPlan,
    },
    /// The streamed §3.1 HTTPS scan.
    Https,
    /// The streamed compression-support scan.
    Compression,
}

/// The calls one pass of a scan workload makes, in order.
pub fn calls(workload: Workload) -> Vec<Call> {
    match workload {
        Workload::ReachSweep => [1200, 1362, 1472]
            .map(|initial| Call::Reach {
                initial,
                plan: FaultPlan::NONE,
            })
            .to_vec(),
        Workload::ReachLossy => vec![Call::Reach {
            initial: 1362,
            plan: FaultPlan::MODERATE,
        }],
        Workload::CertFunnel => vec![Call::Https, Call::Compression],
        Workload::ChurnService => Vec::new(),
    }
}

/// A streamed scan's summary.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// Of a quicreach call.
    Reach(QuicReachShard),
    /// Of the HTTPS call.
    Https(HttpsScanShard),
    /// Of the compression call.
    Compression(CompressionShard),
}

/// A fresh engine over a streaming world: what a pass sets up.
pub fn engine(config: &WorldConfig, workers: usize) -> ScanEngine {
    ScanEngine::streaming(config.clone(), DEFAULT_INITIAL, workers)
}

/// Make `call` through the engine's public `stream_*` entry point.
pub fn stream(engine: &ScanEngine, call: Call) -> Summary {
    match call {
        Call::Reach { initial, plan } if plan.is_none() => {
            Summary::Reach((*engine.stream_quicreach(initial)).clone())
        }
        Call::Reach { initial, plan } => Summary::Reach(
            (*engine.stream_quicreach_chaos(
                CertificateEra::Classical,
                NetworkProfile::Ideal,
                plan,
                initial,
            ))
            .clone(),
        ),
        Call::Https => Summary::Https((*engine.stream_https_scan()).clone()),
        Call::Compression => Summary::Compression((*engine.stream_compression_support()).clone()),
    }
}

/// Exact work counts the decomposition observes at layer boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Records derived by `World::domain_chunk_into`.
    pub derived: u64,
    /// Chains the decomposition issued itself (HTTPS and compression folds).
    pub chains: u64,
    /// DER bytes of those chains.
    pub der_bytes: u64,
    /// `ChainSummary::of` calls.
    pub summaries: u64,
    /// Records folded per family: quicreach, https, compression.
    pub folded: [u64; 3],
    /// Scenario-class memo hits (quicreach).
    pub memo_hits: u64,
    /// Scenario-class memo misses (0 when the memo is bypassed).
    pub memo_misses: u64,
    /// Handshakes simulated: the memo misses, or every QUIC service when
    /// the memo is bypassed.
    pub handshakes: u64,
    /// Client plus server retransmissions.
    pub retransmissions: u64,
    /// `ServerFlight::build` calls, each compressing one certificate
    /// message.
    pub flights: u64,
    /// TLS bytes of those flights.
    pub flight_bytes: u64,
    /// Uncompressed certificate-message bytes into those compressions.
    pub compress_in: u64,
    /// Certificate-message bytes on the wire after them.
    pub compress_out: u64,
    /// `Merge` calls.
    pub merges: u64,
}

/// Derive every chunk of `world` and fold it for `call`, merging chunk
/// summaries in rank order. Every call into a layer is wrapped in a span
/// of `tracer` (a disabled tracer makes this the untraced reference).
pub fn decompose(
    world: &World,
    call: Call,
    chunk: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Summary {
    let domains = world.config.domains;
    let mut buf: Vec<DomainRecord> = Vec::new();
    let mut scratch = ProbeScratch::with_memo(true);
    let mut total = match call {
        Call::Reach { .. } => Summary::Reach(QuicReachShard::identity()),
        Call::Https => Summary::Https(HttpsScanShard::identity()),
        Call::Compression => Summary::Compression(CompressionShard::identity()),
    };
    for first in (1..=domains).step_by(chunk.max(1)) {
        tracer.next_op();
        tracer.span("pki.derive", || {
            world.domain_chunk_into(first, chunk, &mut buf)
        });
        counts.derived += buf.len() as u64;
        let part = match call {
            Call::Reach { initial, plan } => {
                counts.folded[0] += buf.len() as u64;
                tracer.span("scanner.fold.quicreach", || {
                    Summary::Reach(quicreach::fold_records_scratch_chaos(
                        world,
                        &buf,
                        initial,
                        NetworkProfile::Ideal,
                        CertificateEra::Classical,
                        plan,
                        &mut scratch,
                    ))
                })
            }
            Call::Https => {
                counts.folded[1] += buf.len() as u64;
                Summary::Https(fold_https(world, &buf, tracer, counts))
            }
            Call::Compression => {
                counts.folded[2] += buf.len() as u64;
                Summary::Compression(fold_compression(world, &buf, tracer, counts))
            }
        };
        counts.merges += 1;
        tracer.span("analysis.merge", || match (&mut total, &part) {
            (Summary::Reach(a), Summary::Reach(b)) => a.merge(b),
            (Summary::Https(a), Summary::Https(b)) => a.merge(b),
            (Summary::Compression(a), Summary::Compression(b)) => a.merge(b),
            _ => unreachable!("a decomposition folds one family"),
        });
    }
    if let (Call::Reach { initial, .. }, Summary::Reach(shard)) = (call, &mut total) {
        // The engine stamps the Initial size the same way, so an empty
        // population still labels its bar.
        shard.classes.initial_size = initial;
        let (hits, misses, _) = scratch.memo_stats();
        counts.memo_hits += hits;
        counts.memo_misses += misses;
        counts.handshakes += if hits + misses > 0 {
            misses
        } else {
            shard.total() as u64
        };
        counts.retransmissions += shard.retransmissions();
    }
    total
}

/// The HTTPS fold of one chunk, through the public pieces of
/// `https_scan::observe`: chain issuance, `ChainSummary::of`, and the
/// shard's `push`.
pub(crate) fn fold_https(
    world: &World,
    records: &[DomainRecord],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> HttpsScanShard {
    tracer.enter("scanner.fold.https");
    let mut shard = HttpsScanShard::seeded();
    for record in records {
        let observation = match (&record.https, record.has_https()) {
            (Some(https), true) => {
                tracer.enter("pki.issue");
                let chain = world.https_chain(record);
                tracer.exit();
                chain.map(|chain| {
                    counts.chains += 1;
                    counts.der_bytes += chain.total_der_len() as u64;
                    counts.summaries += 1;
                    tracer.enter("scanner.summary");
                    let summary = ChainSummary::of(&chain, https.chain_id);
                    tracer.exit();
                    HttpsObservation {
                        rank: record.rank,
                        is_quic: record.has_quic(),
                        redirect_hops: https.redirect_hops,
                        summary,
                    }
                })
            }
            _ => None,
        };
        shard.push(record, observation.as_ref());
    }
    tracer.exit();
    shard
}

/// The compression fold of one chunk, through the public pieces of
/// `compression::probe`: chain issuance and `ServerFlight::build` per
/// supported algorithm, and the shard's `push`.
fn fold_compression(
    world: &World,
    records: &[DomainRecord],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> CompressionShard {
    tracer.enter("scanner.fold.compression");
    let mut shard = CompressionShard::identity();
    for record in records.iter().filter(|record| record.has_quic()) {
        let quic = record
            .quic
            .as_ref()
            .expect("QUIC services carry a deployment");
        tracer.enter("scanner.compression_probe");
        let row = Algorithm::ALL.map(|algorithm| {
            let supported = quic.compression_support.contains(&algorithm);
            let flight = supported.then(|| {
                tracer.enter("pki.issue");
                let chain = world.quic_chain(record).expect("QUIC services have chains");
                tracer.exit();
                counts.chains += 1;
                counts.der_bytes += chain.total_der_len() as u64;
                tracer.enter("tls.flight");
                let flight = ServerFlight::build(&ServerFlightParams {
                    chain: &chain,
                    leaf_key: quic.leaf_key,
                    compression: Some(algorithm),
                    seed: record.seed,
                });
                tracer.exit();
                counts.flights += 1;
                counts.flight_bytes += flight.total_tls_len() as u64;
                counts.compress_in += flight.uncompressed_certificate_len as u64;
                counts.compress_out += flight.certificate_message_len as u64;
                flight
            });
            CompressionProbe {
                rank: record.rank,
                algorithm,
                supported,
                ratio: flight.as_ref().map(|f| f.compression_ratio()),
                message_bytes: flight
                    .as_ref()
                    .map(|f| (f.certificate_message_len, f.uncompressed_certificate_len)),
            }
        });
        tracer.exit();
        shard.push(&row);
    }
    tracer.exit();
    shard
}

/// Output checks against the paper's bands, the same ones the
/// repository's tests hold scans to.
pub fn check_bands(call: Call, summary: &Summary, out: &mut Outcome) {
    match (call, summary) {
        (Call::Reach { initial, plan }, Summary::Reach(shard)) => {
            let c = shard.classes;
            out.check(
                c.initial_size == initial && c.reachable() > 0,
                "quicreach reached services",
            );
            if plan.is_none() && initial == 1362 {
                // Fig. 3 at the default Initial: amplification dominates,
                // then multi-RTT; Retry and 1-RTT are rare.
                out.check(
                    c.amplification > c.multi_rtt,
                    "Fig 3: amplification > multi-RTT",
                );
                out.check(
                    c.multi_rtt > 10 * c.one_rtt.max(1) / 2,
                    "Fig 3: multi-RTT > 5x 1-RTT",
                );
                out.check(c.one_rtt < c.reachable() / 20, "Fig 3: 1-RTT under 5%");
                out.check(c.retry <= c.one_rtt, "Fig 3: Retry <= 1-RTT");
            }
            if !plan.is_none() {
                out.check(
                    shard.fault_drops > 0 && shard.retransmissions() > 0,
                    "faults cause drops and retransmissions",
                );
            }
        }
        (Call::Https, Summary::Https(shard)) => {
            let total = shard.total as f64;
            let resolved = shard.resolved as f64 / total;
            out.check(
                (resolved - 0.976).abs() < 0.01,
                "§3.1: 97.6% of names resolve",
            );
            let tls = shard.tls_reachable as f64 / total;
            out.check((tls - 0.80).abs() < 0.03, "Fig 12: ~80% TLS-reachable");
            let quic_median = shard.quic_chain_der.median();
            out.check(
                (1800.0..3000.0).contains(&quic_median),
                "Fig 6: QUIC chain median 1.8-3.0 kB",
            );
        }
        (Call::Compression, Summary::Compression(shard)) => {
            for column in &shard.algorithms {
                let r = column.aggregate_ratio();
                out.check(
                    column.supported > 0 && r > 0.0 && r < 1.0,
                    "Table 1: every algorithm is supported and compresses",
                );
            }
            out.check(
                shard.all_three * 100 < shard.algorithms[0].total.max(1),
                "Table 1: all-three support is rare",
            );
        }
        _ => out.check(false, "summary family matches its call"),
    }
}

/// Domains a pass pushes through the engine: the population once per
/// Initial size for the reach workloads, once for the funnel (whose two
/// calls are two stages of one domain's scan).
fn domains_per_pass(workload: Workload, domains: usize) -> f64 {
    match workload {
        Workload::CertFunnel => domains as f64,
        _ => (domains * calls(workload).len()) as f64,
    }
}

/// Pump totals summed over the calls of one pass.
#[derive(Debug, Clone, Copy, Default)]
struct PumpTotals {
    chunks: u64,
    busy_s: f64,
    max_worker_s: f64,
    wall_s: f64,
    effective_workers: usize,
    memo_hits: u64,
    memo_misses: u64,
}

impl PumpTotals {
    fn add(&mut self, stats: &PumpStats, wall_s: f64) {
        let totals = stats.totals();
        self.chunks += totals.chunks_claimed;
        self.busy_s += totals.fold_seconds;
        self.max_worker_s += stats.max_fold_seconds();
        self.wall_s += wall_s;
        self.effective_workers = self.effective_workers.max(stats.effective_workers);
        self.memo_hits += totals.memo_hits;
        self.memo_misses += totals.memo_misses;
    }

    fn idle_s(&self) -> f64 {
        (self.effective_workers as f64 * self.wall_s - self.busy_s).max(0.0)
    }

    fn imbalance(&self) -> f64 {
        ratio(
            self.max_worker_s * self.effective_workers as f64,
            self.busy_s,
        )
    }
}

/// One engine pass: every call of the workload on one fresh engine,
/// reading the pump statistics right after each call and checking each
/// summary against `reference`. Returns the per-call wall times.
fn engine_pass(
    engine: ScanEngine,
    calls: &[Call],
    reference: &[Summary],
    pump: &mut PumpTotals,
    out: &mut Outcome,
) -> Vec<f64> {
    let domains = engine.world().config.domains as u64;
    calls
        .iter()
        .zip(reference)
        .map(|(&call, want)| {
            let started = Instant::now();
            let got = stream(&engine, call);
            let wall = started.elapsed().as_secs_f64();
            let stats = engine.pump_stats().expect("a stream call runs the pump");
            out.check(
                stats.totals().records_folded == domains,
                "the pass pumped the whole population (no cached artifact)",
            );
            out.check(&got == want, "streamed summary equals the decomposition's");
            pump.add(&stats, wall);
            wall
        })
        .collect()
}

/// Run a scan workload.
pub fn run(run: &Run) -> Outcome {
    if run.trace {
        run_traced(run)
    } else {
        run_untraced(run)
    }
}

/// The reference summary of every call, decomposed outside the engine
/// with recording off (one thread per call), each checked against the
/// paper's bands.
fn reference(run: &Run, config: &WorldConfig, calls: &[Call], out: &mut Outcome) -> Vec<Summary> {
    let world = World::streaming(config.clone());
    let summaries: Vec<Summary> = std::thread::scope(|scope| {
        let handles: Vec<_> = calls
            .iter()
            .map(|&call| {
                let world = &world;
                scope.spawn(move || {
                    let mut tracer = Tracer::disabled();
                    decompose(
                        world,
                        call,
                        run.sizes.chunk,
                        &mut tracer,
                        &mut Counts::default(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference decomposition panicked"))
            .collect()
    });
    for (&call, summary) in calls.iter().zip(&summaries) {
        check_bands(call, summary, out);
    }
    summaries
}

fn run_untraced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let config = world_config(run.workload, run.seed, &run.sizes);
    let calls = calls(run.workload);
    let reference = reference(run, &config, &calls, &mut out);

    let per_pass = domains_per_pass(run.workload, config.domains);
    let per_call_ops = run.workload != Workload::CertFunnel;
    let mut setups = Vec::new();
    let mut ops = Vec::new();
    let mut rates = Vec::new();
    let mut pump = PumpTotals::default();
    let started = Instant::now();
    while rates.len() < run.sizes.min_passes || started.elapsed().as_secs_f64() < run.seconds {
        let fresh = (0..SETUPS_PER_PASS)
            .map(|_| {
                let t = Instant::now();
                let built = engine(&config, WORKERS);
                setups.push(t.elapsed().as_secs_f64());
                built
            })
            .last()
            .expect("a pass builds at least one engine");
        let walls = engine_pass(fresh, &calls, &reference, &mut pump, &mut out);
        let pass_s: f64 = walls.iter().sum();
        if per_call_ops {
            ops.extend(walls.iter().map(|s| s * 1e3));
        } else {
            ops.push(pass_s * 1e3);
        }
        rates.push(per_pass / pass_s);
    }
    out.set("domains_per_s", median(&rates));
    out.set("op_p50_ms", quantile(&ops, 0.5));
    out.set("op_p90_ms", quantile(&ops, 0.9));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", median(&setups));
    out.notes.push(format!(
        "passes {} (ops {}, setups {}), pump: {} effective workers, idle {:.3} s of {:.3} s wall, \
         imbalance {:.3}, memo hit ratio {:.4} ({WORKERS}-worker split, ratio only)",
        rates.len(),
        ops.len(),
        setups.len(),
        pump.effective_workers,
        pump.idle_s(),
        pump.wall_s,
        pump.imbalance(),
        ratio(
            pump.memo_hits as f64,
            (pump.memo_hits + pump.memo_misses) as f64
        ),
    ));
    out
}

/// Reads a process-wide counter of the library's global registry.
fn global_counter(name: &str) -> u64 {
    MetricsRegistry::global().counter(name, "").get()
}

/// The library's process-wide netsim and pki counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalCounters {
    events: u64,
    timer_fires: u64,
    drops: u64,
    chain_len_hits: u64,
}

impl GlobalCounters {
    /// Read them now.
    pub fn read() -> GlobalCounters {
        GlobalCounters {
            events: global_counter("quicert_netsim_events_total"),
            timer_fires: global_counter("quicert_netsim_timer_fires_total"),
            drops: global_counter("quicert_netsim_fault_drops_total"),
            chain_len_hits: global_counter("quicert_pki_chain_len_cache_hits_total"),
        }
    }

    /// What changed since `before`.
    pub fn since(&self, before: &GlobalCounters) -> GlobalCounters {
        GlobalCounters {
            events: self.events - before.events,
            timer_fires: self.timer_fires - before.timer_fires,
            drops: self.drops - before.drops,
            chain_len_hits: self.chain_len_hits - before.chain_len_hits,
        }
    }

    /// Both sets of counts added up.
    pub fn plus(&self, other: &GlobalCounters) -> GlobalCounters {
        GlobalCounters {
            events: self.events + other.events,
            timer_fires: self.timer_fires + other.timer_fires,
            drops: self.drops + other.drops,
            chain_len_hits: self.chain_len_hits + other.chain_len_hits,
        }
    }
}

/// Up to `n` QUIC services spread evenly over `world`'s ranks: the fixed
/// sample that times layers nested inside another call.
pub fn quic_sample(world: &World, n: usize) -> Vec<DomainRecord> {
    let domains = world.config.domains;
    // QUIC runs on about a fifth of the population.
    let stride = (domains / (5 * n.max(1))).max(1);
    (1..=domains)
        .step_by(stride)
        .map(|rank| world.domain_at(rank))
        .filter(|record| record.has_quic())
        .take(n)
        .collect()
}

/// Bytes the fixed sample processed, for per-byte rates and per-chain
/// sizes of the nested layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    /// Input bytes of the sampled compressions.
    pub compress_in: u64,
    /// Chains issued by the sampled quicreach probes.
    pub chains: u64,
    /// DER bytes of those chains.
    pub chain_der: u64,
}

/// Time the nested layers on the fixed sample. Spans are named with a
/// `sample.` prefix so they never mix with the decomposition's.
pub(crate) fn run_samples(
    world: &World,
    calls: &[Call],
    sample: &[DomainRecord],
    tracer: &mut Tracer,
) -> Sampled {
    let mut sampled = Sampled::default();
    for &call in calls {
        for record in sample {
            tracer.next_op();
            match call {
                Call::Reach { initial, plan } => {
                    let chain = tracer.span("sample.pki.issue", || {
                        world.quic_chain_era(record, CertificateEra::Classical)
                    });
                    sampled.chains += 1;
                    sampled.chain_der += chain.map_or(0, |c| c.total_der_len() as u64);
                    tracer.span("sample.quic.handshake", || {
                        quicreach::scan_records_chaos(
                            world,
                            &[record],
                            initial,
                            NetworkProfile::Ideal,
                            CertificateEra::Classical,
                            plan,
                        )
                    });
                }
                Call::Https => {}
                Call::Compression => {
                    let quic = record
                        .quic
                        .as_ref()
                        .expect("QUIC services carry a deployment");
                    let chain = world.quic_chain(record).expect("QUIC services have chains");
                    let message = messages::certificate_message(&chain);
                    for &algorithm in &quic.compression_support {
                        tracer.span("sample.compress", || compress_with(algorithm, &message));
                        sampled.compress_in += message.len() as u64;
                    }
                }
            }
        }
    }
    sampled
}

fn run_traced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let config = world_config(run.workload, run.seed, &run.sizes);
    let calls = calls(run.workload);
    let reference = reference(run, &config, &calls, &mut out);

    // Pump statistics at the benchmark's worker count, then the untraced
    // wall time the traced decomposition is compared against: one worker
    // claiming the decomposition's fixed chunks, timed before and after
    // the traced pass so drift of the host's speed cancels.
    let mut pump = PumpTotals::default();
    engine_pass(
        engine(&config, WORKERS),
        &calls,
        &reference,
        &mut pump,
        &mut out,
    );
    // How many chunks two workers claim depends on how their adaptive
    // claims interleave; one worker makes the same claims every run.
    let mut claims = PumpTotals::default();
    engine_pass(
        engine(&config, 1),
        &calls,
        &reference,
        &mut claims,
        &mut out,
    );
    let mut single = PumpTotals::default();
    let untraced_pass = |single: &mut PumpTotals, out: &mut Outcome| -> f64 {
        let baseline = engine(&config, 1).with_stream_chunk(run.sizes.chunk);
        engine_pass(baseline, &calls, &reference, single, out)
            .iter()
            .sum()
    };
    let untraced_before = untraced_pass(&mut single, &mut out);

    let world = World::streaming(config.clone());
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let before = GlobalCounters::read();
    let started = Instant::now();
    for (&call, want) in calls.iter().zip(&reference) {
        let got = decompose(&world, call, run.sizes.chunk, &mut tracer, &mut counts);
        out.check(&got == want, "traced decomposition equals the reference");
    }
    let traced_s = started.elapsed().as_secs_f64();
    let global = GlobalCounters::read().since(&before);
    out.check(
        (single.memo_hits, single.memo_misses) == (counts.memo_hits, counts.memo_misses),
        "single-worker memo counts are exact: the engine's equal the decomposition's",
    );
    let untraced_s = (untraced_before + untraced_pass(&mut single, &mut out)) / 2.0;
    let sample = quic_sample(&world, run.sizes.sample);
    let sampled = run_samples(&world, &calls, &sample, &mut tracer);

    report_layers(&mut out, &tracer, &counts, &global, &sampled);
    out.check(
        counts.derived == (config.domains * calls.len()) as u64,
        "derivation covered the population once per call",
    );
    out.set("core.pump.chunks", claims.chunks as f64);
    out.set("core.pump.busy_s", pump.busy_s);
    out.set("core.pump.max_worker_s", pump.max_worker_s);
    out.set("core.pump.idle_s", pump.idle_s());
    out.set("core.pump.imbalance", pump.imbalance());
    out.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    for name in [
        "core.service.advance_s",
        "core.service.snapshot_s",
        "core.service.refold_s",
        "core.service.dirty_segments",
        "core.service.probed",
        "core.service.probe_ratio",
        "churn.events.count",
        "churn.events.busy_s",
    ] {
        out.set(name, 0.0);
    }
    crate::save_spans(run, &tracer, &mut out);
    out
}

/// Turn the decomposition's spans, counts and the sampled nested-layer
/// costs into the per-layer metrics. A layer's busy time is its spans'
/// self time; where a layer runs nested inside another call, its busy
/// time is its exact call count times its sampled per-call cost, and that
/// estimate is taken out of the enclosing layer's self time.
pub(crate) fn report_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    counts: &Counts,
    global: &GlobalCounters,
    sampled: &Sampled,
) {
    let layers = layer_times(tracer.spans());
    let busy = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    for (name, layer) in &layers {
        out.check(
            layer.self_s <= layer.span_s + 1e-9,
            "a layer's self time is at most its span time",
        );
        out.notes.push(format!(
            "layer {name:<28} spans {:>9}  span {:>10.6} s  self {:>10.6} s",
            layer.calls, layer.span_s, layer.self_s
        ));
    }

    let sampled_mean = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| ratio(l.self_s, l.calls as f64))
    };
    // Nested in the quicreach fold: one issuance and one simulated
    // handshake per memo miss (per QUIC service when the memo is bypassed).
    let issue_each = sampled_mean("sample.pki.issue");
    let handshake_each = (sampled_mean("sample.quic.handshake") - issue_each).max(0.0);
    let nested_issue = counts.handshakes as f64 * issue_each;
    let nested_handshake = counts.handshakes as f64 * handshake_each;
    // Nested in ServerFlight::build: one compression per flight.
    let nested_compress = counts.flights as f64 * sampled_mean("sample.compress");
    let sample_layer = layers.get("sample.compress").copied().unwrap_or_default();

    out.set("pki.derive.records", counts.derived as f64);
    out.set("pki.derive.busy_s", busy("pki.derive"));
    out.set(
        "pki.issue.chains",
        (counts.chains + counts.handshakes) as f64,
    );
    out.set("pki.issue.busy_s", busy("pki.issue") + nested_issue);
    let nested_der =
        counts.handshakes as f64 * ratio(sampled.chain_der as f64, sampled.chains as f64);
    out.set("pki.issue.der_bytes", counts.der_bytes as f64 + nested_der);
    out.set(
        "pki.chain_len.hit_ratio",
        ratio(global.chain_len_hits as f64, counts.folded[0] as f64),
    );
    out.set("scanner.summary.calls", counts.summaries as f64);
    out.set("scanner.summary.busy_s", busy("scanner.summary"));
    out.set("scanner.fold.quicreach.records", counts.folded[0] as f64);
    out.set(
        "scanner.fold.quicreach.busy_s",
        (busy("scanner.fold.quicreach") - nested_issue - nested_handshake).max(0.0),
    );
    out.set("scanner.fold.https.records", counts.folded[1] as f64);
    out.set("scanner.fold.https.busy_s", busy("scanner.fold.https"));
    out.set("scanner.fold.compression.records", counts.folded[2] as f64);
    out.set(
        "scanner.fold.compression.busy_s",
        busy("scanner.fold.compression"),
    );
    out.set("scanner.memo.hits", counts.memo_hits as f64);
    out.set("scanner.memo.misses", counts.memo_misses as f64);
    out.set(
        "scanner.memo.hit_ratio",
        ratio(
            counts.memo_hits as f64,
            (counts.memo_hits + counts.memo_misses) as f64,
        ),
    );
    out.set(
        "scanner.compression_probe.busy_s",
        busy("scanner.compression_probe"),
    );
    out.set("tls.flight.builds", counts.flights as f64);
    out.set(
        "tls.flight.busy_s",
        (busy("tls.flight") - nested_compress).max(0.0),
    );
    out.set("tls.flight.bytes", counts.flight_bytes as f64);
    out.set("compress.calls", counts.flights as f64);
    out.set("compress.busy_s", nested_compress);
    out.set("compress.bytes_in", counts.compress_in as f64);
    out.set("compress.bytes_out", counts.compress_out as f64);
    out.set(
        "compress.mb_per_s",
        ratio(sampled.compress_in as f64 / 1e6, sample_layer.self_s),
    );
    out.set("quic.handshake.count", counts.handshakes as f64);
    out.set("quic.handshake.busy_s", nested_handshake);
    out.set(
        "quic.handshake.retransmissions",
        counts.retransmissions as f64,
    );
    out.set("netsim.events", global.events as f64);
    out.set("netsim.timer_fires", global.timer_fires as f64);
    out.set("netsim.drops", global.drops as f64);
    out.set(
        "netsim.events_per_handshake",
        ratio(global.events as f64, counts.handshakes as f64),
    );
    out.set("analysis.merge.count", counts.merges as f64);
    out.set("analysis.merge.busy_s", busy("analysis.merge"));
}
