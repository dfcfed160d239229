//! The `churn_service` workload: one caller in a closed loop against a
//! resident [`CampaignService`].
//!
//! Each episode builds a service, brings it up with the tick-0 full fold,
//! then for every tick writes the churn (`advance_to`) and reads the
//! delta snapshot (`snapshot_at`), one request after another; one tick
//! carries an era migration that re-folds every segment. The traced run
//! additionally replays the timeline outside the service — replica churn
//! state, the same segment folds, a merge of every segment summary per
//! tick — with a span around every call into a layer, and checks the
//! replica's snapshot and dirty-segment count against the service's.

use std::time::Instant;

use quicert::analysis::Merge;
use quicert::churn::{ChurnState, Timeline};
use quicert::core::{CampaignService, ServiceConfig};
use quicert::netsim::FaultPlan;
use quicert::pki::World;
use quicert::scanner::https_scan::HttpsScanShard;
use quicert::scanner::quicreach::{self, ProbeScratch, QuicReachShard};

use crate::inputs::service_config;
use crate::scans::{
    check_bands, fold_https, quic_sample, report_layers, run_samples, Call, Counts, GlobalCounters,
    Summary,
};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::{layer_times, Tracer};
use crate::{Outcome, Run, WORKERS};

/// Run the churn workload.
pub fn run(run: &Run) -> Outcome {
    if run.trace {
        run_traced(run)
    } else {
        run_untraced(run)
    }
}

/// Build a service and serve tick 0 (the full fold every later delta
/// builds on): the service's set-up.
fn bring_up(config: &ServiceConfig) -> CampaignService {
    let mut service = CampaignService::new(config.clone());
    service.snapshot_at(0);
    service
}

/// Check the tick-0 snapshot against the paper's bands.
fn check_tick0(service: &mut CampaignService, out: &mut Outcome) {
    let snapshot = service.snapshot_at(0);
    let reach = Call::Reach {
        initial: service.scenario().initial_size,
        plan: FaultPlan::NONE,
    };
    check_bands(reach, &Summary::Reach(snapshot.reach.clone()), out);
    check_bands(Call::Https, &Summary::Https(snapshot.funnel.clone()), out);
}

/// One request of the closed loop: write tick `tick`'s churn, then read
/// its snapshot. Checks the scan the service logged for it.
fn request(service: &mut CampaignService, tick: u64, migration: u64, out: &mut Outcome) {
    service.advance_to(tick);
    service.snapshot_at(tick);
    let stats = service.tick_log().last().copied();
    out.check(
        stats.is_some_and(|s| {
            s.tick == tick
                && !s.full_rescan
                && s.all_changed == (tick == migration)
                && (s.all_changed || s.dirty_segments < s.total_segments)
        }),
        "each tick is served by a delta scan; only the migration re-folds everything",
    );
}

fn run_untraced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let sizes = &run.sizes;
    let domains = sizes.churn_domains as f64;
    let mut setups = Vec::new();
    let mut ticks_ms = Vec::new();
    let mut refolds = Vec::new();
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < sizes.min_passes || started.elapsed().as_secs_f64() < run.seconds {
        let first = rates.is_empty();
        let config = service_config(run.seed, rates.len() as u64, sizes, WORKERS);
        let t = Instant::now();
        let mut service = bring_up(&config);
        setups.push(t.elapsed().as_secs_f64());
        if first {
            check_tick0(&mut service, &mut out);
        }
        let mut episode_s = 0.0;
        for tick in 1..=sizes.churn_ticks {
            let t = Instant::now();
            request(&mut service, tick, sizes.churn_migration_tick, &mut out);
            let dt = t.elapsed().as_secs_f64();
            episode_s += dt;
            if tick == sizes.churn_migration_tick {
                refolds.push(dt);
            } else {
                ticks_ms.push(dt * 1e3);
            }
            if first && (tick == sizes.churn_migration_tick || tick == sizes.churn_ticks) {
                // Outside the timed region: the delta path must equal a
                // from-scratch rescan of the churned world.
                let delta = service.snapshot_at(tick);
                let full = service.full_rescan_at(tick);
                out.check(*delta == full, "delta snapshot equals the full rescan");
            }
        }
        rates.push(domains * sizes.churn_ticks as f64 / episode_s);
    }
    while setups.len() < sizes.min_setups {
        let config = service_config(run.seed, setups.len() as u64, sizes, WORKERS);
        let t = Instant::now();
        drop(bring_up(&config));
        setups.push(t.elapsed().as_secs_f64());
    }

    out.set("domains_per_s", median(&rates));
    out.set("op_p50_ms", quantile(&ticks_ms, 0.5));
    out.set("op_p90_ms", quantile(&ticks_ms, 0.9));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", median(&setups));
    out.notes.push(format!(
        "episodes {}, tick samples {}, setups {}, refold (migration tick) median {:.4} s",
        rates.len(),
        ticks_ms.len(),
        setups.len(),
        median(&refolds),
    ));
    out
}

/// The service's segment cache rebuilt outside it: replica churn state,
/// per-segment summaries, and the dirty set.
struct Replica {
    world: World,
    timeline: Timeline,
    state: ChurnState,
    segment_size: usize,
    initial: usize,
    segments: Vec<Option<(QuicReachShard, HttpsScanShard)>>,
    dirty: Vec<bool>,
}

impl Replica {
    fn new(config: &ServiceConfig) -> Replica {
        let domains = config.campaign.world.domains;
        let segments = domains.div_ceil(config.segment_size);
        Replica {
            world: World::streaming(config.campaign.world.clone()),
            timeline: Timeline::new(config.churn.clone()),
            state: ChurnState::initial(),
            segment_size: config.segment_size,
            initial: config.campaign.default_initial,
            segments: vec![None; segments],
            dirty: vec![true; segments],
        }
    }

    /// Apply the next tick's churn; returns the events applied.
    fn advance(&mut self, tracer: &mut Tracer) -> usize {
        tracer.enter("churn.events");
        let delta = self.state.advance(&self.timeline);
        tracer.exit();
        if delta.all_changed {
            self.dirty.iter_mut().for_each(|d| *d = true);
        } else {
            for rank in &delta.changed_ranks {
                self.dirty[(rank - 1) / self.segment_size] = true;
            }
        }
        delta.events
    }

    /// Re-fold the dirty segments and merge every segment summary in
    /// segment order. Returns the snapshot and the segments re-folded.
    fn refresh(
        &mut self,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> ((QuicReachShard, HttpsScanShard), usize) {
        let domains = self.world.config.domains;
        let mut scratch = ProbeScratch::with_memo(true);
        let mut refolded = 0;
        for segment in 0..self.segments.len() {
            if !self.dirty[segment] {
                continue;
            }
            refolded += 1;
            let first = segment * self.segment_size + 1;
            let size = self.segment_size.min(domains - first + 1);
            tracer.enter("pki.derive");
            let mut records = self.world.domain_chunk(first, size);
            self.state.apply_to_records(&mut records);
            tracer.exit();
            counts.derived += records.len() as u64;
            counts.folded[0] += records.len() as u64;
            counts.folded[1] += records.len() as u64;
            tracer.enter("scanner.fold.quicreach");
            let reach = quicreach::fold_records_scratch_chaos(
                &self.world,
                &records,
                self.initial,
                quicert::netsim::NetworkProfile::Ideal,
                quicert::pki::CertificateEra::Classical,
                FaultPlan::NONE,
                &mut scratch,
            );
            tracer.exit();
            counts.retransmissions += reach.retransmissions();
            let funnel = fold_https(&self.world, &records, tracer, counts);
            self.segments[segment] = Some((reach, funnel));
            self.dirty[segment] = false;
        }
        let (hits, misses, _) = scratch.memo_stats();
        counts.memo_hits += hits;
        counts.memo_misses += misses;
        counts.handshakes += misses;
        let mut reach = QuicReachShard::identity();
        let mut funnel = HttpsScanShard::seeded();
        for (r, f) in self.segments.iter().flatten() {
            counts.merges += 2;
            tracer.span("analysis.merge", || {
                reach.merge(r);
                funnel.merge(f);
            });
        }
        ((reach, funnel), refolded)
    }
}

/// Totals of the service's own calls over the delta ticks.
#[derive(Debug, Default)]
struct ServiceTotals {
    dirty_segments: u64,
    probed: u64,
    full_probe_count: u64,
    events: u64,
    refold_s: f64,
}

fn run_traced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let sizes = &run.sizes;
    let migration = sizes.churn_migration_tick;
    let config = service_config(run.seed, 0, sizes, 1);

    // The untraced single-worker episode the tracing overhead is
    // measured against, timed before and after the traced one so drift of
    // the host's speed cancels.
    let untraced_episode = |out: &mut Outcome| {
        let started = Instant::now();
        let mut service = bring_up(&config);
        for tick in 1..=sizes.churn_ticks {
            request(&mut service, tick, migration, out);
        }
        started.elapsed().as_secs_f64()
    };
    let untraced_before = untraced_episode(&mut out);

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut totals = ServiceTotals::default();
    let mut replica = Replica::new(&config);
    // Library counters are read around the replica's work only: the
    // service's own scans bump the same process-wide counters.
    let mut global = GlobalCounters::default();

    tracer.next_op();
    let t = Instant::now();
    let mut service = tracer.span("core.service.bring_up", || bring_up(&config));
    let mut service_s = t.elapsed().as_secs_f64();
    check_tick0(&mut service, &mut out);
    let before = GlobalCounters::read();
    let ((reach, funnel), _) = replica.refresh(&mut tracer, &mut counts);
    global = global.plus(&GlobalCounters::read().since(&before));
    let served = service.snapshot_at(0);
    out.check(
        reach == served.reach && funnel == served.funnel,
        "replica equals the service at tick 0",
    );
    for tick in 1..=sizes.churn_ticks {
        tracer.next_op();
        let t = Instant::now();
        tracer.span("core.service.advance", || service.advance_to(tick));
        let name = if tick == migration {
            "core.service.refold"
        } else {
            "core.service.snapshot"
        };
        let served = tracer.span(name, || service.snapshot_at(tick));
        let dt = t.elapsed().as_secs_f64();
        service_s += dt;
        let stats = *service.tick_log().last().expect("snapshot_at logs a scan");
        if tick == migration {
            totals.refold_s = dt;
        } else {
            totals.dirty_segments += stats.dirty_segments as u64;
            totals.probed += stats.probed as u64;
            totals.full_probe_count += stats.full_probe_count as u64;
        }
        totals.events += replica.advance(&mut tracer) as u64;
        let before = GlobalCounters::read();
        let ((reach, funnel), refolded) = replica.refresh(&mut tracer, &mut counts);
        global = global.plus(&GlobalCounters::read().since(&before));
        out.check(
            refolded == stats.dirty_segments,
            "replica re-folds exactly the service's dirty segments",
        );
        out.check(
            reach == served.reach && funnel == served.funnel,
            "replica snapshot equals the service's",
        );
    }
    let untraced_s = (untraced_before + untraced_episode(&mut out)) / 2.0;
    let sample = quic_sample(&replica.world, sizes.sample);
    let reach = Call::Reach {
        initial: replica.initial,
        plan: FaultPlan::NONE,
    };
    let sampled = run_samples(&replica.world, &[reach], &sample, &mut tracer);

    report_layers(&mut out, &tracer, &counts, &global, &sampled);
    let layers = layer_times(tracer.spans());
    let busy = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    out.set("core.service.advance_s", busy("core.service.advance"));
    out.set("core.service.snapshot_s", busy("core.service.snapshot"));
    out.set("core.service.refold_s", totals.refold_s);
    out.set("core.service.dirty_segments", totals.dirty_segments as f64);
    out.set("core.service.probed", totals.probed as f64);
    out.set(
        "core.service.probe_ratio",
        ratio(totals.probed as f64, totals.full_probe_count as f64),
    );
    out.set("churn.events.count", totals.events as f64);
    out.set("churn.events.busy_s", busy("churn.events"));
    for name in [
        "core.pump.chunks",
        "core.pump.busy_s",
        "core.pump.max_worker_s",
        "core.pump.idle_s",
        "core.pump.imbalance",
    ] {
        out.set(name, 0.0);
    }
    out.set("trace.overhead_ratio", service_s / untraced_s - 1.0);
    out.notes.push(format!(
        "service calls {service_s:.4} s traced vs {untraced_s:.4} s untraced; \
         tick p50 {:.3} ms",
        median(
            &tracer
                .spans()
                .iter()
                .filter(|s| s.name == "core.service.snapshot")
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect::<Vec<_>>()
        ),
    ));
    crate::save_spans(run, &tracer, &mut out);
    out
}
