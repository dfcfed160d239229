//! Inputs derived from the run's seed. The library only ever sees the
//! configurations built here, so one seed always yields the same worlds
//! and timelines, and different seeds yield different ones.

use quicert::churn::ChurnConfig;
use quicert::core::{CampaignConfig, ServiceConfig};
use quicert::pki::world::Provider;
use quicert::pki::{CertificateEra, WorldConfig};

use crate::{Sizes, Workload};

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The world a workload scans under `seed`: the paper's default
/// population model at the workload's size, with a seed of its own per
/// workload.
pub fn world_config(workload: Workload, seed: u64, sizes: &Sizes) -> WorldConfig {
    WorldConfig {
        domains: sizes.domains(workload),
        seed: mix(seed ^ mix(workload as u64 + 1)),
        ..WorldConfig::default()
    }
}

/// The resident service of `churn_service`: the default sparse churn
/// with one era migration (Cloudflare to hybrid certificates), segments
/// of `sizes.churn_segment` ranks, scanned by `workers` threads.
/// Episodes of one run share the world; each draws its own timeline, so
/// a run's tick latencies sample many ticks, not one timeline replayed.
pub fn service_config(seed: u64, episode: u64, sizes: &Sizes, workers: usize) -> ServiceConfig {
    let world = world_config(Workload::ChurnService, seed, sizes);
    let churn_seed = mix(world.seed ^ mix(episode ^ 0x00C4_2A17));
    let churn = ChurnConfig::new(churn_seed, world.domains).with_migration(
        sizes.churn_migration_tick,
        Provider::Cloudflare,
        CertificateEra::Hybrid,
    );
    let campaign = CampaignConfig {
        world,
        ..CampaignConfig::small()
    }
    .with_workers(workers);
    ServiceConfig::new(campaign, churn).with_segment_size(sizes.churn_segment)
}
