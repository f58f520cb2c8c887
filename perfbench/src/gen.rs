//! Seeded input generation: the training fleet and the request stream.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same `--seed` train byte-identical models and replay identical frame
//! streams.

use lorentz_core::fleet::FleetDataset;
use lorentz_telemetry::{RegularSeries, UsageTrace};
use lorentz_types::{
    Capacity, CustomerId, ProfileSchema, ProfileTable, ResourceGroupId, ResourcePath, ServerId,
    ServerOffering, SkuCatalog, SubscriptionId,
};

/// splitmix64: small, seedable, and good enough for workload synthesis.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One generated server: its profile values, placement, and usage.
pub struct ServerRow {
    pub profile: Vec<Option<String>>,
    pub path: ResourcePath,
    pub offering: ServerOffering,
    pub user_capacity: Capacity,
    /// Demand level, daily phase, and noise seed of the usage trace; the
    /// values are rebuilt on demand so a 100k-row fleet is held in memory
    /// once (inside the dataset), not twice.
    base: f64,
    phase: usize,
    noise: u64,
}

impl ServerRow {
    /// The row's usage: a triangular daily wave around its demand level
    /// with ±5% noise.
    pub fn values(&self) -> Vec<f64> {
        let mut rng = Rng::new(self.noise);
        (0..BINS)
            .map(|j| {
                let t = ((j + self.phase) % BINS) as f64 / BINS as f64;
                let wave = if t < 0.5 { t * 2.0 } else { (1.0 - t) * 2.0 };
                self.base * (0.85 + 0.3 * wave) * (0.95 + 0.1 * rng.unit())
            })
            .collect()
    }
}

/// Bins per trace: one day of five-minute bins, the paper's Stage-1 grain.
pub const BINS: usize = 288;

/// Generates `n` servers. Profiles follow the Azure 7-level chain (each
/// finer feature determines the coarser ones) over `leaves` resource
/// groups, with 2% of rows missing one value; demand follows the customer,
/// so both Stage-2 models have real signal; user picks mix under-, well-
/// and over-provisioned SKUs so Stage 1 takes both of its branches.
pub fn servers(seed: u64, n: usize, leaves: u64) -> Vec<ServerRow> {
    let mut rng = Rng::new(seed);
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    (0..n)
        .map(|_| {
            let leaf = rng.below(leaves);
            let sub = leaf / 4;
            let cust = leaf / 16;
            let names = [
                format!("seg-{}", cust / 16),
                format!("ind-{}", cust / 8),
                format!("vert-{}", cust / 4),
                format!("vcat-{}", cust / 2),
                format!("cust-{cust}"),
                format!("sub-{sub}"),
                format!("rg-{leaf}"),
            ];
            let mut profile: Vec<Option<String>> = names.into_iter().map(Some).collect();
            if rng.below(50) == 0 {
                profile[rng.below(7) as usize] = None;
            }
            let base = 0.5 + (cust % 8) as f64 + rng.below(100) as f64 / 200.0;
            let phase = rng.below(BINS as u64) as usize;
            let noise = rng.next_u64();
            let offering_idx = rng.below(3) as usize;
            let catalog = &catalogs[offering_idx];
            let covering = catalog
                .skus()
                .iter()
                .position(|s| s.capacity.primary() >= base * 1.2 * 2.0)
                .unwrap_or(catalog.len() - 1);
            let offset: i64 = match rng.below(4) {
                0 => -1,
                1 => 1,
                _ => 0,
            };
            let idx = (covering as i64 + offset).clamp(0, catalog.len() as i64 - 1) as usize;
            ServerRow {
                profile,
                path: ResourcePath::new(
                    CustomerId(cust as u32),
                    SubscriptionId(sub as u32),
                    ResourceGroupId(leaf as u32),
                ),
                offering: ServerOffering::ALL[offering_idx],
                user_capacity: catalog.get(idx).capacity.clone(),
                base,
                phase,
                noise,
            }
        })
        .collect()
}

/// Splits rows 90/10: every tenth row is held out.
pub fn split_holdout(rows: Vec<ServerRow>) -> (Vec<ServerRow>, Vec<ServerRow>) {
    let (train, holdout): (Vec<_>, Vec<_>) =
        rows.into_iter().enumerate().partition(|(i, _)| i % 10 != 9);
    (
        train.into_iter().map(|(_, r)| r).collect(),
        holdout.into_iter().map(|(_, r)| r).collect(),
    )
}

/// Builds the usage trace of a generated row (`RegularSeries` validation
/// happens here, outside any timed ingest).
pub fn trace(row: &ServerRow) -> UsageTrace {
    UsageTrace::single(RegularSeries::new(300.0, row.values()).expect("generated series"))
}

/// Ingests rows through [`FleetDataset::push`], the timed `setup_s` call of
/// the train workload. Traces are built beforehand so only the push is
/// inside the returned duration.
pub fn ingest(rows: &[ServerRow]) -> (FleetDataset, std::time::Duration) {
    let traces: Vec<UsageTrace> = rows.iter().map(trace).collect();
    let mut fleet = FleetDataset::new(ProfileTable::new(ProfileSchema::azure_postgres()));
    let started = std::time::Instant::now();
    for (i, (row, trace)) in rows.iter().zip(traces).enumerate() {
        let profile: Vec<Option<&str>> = row.profile.iter().map(|v| v.as_deref()).collect();
        fleet
            .push(
                ServerId(i as u32),
                row.path,
                row.offering,
                &profile,
                row.user_capacity.clone(),
                trace,
            )
            .expect("generated row is valid");
    }
    (fleet, started.elapsed())
}

/// How a workload shapes its frame stream.
#[derive(Clone, Copy)]
pub struct StreamShape {
    /// Share of frames that are feedback signals.
    pub feedback_frac: f64,
    /// Share of requests with one profile value blanked out.
    pub missing_frac: f64,
    /// Share of requests with one profile value replaced by an unseen one.
    pub unseen_frac: f64,
    /// Hot customers that receive every feedback signal (0 = feedback is
    /// spread over the whole key space like reads).
    pub hot_customers: usize,
    /// Share of reads aimed at the hot customers.
    pub hot_read_frac: f64,
}

/// Distinct paths reads spread over: 2^20 resource groups, 8 per
/// subscription, 64 per customer.
pub const KEY_SPACE: u64 = 1 << 20;
/// Hot customers live above the uniform key space's customer ids.
const HOT_BASE: u32 = 1 << 20;

/// One client frame of the stream.
#[derive(Clone, Debug)]
pub enum Frame {
    /// A request for the `template`-th profile at `path`.
    Request { template: usize, path: ResourcePath },
    /// A satisfaction signal.
    Feedback {
        path: ResourcePath,
        offering: ServerOffering,
        gamma: f64,
    },
}

impl Frame {
    /// The length-prefix-free JSON payload, with `id` as correlation id.
    pub fn payload(&self, id: u64, templates: &[Template]) -> Vec<u8> {
        match self {
            Frame::Request { template, path } => {
                let t = &templates[*template];
                let mut out = format!("{{\"id\": {id}, \"offering\": \"{}\", \"profile\": {{", t.offering.name());
                let mut first = true;
                for (name, value) in lorentz_types::ProfileSchema::azure_postgres().names().iter().zip(&t.profile) {
                    if let Some(v) = value {
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        out.push_str(&format!("\"{name}\": \"{v}\""));
                    }
                }
                out.push_str(&format!(
                    "}}, \"customer\": {}, \"subscription\": {}, \"resource_group\": {}}}",
                    path.customer.0, path.subscription.0, path.resource_group.0
                ));
                out.into_bytes()
            }
            Frame::Feedback { path, offering, gamma } => format!(
                "{{\"gamma\": {gamma}, \"offering\": \"{}\", \"customer\": {}, \"subscription\": {}, \"resource_group\": {}}}",
                offering.name(),
                path.customer.0,
                path.subscription.0,
                path.resource_group.0
            )
            .into_bytes(),
        }
    }
}

/// A request profile: a training row's values, possibly with one value
/// blanked or replaced by one the model never saw.
#[derive(Clone, Debug)]
pub struct Template {
    pub profile: Vec<Option<String>>,
    pub offering: ServerOffering,
}

/// Draws `n` request templates from the training rows' vocabulary.
pub fn templates(seed: u64, rows: &[ServerRow], n: usize, shape: &StreamShape) -> Vec<Template> {
    let mut rng = Rng::new(seed ^ 0x7E4D);
    (0..n)
        .map(|k| {
            let row = &rows[rng.below(rows.len() as u64) as usize];
            let mut profile = row.profile.clone();
            let u = rng.unit();
            let feature = rng.below(profile.len() as u64) as usize;
            if u < shape.missing_frac {
                profile[feature] = None;
            } else if u < shape.missing_frac + shape.unseen_frac {
                profile[feature] = Some(format!("unseen-{k}"));
            }
            Template {
                profile,
                offering: row.offering,
            }
        })
        .collect()
}

/// Generates `n` frames of a workload's stream.
pub fn frames(seed: u64, n: usize, templates: usize, shape: &StreamShape) -> Vec<Frame> {
    let mut rng = Rng::new(seed ^ 0x00F4_A3E5);
    let zipf = (shape.hot_customers > 0).then(|| Zipf::new(shape.hot_customers, 1.0));
    // A hot customer owns four paths (two subscriptions of two resource
    // groups), so feedback and reads meet on the same λ keys.
    let hot_path = |rng: &mut Rng, zipf: &Zipf| {
        let customer = HOT_BASE + zipf.sample(rng) as u32;
        let k = rng.below(4) as u32;
        ResourcePath::new(
            CustomerId(customer),
            SubscriptionId(customer * 2 + k / 2),
            ResourceGroupId(customer * 4 + k),
        )
    };
    let uniform_path = |rng: &mut Rng| {
        let key = rng.below(KEY_SPACE);
        ResourcePath::new(
            CustomerId((key >> 6) as u32),
            SubscriptionId((key >> 3) as u32),
            ResourceGroupId(key as u32),
        )
    };
    (0..n)
        .map(|_| {
            if rng.unit() < shape.feedback_frac {
                let path = match &zipf {
                    Some(z) => hot_path(&mut rng, z),
                    None => uniform_path(&mut rng),
                };
                let gamma = [-0.6, -0.3, 0.3][rng.below(3) as usize];
                let offering = ServerOffering::ALL[rng.below(3) as usize];
                Frame::Feedback {
                    path,
                    offering,
                    gamma,
                }
            } else {
                let template = rng.below(templates as u64) as usize;
                let path = match &zipf {
                    Some(z) if rng.unit() < shape.hot_read_frac => hot_path(&mut rng, z),
                    _ => uniform_path(&mut rng),
                };
                Frame::Request { template, path }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let shape = StreamShape {
            feedback_frac: 0.2,
            missing_frac: 0.05,
            unseen_frac: 0.05,
            hot_customers: 300,
            hot_read_frac: 0.5,
        };
        let a = frames(7, 500, 64, &shape);
        let b = frames(7, 500, 64, &shape);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", frames(8, 500, 64, &shape))
        );
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let zipf = Zipf::new(300, 1.0);
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(hits > 4_000, "top-10 share {hits}/10000");
    }
}
