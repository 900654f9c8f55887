//! Seeded inputs of every workload.
//!
//! The program under test only ever sees the text built here: design
//! sources and NDJSON request lines. Everything is a pure function of the
//! workload seed, so the same seed replays the same designs and the same
//! request stream byte for byte.

use tcms_core::PartitionCount;
use tcms_ir::display::to_dfg;
use tcms_ir::generators::{paper_system, random_system, RandomSystemConfig};
use tcms_serve::client::schedule_request_line;
use tcms_serve::ScheduleOptions;

/// Designs in one served pool (fewer than the daemon's 1024 cache entries).
pub const POOL_DESIGNS: usize = 256;
/// Distinct pools the served stream cycles through. One cycle touches
/// about 1900 distinct designs, more than a node's cache holds, so a
/// pool's entries are evicted before the stream returns to it.
pub const POOLS: usize = 10;
/// Requests drawn from one pool before the stream moves to the next.
/// With Zipf(1.0) over 256 designs, about 19% of a round are first
/// requests (misses) and 81% repeats (hits).
pub const ROUND_REQUESTS: usize = 1000;
/// Zipf skew of the served stream.
pub const ZIPF_ALPHA: f64 = 1.0;
/// Warm-up designs, one per client connection; never part of a pool.
pub const WARMUP_DESIGNS: usize = 2;

/// The paper's five-process EWF/diffeq system of Table 1, exactly as
/// `gen_designs` writes `designs/paper_table1.dfg`.
///
/// # Panics
///
/// Panics if the paper generator fails, which is a program bug.
#[must_use]
pub fn table1_design() -> String {
    let (system, _) = paper_system().expect("the paper system builds");
    to_dfg(&system)
}

/// A four-op design the one-shot set-up schedules once, so the pipeline
/// (and its thread pool) is warm before the first timed call.
pub const ONESHOT_WARMUP: &str = "\
resource add delay=1 area=1
resource mul delay=2 area=4 pipelined
process A
block body time=8
op m0 mul
op a0 add
edge m0 a0
process B
block body time=8
op m0 mul
op a0 add
edge m0 a0
";

/// `tcms schedule --all-global 5 --verify 5`.
#[must_use]
pub fn table1_options() -> ScheduleOptions {
    ScheduleOptions {
        all_global: Some(5),
        verify: 5,
        ..ScheduleOptions::default()
    }
}

/// The 318-op, 8-process spec that `gen_designs --ops 300` emits
/// (seed 1). It is pinned, not seeded: its run time and area are the
/// quantities the workload tracks.
///
/// # Panics
///
/// Panics if the generator fails, which is a program bug.
#[must_use]
pub fn partition_design() -> String {
    // `scaling_config(300, 8)` of the repository's bench harness: each
    // layer draws 3..=5 ops (mean 4) per process.
    let per_process = 300usize.div_ceil(8);
    let config = RandomSystemConfig {
        processes: 8,
        blocks_per_process: 1,
        layers: per_process.div_ceil(4),
        ops_per_layer: (3, 5),
        edge_prob: 0.35,
        slack: 2.0,
        type_weights: [4, 1, 2],
    };
    let (system, _) = random_system(&config, 1).expect("the 318-op spec builds");
    to_dfg(&system)
}

/// `--all-global 4 --partition 2`, the setting of the partition study.
#[must_use]
pub fn partition_options() -> ScheduleOptions {
    ScheduleOptions {
        all_global: Some(4),
        partition: Some(PartitionCount::Fixed(2)),
        ..ScheduleOptions::default()
    }
}

/// Options of every served request.
#[must_use]
pub fn served_options() -> ScheduleOptions {
    ScheduleOptions {
        all_global: Some(4),
        ..ScheduleOptions::default()
    }
}

/// SplitMix64 finalizer: a counter-based generator, so request `i` of a
/// stream is drawn without replaying requests `0..i`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits.
#[allow(clippy::cast_precision_loss)]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The generator shape of one served design: two processes of three
/// layers, about 24 ops.
fn served_config() -> RandomSystemConfig {
    RandomSystemConfig {
        processes: 2,
        blocks_per_process: 1,
        layers: 3,
        ops_per_layer: (3, 5),
        edge_prob: 0.35,
        slack: 2.0,
        type_weights: [4, 1, 2],
    }
}

/// The designs and request stream of `serve_zipf` and `fleet_zipf`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedInputs {
    /// Pool designs, `POOLS × POOL_DESIGNS` of them, then the warm-up
    /// designs. Design `k * POOL_DESIGNS + r` has popularity rank `r` in
    /// pool `k`.
    pub designs: Vec<String>,
    /// One NDJSON schedule request per design, id `d<index>`.
    pub lines: Vec<String>,
    cdf: Vec<f64>,
    stream_seed: u64,
}

impl ServedInputs {
    /// Generates every design and request line for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the design generator fails, which is a program bug.
    #[must_use]
    pub fn generate(seed: u64) -> ServedInputs {
        let design_seed = splitmix64(seed ^ 0x5eed_de51_9000_0001);
        let opts = served_options();
        let count = POOLS * POOL_DESIGNS + WARMUP_DESIGNS;
        let designs: Vec<String> = (0..count as u64)
            .map(|d| {
                let (system, _) = random_system(&served_config(), splitmix64(design_seed ^ d))
                    .expect("the served design builds");
                to_dfg(&system)
            })
            .collect();
        let lines = designs
            .iter()
            .enumerate()
            .map(|(d, design)| schedule_request_line(&format!("d{d}"), design, &opts, None))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let weights: Vec<f64> = (1..=POOL_DESIGNS)
            .map(|r| (r as f64).powf(-ZIPF_ALPHA))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ServedInputs {
            designs,
            lines,
            cdf,
            stream_seed: splitmix64(seed ^ 0x57ea_4000_0000_0002),
        }
    }

    /// The probability that a request of the stream is for design `d`.
    #[must_use]
    pub fn popularity(&self, d: usize) -> f64 {
        if d >= POOLS * POOL_DESIGNS {
            return 0.0;
        }
        let rank = d % POOL_DESIGNS;
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        #[allow(clippy::cast_precision_loss)]
        let pools = POOLS as f64;
        (self.cdf[rank] - below) / pools
    }

    /// The design index of request `i` of the stream.
    #[must_use]
    pub fn request(&self, i: usize) -> usize {
        let pool = (i / ROUND_REQUESTS) % POOLS;
        let u = unit(splitmix64(self.stream_seed ^ i as u64));
        let rank = self.cdf.partition_point(|&c| c <= u).min(POOL_DESIGNS - 1);
        pool * POOL_DESIGNS + rank
    }
}

/// The design index of the warm-up request of client connection `client`.
#[must_use]
pub fn warmup_design(client: usize) -> usize {
    POOLS * POOL_DESIGNS + client % WARMUP_DESIGNS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(inputs: &ServedInputs, n: usize) -> Vec<usize> {
        (0..n).map(|i| inputs.request(i)).collect()
    }

    #[test]
    fn same_seed_gives_identical_designs_and_stream() {
        let a = ServedInputs::generate(7);
        let b = ServedInputs::generate(7);
        assert_eq!(a.designs, b.designs);
        assert_eq!(a.lines, b.lines);
        assert_eq!(stream(&a, 5000), stream(&b, 5000));
    }

    #[test]
    fn different_seed_gives_different_designs_and_stream() {
        let a = ServedInputs::generate(7);
        let b = ServedInputs::generate(8);
        assert!(a.designs.iter().zip(&b.designs).all(|(x, y)| x != y));
        assert_ne!(stream(&a, 5000), stream(&b, 5000));
    }

    #[test]
    fn stream_cycles_through_pools_with_a_zipf_hot_set() {
        let inputs = ServedInputs::generate(1);
        let first = stream(&inputs, ROUND_REQUESTS);
        assert!(first.iter().all(|&d| d < POOL_DESIGNS));
        let hot = first.iter().filter(|&&d| d == 0).count();
        // Rank 0 carries 1/H(256) ≈ 16% of the draws.
        assert!((100..230).contains(&hot), "rank 0 drew {hot} of 1000");
        let second = inputs.request(ROUND_REQUESTS);
        assert!((POOL_DESIGNS..2 * POOL_DESIGNS).contains(&second));
        assert_eq!(inputs.request(POOLS * ROUND_REQUESTS) / POOL_DESIGNS, 0);
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            (150..230).contains(&distinct.len()),
            "a round touches {} designs",
            distinct.len()
        );
    }

    #[test]
    fn popularity_is_the_stream_distribution() {
        let inputs = ServedInputs::generate(1);
        let total: f64 = (0..inputs.designs.len())
            .map(|d| inputs.popularity(d))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(inputs.popularity(warmup_design(0)), 0.0);
        let n = 20 * ROUND_REQUESTS;
        let drawn = stream(&inputs, n).iter().filter(|&&d| d == 0).count();
        #[allow(clippy::cast_precision_loss)]
        let expected = inputs.popularity(0) * n as f64;
        assert!(
            (drawn as f64 - expected).abs() < 0.1 * expected,
            "{drawn} vs {expected}"
        );
    }

    #[test]
    fn fixed_inputs_do_not_depend_on_anything() {
        assert_eq!(table1_design(), table1_design());
        assert_eq!(partition_design(), partition_design());
        let system = tcms_serve::pipeline::load_system(&partition_design()).unwrap();
        assert_eq!(system.num_ops(), 318);
        assert_eq!(system.num_processes(), 8);
    }
}
