//! The shared corpus and the seeded request streams.
//!
//! Every workload reads the same 64-file population: sizes drawn once
//! from the Yahoo-like model of `spcache_workload::yahoo` (with a fixed
//! corpus seed, so the population's shape is a property of the
//! benchmark) and scaled by 1/16, ordered so that rank 0 — the largest
//! file — is the most popular, as in the paper's trace-driven runs.
//! The run's `--seed` picks the traffic: file contents, the order of
//! each client's Zipf requests, and the ranks, sizes and servers of
//! new files. The cluster's own choices (placements, which worker
//! fails) do not depend on it.

use bytes::Bytes;
use rand::Rng;
use spcache_sim::Xoshiro256StarStar;

/// Files in the corpus.
pub const N_FILES: usize = 64;
/// Workers (cache servers) in every cluster.
pub const N_WORKERS: usize = 8;
/// Zipf exponent of file popularity by rank.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Yahoo sizes are divided by this so the corpus fits in memory.
pub const SIZE_DIVISOR: f64 = 16.0;
/// Seed of the corpus *shape* (file sizes), fixed across runs.
pub const CORPUS_SEED: u64 = 1148;
/// Emulated NIC rate of `fail_heal`, bytes/s per worker; `write_mix`'s
/// unthrottled cluster plans for it too. (`zipf_read` has its own.)
pub const NIC_RATE: f64 = 250e6;
/// Hot files whose writes carry Cauchy-RS parity (`r = 1`).
pub const HOT_PARITY_FILES: usize = 8;

/// The corpus: file sizes by popularity rank and their contents.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Contents of file `i` (id = rank = index).
    pub files: Vec<Bytes>,
}

impl Corpus {
    /// Builds the corpus; `scale` divides every size further (1 for the
    /// real benchmark, larger for the self-test's short mode).
    pub fn generate(seed: u64, scale: usize) -> Self {
        let files = sizes(scale)
            .into_iter()
            .enumerate()
            .map(|(i, len)| content(seed, i as u64, len))
            .collect();
        Corpus { files }
    }

    /// Total corpus bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(Bytes::len).sum()
    }

    /// Size of file `id`.
    pub fn size(&self, id: u64) -> usize {
        self.files[id as usize].len()
    }
}

/// The corpus file sizes in bytes, by popularity rank.
pub fn sizes(scale: usize) -> Vec<usize> {
    let mut rng = Xoshiro256StarStar::seed(CORPUS_SEED);
    spcache_workload::yahoo::generate_trace_files(N_FILES, &mut rng)
        .into_iter()
        .map(|s| ((s / SIZE_DIVISOR) as usize / scale.max(1)).max(4096))
        .collect()
}

/// Pseudo-random contents for file `id` under `seed`.
pub fn content(seed: u64, id: u64, len: usize) -> Bytes {
    let mut rng = Xoshiro256StarStar::seed(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    Bytes::from(out)
}

/// Requests per block of a [`RequestStream`].
pub const BLOCK: usize = 256;

/// The seeded stream of file ranks one client thread requests. Ranks
/// come in blocks of [`BLOCK`] requests holding each file exactly as
/// often as its Zipf popularity says (largest-remainder rounding), in a
/// seeded random order: every run sees the same popularity mix, and
/// the seed picks the order.
#[derive(Debug, Clone)]
pub struct RequestStream {
    counts: Vec<usize>,
    block: Vec<u64>,
    rng: Xoshiro256StarStar,
}

impl RequestStream {
    /// Stream number `stream` of run `seed`, in blocks of [`BLOCK`].
    pub fn new(seed: u64, stream: u64) -> Self {
        RequestStream::with_block(seed, stream, BLOCK)
    }

    /// Stream number `stream` of run `seed`, in blocks of `block`.
    pub fn with_block(seed: u64, stream: u64, block: usize) -> Self {
        RequestStream {
            counts: block_counts(N_FILES, block),
            block: Vec::new(),
            rng: Xoshiro256StarStar::seed(seed.wrapping_mul(31).wrapping_add(stream + 1)),
        }
    }

    /// The next file to request (0 = hottest).
    pub fn next_file(&mut self) -> u64 {
        if self.block.is_empty() {
            let mut block = std::mem::take(&mut self.block);
            for (id, &c) in self.counts.iter().enumerate() {
                block.extend(std::iter::repeat_n(id as u64, c));
            }
            self.shuffle(&mut block);
            self.block = block;
        }
        self.block.pop().expect("a refilled block is non-empty")
    }

    /// Shuffles `v` in place (Fisher–Yates) with this stream's draws.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n.max(1) as u64) as usize
    }
}

/// How many of `block` requests each of `n` files gets under Zipf
/// popularity, by largest remainder (the counts sum to `block`).
pub fn block_counts(n: usize, block: usize) -> Vec<usize> {
    let pops = spcache_workload::zipf_popularities(n, ZIPF_EXPONENT);
    let exact: Vec<f64> = pops.iter().map(|p| p * block as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = block - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}
