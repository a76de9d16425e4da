//! Request sequences. A sequence is a pure function of (workload, seed,
//! seconds): the same arguments give the same frames in the same order,
//! so every run of them does the same work. Class counts are fixed per
//! sequence length and the seed only picks sizes inside fixed strata and
//! the order, which keeps the total work nearly equal across seeds.

use locap_obs::json::Json;

/// Refinement-state count from which the view refinement sweep runs in
/// parallel (`PARALLEL_MIN_STATES` in `crates/lifts/src/view.rs`).
pub const PARALLEL_MIN_STATES: usize = 1 << 13;

/// A p99 needs at least ten samples beyond it, hence at least 1,000
/// requests in every sequence.
pub const MIN_REQUESTS: usize = 1000;

/// The benchmark's workloads (see `loadbench/README.md` for why each
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct `census` requests: no graph repeats, nothing is cached.
    CensusCold,
    /// The six paper pipelines from the experiment grids, no store.
    PaperSweep,
    /// Uniform draws from a working set already in the store.
    WarmReplay,
}

impl Workload {
    /// Names as passed to `--workload`, aligned with [`Workload::ALL`].
    pub const NAMES: [&'static str; 3] = ["census-cold", "paper-sweep", "warm-replay"];
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::CensusCold, Workload::PaperSweep, Workload::WarmReplay];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::NAMES.iter().position(|n| *n == name).map(|i| Workload::ALL[i])
    }

    pub fn name(self) -> &'static str {
        Workload::NAMES[Workload::ALL.iter().position(|w| *w == self).unwrap_or(0)]
    }

    /// Client connections, each driven by one thread: warm-replay keeps
    /// two requests in flight, the others one; never more than `nproc`.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::WarmReplay => nproc.clamp(1, 2),
            Workload::CensusCold | Workload::PaperSweep => 1,
        }
    }

    /// Sequence length for a window of `seconds`, from the request rate a
    /// 2-vCPU host sustains on this workload.
    pub fn requests_for(self, seconds: u64) -> usize {
        let secs = seconds as f64;
        let n = match self {
            Workload::CensusCold => (CENSUS_RATE * secs).round() as usize,
            Workload::PaperSweep => {
                PAPER_BLOCK * ((secs * PAPER_RATE / PAPER_BLOCK as f64).round() as usize).max(1)
            }
            Workload::WarmReplay => (WARM_RATE * secs).round() as usize,
        };
        let n = n.max(MIN_REQUESTS);
        match self {
            // every census-cold request needs a graph of its own
            Workload::CensusCold => n.min(CYCLE_SPAN + torus_sides().len()),
            Workload::PaperSweep | Workload::WarmReplay => n,
        }
    }
}

/// Requests per second each workload sustains on the reference host
/// (2 vCPUs); they size sequences, they are not measurements.
const CENSUS_RATE: f64 = 333.0;
const PAPER_RATE: f64 = 70.0;
const WARM_RATE: f64 = 30_000.0;

/// Paper-sweep class counts are fixed per block of this many requests.
const PAPER_BLOCK: usize = 1000;

/// Directed-cycle census sizes lie in `CYCLE_MIN..CYCLE_MIN + CYCLE_SPAN`.
const CYCLE_MIN: usize = 1000;
const CYCLE_SPAN: usize = 7000;

/// One request: a pipeline and its parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub pipeline: &'static str,
    pub params: Json,
    /// View-refinement states `n · (2|L| + 1)` of a census request, 0 for
    /// other pipelines.
    pub states: usize,
}

impl Request {
    fn new(pipeline: &'static str, params: &[(&str, Json)]) -> Request {
        let params = Json::Obj(params.iter().map(|(k, v)| (k.to_string(), v.clone())).collect());
        Request { pipeline, params, states: 0 }
    }

    fn cycle_census(n: usize, radius: usize) -> Request {
        Request {
            states: n * 3,
            ..Request::new(
                "census",
                &[("family", s("directed-cycle")), ("n", num(n)), ("radius", num(radius))],
            )
        }
    }

    fn torus_census(k: usize, m: usize, radius: usize) -> Request {
        Request {
            states: m.pow(k as u32) * (2 * k + 1),
            ..Request::new(
                "census",
                &[("family", s("toroidal")), ("k", num(k)), ("m", num(m)), ("radius", num(radius))],
            )
        }
    }

    /// Whether the pipeline builds a Theorem 3.2 graph on a cold run
    /// (one `homogeneous::construct_budgeted` call).
    pub fn constructs(&self) -> bool {
        matches!(self.pipeline, "homogeneous" | "hom-lift" | "oi-to-po" | "transfer")
    }

    /// The wire frame (without the newline); `id` is echoed back.
    pub fn frame(&self, id: usize) -> String {
        Json::Obj(vec![
            ("id".into(), num(id)),
            ("pipeline".into(), s(self.pipeline)),
            ("params".into(), self.params.clone()),
        ])
        .to_string()
    }
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn s(x: &str) -> Json {
    Json::Str(x.into())
}

/// A generated sequence: distinct requests plus the order to send them in.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    pub requests: Vec<Request>,
    /// Indices into `requests`, one per request sent.
    pub order: Vec<u32>,
}

impl Sequence {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Sequence {
        let mut rng = Rng::new(seed);
        let n = workload.requests_for(seconds);
        match workload {
            Workload::CensusCold => {
                let requests = census_cold(&mut rng, n);
                let order = (0..requests.len() as u32).collect();
                Sequence { requests, order }
            }
            Workload::PaperSweep => {
                let requests = paper_grid();
                let mut order = Vec::with_capacity(n);
                for _ in 0..n / PAPER_BLOCK {
                    for (i, (count, _)) in requests.iter().enumerate() {
                        order.extend(std::iter::repeat_n(i as u32, *count));
                    }
                }
                rng.shuffle(&mut order);
                Sequence { requests: requests.into_iter().map(|(_, r)| r).collect(), order }
            }
            Workload::WarmReplay => {
                // half census-cold-style, half paper-sweep-style
                let paper: Vec<Request> = paper_grid().into_iter().map(|(_, r)| r).collect();
                let mut requests = census_cold(&mut rng, MIN_REQUESTS);
                requests.truncate(paper.len());
                requests.extend(paper);
                let len = requests.len() as u64;
                let order = (0..n).map(|_| rng.below(len) as u32).collect();
                Sequence { requests, order }
            }
        }
    }

    /// Number of requests sent.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The requests in send order.
    pub fn sent(&self) -> impl Iterator<Item = &Request> + '_ {
        self.order.iter().map(|&i| &self.requests[i as usize])
    }

    /// Share of the census requests sent whose state count is at or above
    /// the parallel threshold (0 when none is a census).
    pub fn parallel_share(&self) -> f64 {
        let census: Vec<&Request> = self.sent().filter(|r| r.pipeline == "census").collect();
        let parallel = census.iter().filter(|r| r.states >= PARALLEL_MIN_STATES).count();
        ratio(parallel as f64, census.len() as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never reaches).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every torus is used once: 2-D sides 12..=60 and 3-D sides 6..=15, on
/// both sides of the parallel threshold (5m² ≥ 8,192 from m = 41, 7m³
/// from m = 11).
fn torus_sides() -> Vec<(usize, usize)> {
    (12..=60).map(|m| (2, m)).chain((6..=15).map(|m| (3, m))).collect()
}

/// `n` distinct census requests in shuffled order: every torus once with
/// radii 1..=4 dealt evenly, the rest directed cycles, one size per
/// stratum of `CYCLE_MIN..CYCLE_MIN + CYCLE_SPAN`. The top
/// `TAIL_PERCENT` of strata (the largest cycles) all get radius 8 and the
/// others radii 1..=4 dealt evenly, so the slowest few percent are one
/// class of near-equal cost and p99 — 1% from the top — lands inside it
/// rather than on a steep tail. Cheap bulk requests also give the window
/// enough responses for five 1,000-response slices. Distinct graphs mean
/// no cached work is reused.
fn census_cold(rng: &mut Rng, n: usize) -> Vec<Request> {
    let tori = torus_sides();
    let mut radii: Vec<usize> = (0..tori.len()).map(|i| 1 + i % 4).collect();
    rng.shuffle(&mut radii);
    let mut out: Vec<Request> = tori
        .iter()
        .zip(&radii)
        .map(|(&(k, m), &r)| Request::torus_census(k, m, r))
        .collect();
    let cycles = n.saturating_sub(tori.len()).clamp(1, CYCLE_SPAN);
    let width = CYCLE_SPAN / cycles;
    let tail = (cycles * TAIL_PERCENT).div_ceil(100);
    let mut radii: Vec<usize> = (0..cycles - tail).map(|i| 1 + i % 4).collect();
    rng.shuffle(&mut radii);
    radii.resize(cycles, 8);
    for (i, &r) in radii.iter().enumerate() {
        let n = CYCLE_MIN + i * width + rng.below(width as u64) as usize;
        out.push(Request::cycle_census(n, r));
    }
    rng.shuffle(&mut out);
    out
}

/// Share of census-cold's cycles, in percent, that form its slowest
/// class: three times the 1% above p99.
const TAIL_PERCENT: usize = 3;

/// The paper-sweep classes with their count per 1,000-request block,
/// drawn from the e07–e11 experiment grids. Counts fall as cost rises,
/// and both reported percentiles land deep inside one group: the
/// sub-millisecond `eds-lower` and `ramsey` requests hold ranks 1–~650,
/// so p50 measures them plus the serving path, and the heaviest class
/// (transfer of vc-non-min on C30 at m = 20, ~0.25 s and a 240k-node
/// lift) is 2% of the block, so p99 — ten requests from the top — is the
/// 11th slowest of those 20.
fn paper_grid() -> Vec<(usize, Request)> {
    let mut out = Vec::new();
    let mut add = |count: usize, pipeline: &'static str, params: &[(&str, Json)]| {
        out.push((count, Request::new(pipeline, params)));
    };
    // e07: (k, r, m) → count
    for (k, r, m, c) in [
        (1, 1, 6, 10),
        (1, 1, 10, 10),
        (1, 1, 16, 8),
        (1, 1, 24, 4),
        (1, 1, 32, 4),
        (2, 1, 6, 10),
        (2, 1, 10, 10),
        (2, 1, 16, 8),
        (2, 1, 20, 4),
        (1, 2, 8, 10),
        (1, 2, 12, 8),
        (1, 2, 20, 4),
        (1, 2, 24, 4),
        (2, 2, 12, 8),
        (2, 2, 16, 4),
        (2, 2, 20, 4),
    ] {
        add(c, "homogeneous", &[("k", num(k)), ("r", num(r)), ("m", num(m))]);
    }
    // e08: the directed bases C3 and C9
    for (cycle, m, c) in [(3, 6, 10), (3, 12, 8), (9, 6, 10), (9, 12, 8)] {
        add(c, "hom-lift", &[("cycle", num(cycle)), ("m", num(m))]);
    }
    // e09: (algo, cycle, m) → (oi-to-po count, transfer count)
    for (algo, cycle, m, oi, tr) in [
        ("vc-non-min", 12, 6, 10, 10),
        ("is-local-min", 12, 6, 10, 10),
        ("vc-non-min", 12, 12, 10, 6),
        ("is-local-min", 12, 12, 10, 6),
        ("vc-non-min", 12, 20, 4, 4),
        ("is-local-min", 12, 20, 4, 4),
        ("vc-non-min", 30, 6, 10, 8),
        ("is-local-min", 30, 6, 10, 8),
        ("vc-non-min", 30, 12, 8, 4),
        ("is-local-min", 30, 12, 10, 4),
        ("vc-non-min", 30, 20, 4, 20),
        ("is-local-min", 30, 20, 4, 2),
    ] {
        let params = [("algo", s(algo)), ("cycle", num(cycle)), ("m", num(m))];
        add(oi, "oi-to-po", &params);
        add(tr, "transfer", &params);
    }
    // e10: t = 3 windows, universes up to {1..60}; sum-mod3 on {1..60}
    // takes ~4 ms, the others well under 1 ms
    for algo in ["local-max", "even-id", "sum-mod3"] {
        for (universe, m) in [(20, 5), (30, 7), (60, 9)] {
            let c = if algo == "sum-mod3" && universe == 60 { 10 } else { 36 };
            let params =
                [("algo", s(algo)), ("universe", num(universe)), ("r", num(1)), ("m", num(m))];
            add(c, "ramsey", &params);
        }
    }
    // e11: the certified G0 instances
    for (dp, n) in [(2, 3), (2, 9), (2, 21), (2, 30), (4, 7), (4, 14), (4, 28), (6, 11), (6, 22)] {
        add(40, "eds-lower", &[("delta_prime", num(dp)), ("n", num(n))]);
    }
    // pad the block to exactly PAPER_BLOCK with the largest (cheap) class
    let total: usize = out.iter().map(|(c, _)| c).sum();
    if let Some(largest) = out.iter_mut().max_by_key(|(c, _)| *c) {
        largest.0 += PAPER_BLOCK.saturating_sub(total);
    }
    out
}

/// SplitMix64: small, seedable and stable across toolchains.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_order() {
        for w in Workload::ALL {
            let a = Sequence::generate(w, 7, 12);
            assert_eq!(a, Sequence::generate(w, 7, 12), "{} is deterministic", w.name());
            assert_ne!(a, Sequence::generate(w, 8, 12), "{} depends on the seed", w.name());
            assert!(a.len() >= MIN_REQUESTS);
        }
    }

    #[test]
    fn census_cold_never_repeats_a_request_or_a_graph() {
        for seed in [1, 2, 3] {
            let seq = Sequence::generate(Workload::CensusCold, seed, 12);
            let frames: BTreeSet<String> = seq.sent().map(|r| r.params.to_string()).collect();
            assert_eq!(frames.len(), seq.len(), "no request repeats");
            // the store keys census levels by graph, so graphs must differ too
            let graphs: BTreeSet<String> = seq
                .sent()
                .map(|r| {
                    let mut p = r.params.clone();
                    if let Json::Obj(f) = &mut p {
                        f.retain(|(k, _)| k != "radius");
                    }
                    p.to_string()
                })
                .collect();
            assert_eq!(graphs.len(), seq.len(), "no graph repeats");
            let share = seq.parallel_share();
            assert!(share > 0.1 && share < 0.9, "both sides of the threshold: {share}");
            let radius = |r: &Request| r.params.get("radius").and_then(Json::as_u64);
            let top = seq.sent().filter(|r| radius(r) == Some(8)).count();
            assert!(top * 100 >= seq.len() * 2, "the radius-8 class holds p99: {top}");
        }
    }

    #[test]
    fn paper_sweep_counts_do_not_depend_on_the_seed() {
        let count = |seed| {
            let seq = Sequence::generate(Workload::PaperSweep, seed, 12);
            let mut c = vec![0usize; seq.requests.len()];
            for &i in &seq.order {
                c[i as usize] += 1;
            }
            c
        };
        assert_eq!(count(1), count(2));
        assert_eq!(count(1).iter().sum::<usize>(), PAPER_BLOCK);
        assert!(!Sequence::generate(Workload::PaperSweep, 1, 12)
            .sent()
            .any(|r| r.pipeline == "census"));
    }

    #[test]
    fn warm_replay_working_set_is_half_census() {
        let seq = Sequence::generate(Workload::WarmReplay, 5, 1);
        let census = seq.requests.iter().filter(|r| r.pipeline == "census").count();
        assert_eq!(census * 2, seq.requests.len());
    }
}
