//! Seeded input generation. Everything a run feeds the program is made
//! here from the `--seed` argument, so the same seed gives the same
//! inputs (and the same [`digest`]) on every machine.

use slo_ir::{Fnv64, Program};
use slo_workloads::art::ArtConfig;
use slo_workloads::census;
use slo_workloads::mcf::McfConfig;
use slo_workloads::moldyn::MoldynConfig;
use slo_workloads::{art, mcf, moldyn, CENSUS_SPECS};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// The hand-written example served alongside the generated programs in
/// `serve-warm`. `examples/ir/interleaved.sir` is left out: one request
/// for it simulates ~0.9 s, hundreds of times a census request, so it
/// alone would set the tail latency and starve the request count.
pub const HOTCOLD_SIR: &str = include_str!("../../examples/ir/hotcold.sir");

/// splitmix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Draws `count` indices into `0..n`, each block of `n` consecutive
/// draws a fresh permutation, so every prefix is close to balanced and
/// the mix barely moves between seeds.
fn balanced(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        out.extend(rng.permutation(n));
    }
    out.truncate(count);
    out
}

/// One program of a workload's input set.
#[derive(Debug, Clone)]
pub struct Input {
    /// Job id (unique within the set).
    pub id: String,
    /// The family it was drawn from (`mcf`, `povray`, `hotcold`, ...).
    pub family: &'static str,
    /// The program, when the workload submits parsed IR.
    pub program: Option<Program>,
    /// Its textual IR (always present: the digest covers it).
    pub text: String,
}

impl Input {
    /// The record types the paper's Table 3 says the optimizer
    /// transforms in this family: one for mcf, art and moldyn, none for
    /// the census benchmarks; `None` where the paper says nothing.
    pub fn expected_types(&self) -> Option<usize> {
        match self.family {
            "mcf" | "art" | "moldyn" => Some(1),
            "hotcold" => None,
            _ => Some(0),
        }
    }

    /// The program, parsing the text when only text is held.
    pub fn parsed(&self) -> Program {
        match &self.program {
            Some(p) => p.clone(),
            None => slo_ir::parser::parse(&self.text).expect("generated IR parses"),
        }
    }
}

/// FNV-1a over every input's id and text, in order.
pub fn digest(inputs: &[Input]) -> u64 {
    let mut h = Fnv64::new();
    for i in inputs {
        h.write_str(&i.id);
        h.write_str(&i.text);
    }
    h.digest()
}

/// A low-discrepancy draw in `0.0..1.0`: the `k`-th point of a golden-
/// ratio sequence rotated by a seeded offset. Any run of consecutive
/// points covers the interval evenly, so the mean job size of a window
/// barely moves between seeds while the sizes themselves do.
fn spread(offset: f64, k: usize) -> f64 {
    (offset + k as f64 * 0.618_033_988_749_895).fract()
}

fn offset(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn scaled(u: f64, lo: i64, hi: i64) -> i64 {
    lo + (u * (hi - lo + 1) as f64) as i64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PboModel {
    Mcf(i64, i64, i64),
    Art(i64),
    Moldyn(i64),
}

impl PboModel {
    /// The `k`-th draw of `model`. Sizes put each job at ~30-170 ms and
    /// the simulated working sets on both sides of the 256 KB simulated
    /// L2. moldyn keeps 4 steps and 6 neighbours: fewer leave its hot
    /// fields below the split threshold and nothing is transformed.
    fn draw(model: usize, u: f64, k: usize) -> PboModel {
        match model {
            0 => PboModel::Mcf(scaled(u, 2000, 8000), 3 + (k % 3) as i64, (k % 2) as i64),
            1 => PboModel::Art(scaled(u, 5000, 14000)),
            _ => PboModel::Moldyn(scaled(u, 1000, 2600)),
        }
    }

    /// The same model one size step larger (to step off a duplicate).
    fn bump(self) -> PboModel {
        match self {
            PboModel::Mcf(n, i, s) => PboModel::Mcf(n + 1, i, s),
            PboModel::Art(n) => PboModel::Art(n + 1),
            PboModel::Moldyn(n) => PboModel::Moldyn(n + 1),
        }
    }

    fn build(self) -> (&'static str, Program) {
        match self {
            PboModel::Mcf(n, iters, skew) => {
                ("mcf", mcf::build_config(McfConfig { n, iters, skew }))
            }
            PboModel::Art(n) => ("art", art::build_config(ArtConfig { n, passes: 2 })),
            PboModel::Moldyn(n) => (
                "moldyn",
                moldyn::build_config(MoldynConfig {
                    n,
                    steps: 4,
                    neighbors: 6,
                }),
            ),
        }
    }
}

/// The warm-up programs: one mid-sized job per model, the same for
/// every seed so set-up time does not move with the seed.
const PBO_WARM: [PboModel; 3] = [
    PboModel::Mcf(5000, 4, 0),
    PboModel::Art(9500),
    PboModel::Moldyn(1800),
];

/// `pbo-eval`: `count` distinct mcf/art/moldyn programs in a balanced
/// seeded order, plus one warm-up program per model (distinct from all
/// of them, so every timed job misses the analysis cache).
pub fn pbo_eval(seed: u64, count: usize) -> (Vec<Input>, Vec<Input>) {
    let mut rng = Rng::new(seed, 1);
    let offsets: Vec<f64> = (0..3).map(|_| offset(&mut rng)).collect();
    let mut seen: HashSet<PboModel> = PBO_WARM.into_iter().collect();
    let mut drawn = [0usize; 3];
    let timed: Vec<PboModel> = balanced(&mut rng, 3, count)
        .into_iter()
        .map(|m| {
            let k = drawn[m];
            drawn[m] += 1;
            let mut model = PboModel::draw(m, spread(offsets[m], k), k);
            while !seen.insert(model) {
                model = model.bump();
            }
            model
        })
        .collect();
    let make = |models: Vec<PboModel>, prefix: &str| {
        models
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let (family, program) = m.build();
                Input {
                    id: format!("{prefix}{i}-{family}"),
                    family,
                    text: slo_ir::printer::print_program(&program),
                    program: Some(program),
                }
            })
            .collect::<Vec<_>>()
    };
    (make(timed, "j"), make(PBO_WARM.to_vec(), "warm"))
}

/// Work scales `1..=max` handed out in rotation per spec from a seeded
/// start, so every spec's scales stay evenly mixed in any window.
struct Scales {
    next: Vec<usize>,
    max: usize,
}

impl Scales {
    fn new(rng: &mut Rng, specs: usize, max: usize) -> Scales {
        Scales {
            next: (0..specs).map(|_| rng.below(max)).collect(),
            max,
        }
    }

    fn take(&mut self, spec: usize) -> u64 {
        let ws = self.next[spec] % self.max + 1;
        self.next[spec] += 1;
        ws as u64
    }
}

/// Printed census programs, one per (spec, work scale), generated once
/// and renamed per job: every identifier the census generator derives
/// from a spec name starts with `<name>_`, so inserting a tag there gives
/// exactly the program `census::generate` builds under the name
/// `<name>_<tag>`. The Table 1 census shape is unchanged, but the text
/// (and so the analysis key) differs from every other job's.
#[derive(Debug, Clone, Default)]
struct CensusBases(HashMap<(usize, u64), String>);

impl CensusBases {
    fn text(&mut self, spec: usize, work_scale: u64) -> &str {
        self.0.entry((spec, work_scale)).or_insert_with(|| {
            let program = census::generate(&CENSUS_SPECS[spec], work_scale);
            slo_ir::printer::print_program(&program)
        })
    }

    fn renamed(&mut self, spec: usize, work_scale: u64, tag: &str) -> String {
        tagged(spec, self.text(spec, work_scale), tag)
    }
}

/// `text`, a printed program of census spec `spec`, with `tag` inserted
/// after the spec name in every identifier derived from it.
fn tagged(spec: usize, text: &str, tag: &str) -> String {
    let name = CENSUS_SPECS[spec].name;
    text.replace(&format!("{name}_"), &format!("{name}_{tag}_"))
}

/// Each block of ten `census-cold` jobs: the nine Table 1 specs, and
/// povray (index 3, the largest census and the costliest job) once more.
/// One povray in nine puts the 90th percentile on the edge between the
/// povray and cactusADM jobs, where it jumps between the two from run to
/// run; two in ten put it inside the povray jobs.
const CENSUS_SLOTS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 3];

/// `census-cold`'s inputs: the nine Table 1 specs in balanced seeded
/// order (povray twice per block, see [`CENSUS_SLOTS`]) at work scales
/// 1-4. Job texts are made from the printed base
/// programs when a job is submitted, so a pool of any length costs only
/// the 36 base programs.
#[derive(Debug, Clone)]
pub struct CensusPool {
    bases: CensusBases,
    jobs: Vec<(usize, u64)>,
}

impl CensusPool {
    /// Generate and print the base programs and draw the job order.
    pub fn new(seed: u64, count: usize) -> CensusPool {
        let mut rng = Rng::new(seed, 2);
        let mut scales = Scales::new(&mut rng, CENSUS_SPECS.len(), 4);
        let jobs: Vec<(usize, u64)> = balanced(&mut rng, CENSUS_SLOTS.len(), count)
            .into_iter()
            .map(|k| (CENSUS_SLOTS[k], scales.take(CENSUS_SLOTS[k])))
            .collect();
        let mut bases = CensusBases::default();
        for &(s, ws) in &jobs {
            bases.text(s, ws);
        }
        CensusPool { bases, jobs }
    }

    /// Job `i`.
    pub fn input(&self, i: usize) -> Input {
        let (s, ws) = self.jobs[i];
        let name = CENSUS_SPECS[s].name;
        Input {
            id: format!("c{i}-{name}"),
            family: name,
            program: None,
            text: tagged(s, &self.bases.0[&(s, ws)], &format!("v{i}")),
        }
    }

    /// Digest of the base programs and the job order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (s, ws) in &self.jobs {
            h.write_str(&format!("{s}:{ws};"));
        }
        let mut keys: Vec<_> = self.bases.0.keys().collect();
        keys.sort();
        for k in keys {
            h.write_str(&self.bases.0[k]);
        }
        h.digest()
    }
}

/// A workload's inputs: listed in full, or made per job from a pool.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Every input, materialized.
    Listed(Vec<Input>),
    /// `census-cold`'s renamed census programs.
    Census(CensusPool),
}

impl Inputs {
    /// Number of inputs.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Listed(v) => v.len(),
            Inputs::Census(p) => p.jobs.len(),
        }
    }

    /// Input `i`.
    pub fn get(&self, i: usize) -> Cow<'_, Input> {
        match self {
            Inputs::Listed(v) => Cow::Borrowed(&v[i]),
            Inputs::Census(p) => Cow::Owned(p.input(i)),
        }
    }
}

/// The small census specs `serve-warm` draws from.
const SMALL_SPECS: [usize; 4] = [0, 4, 5, 8]; // milc, calculix, h264avc, ssearch

/// `serve-warm`'s working set: `count - 1` small census programs at
/// work scale 1-2, then `examples/ir/hotcold.sir`.
pub fn serve_working_set(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, 3);
    let mut scales = Scales::new(&mut rng, SMALL_SPECS.len(), 2);
    let mut bases = CensusBases::default();
    let mut inputs: Vec<Input> = balanced(&mut rng, SMALL_SPECS.len(), count - 1)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let spec = SMALL_SPECS[s];
            Input {
                id: format!("w{i}"),
                family: CENSUS_SPECS[spec].name,
                program: None,
                text: bases.renamed(spec, scales.take(s), &format!("w{i}")),
            }
        })
        .collect();
    inputs.push(Input {
        id: format!("w{}", count - 1),
        family: "hotcold",
        program: None,
        text: HOTCOLD_SIR.to_string(),
    });
    inputs
}

/// `serve-warm`'s fresh programs: never in the working set, each sent
/// at most once (milc and ssearch only, the smallest specs).
pub fn serve_fresh(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, 4);
    let mut bases = CensusBases::default();
    (0..count)
        .map(|i| {
            let spec = if rng.below(2) == 0 { 0 } else { 8 };
            Input {
                id: format!("f{i}"),
                family: CENSUS_SPECS[spec].name,
                program: None,
                text: bases.renamed(spec, 1, &format!("f{i}")),
            }
        })
        .collect()
}

/// What one `serve-warm` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A new line for a working-set program: an LRU or store hit.
    Known(usize),
    /// A verbatim repeat of a fill-pass line: a journal replay.
    Repeat(usize),
    /// A fresh program: a miss, a store put and a journal append.
    Fresh(usize),
}

/// One wire request line and what it should produce.
#[derive(Debug, Clone)]
pub struct Request {
    /// The line sent (no newline).
    pub line: String,
    /// Its kind.
    pub kind: ReqKind,
}

/// The fill-pass line for working-set program `w`.
pub fn fill_line(w: usize) -> String {
    format!("w{w}.sir")
}

/// Per-client request sequences: 80 % known programs with a distinct
/// `steps=` budget (so the journal cannot answer, while the analysis
/// key is unchanged), 15 % verbatim repeats, 5 % fresh programs.
pub fn serve_requests(
    seed: u64,
    clients: usize,
    per_client: usize,
    working: usize,
    fresh: usize,
) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed, 5);
    let mut next_fresh = 0;
    let mut k: u64 = 0;
    let mut seqs = vec![Vec::with_capacity(per_client); clients];
    for _ in 0..per_client {
        for seq in &mut seqs {
            k += 1;
            // Both draws happen for every request, so the sequence is
            // the same whatever the fresh pool's size until it runs dry.
            let roll = rng.below(100);
            let w = rng.below(working);
            let req = if roll < 5 && next_fresh < fresh {
                next_fresh += 1;
                Request {
                    line: format!("f{}.sir steps={}", next_fresh - 1, 2_000_000_000 - k),
                    kind: ReqKind::Fresh(next_fresh - 1),
                }
            } else if roll < 20 {
                Request {
                    line: fill_line(w),
                    kind: ReqKind::Repeat(w),
                }
            } else {
                Request {
                    line: format!("w{w}.sir steps={}", 2_000_000_000 - k),
                    kind: ReqKind::Known(w),
                }
            };
            seq.push(req);
        }
    }
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest() {
        assert_eq!(
            CensusPool::new(7, 12).digest(),
            CensusPool::new(7, 12).digest()
        );
        assert_eq!(digest(&pbo_eval(7, 6).0), digest(&pbo_eval(7, 6).0));
        assert_eq!(
            digest(&serve_working_set(7, 9)),
            digest(&serve_working_set(7, 9))
        );
        assert_eq!(digest(&serve_fresh(7, 4)), digest(&serve_fresh(7, 4)));
    }

    #[test]
    fn different_seed_different_digest() {
        assert_ne!(
            CensusPool::new(7, 12).digest(),
            CensusPool::new(8, 12).digest()
        );
        assert_ne!(digest(&pbo_eval(7, 6).0), digest(&pbo_eval(8, 6).0));
        assert_ne!(
            digest(&serve_working_set(7, 9)),
            digest(&serve_working_set(8, 9))
        );
        assert_ne!(digest(&serve_fresh(7, 4)), digest(&serve_fresh(8, 4)));
    }

    #[test]
    fn shorter_sets_are_prefixes() {
        let long = CensusPool::new(5, 20);
        let short = CensusPool::new(5, 7);
        assert_eq!(short.input(6).text, long.input(6).text);
        let long = pbo_eval(5, 20).0;
        let short = pbo_eval(5, 7).0;
        assert_eq!(short[6].text, long[6].text);
        let long = serve_requests(5, 2, 400, 10, 60);
        let short = serve_requests(5, 2, 100, 10, 30);
        for (l, s) in long.iter().zip(&short) {
            let lines = |seq: &[Request]| seq.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
            assert_eq!(lines(&l[..100]), lines(s));
        }
    }

    #[test]
    fn programs_are_distinct() {
        let (timed, warm) = pbo_eval(3, 30);
        let mut texts: HashSet<&str> = HashSet::new();
        for i in timed.iter().chain(&warm) {
            assert!(texts.insert(&i.text), "{} repeats a program", i.id);
        }
        let census = CensusPool::new(3, 20);
        let mut texts = HashSet::new();
        for i in 0..20 {
            assert!(
                texts.insert(census.input(i).text),
                "job {i} repeats a program"
            );
        }
    }

    #[test]
    fn renaming_matches_generating_under_the_new_name() {
        use slo_workloads::census::CensusSpec;
        for (s, spec) in CENSUS_SPECS.iter().enumerate() {
            let name: &'static str = Box::leak(format!("{}_t9", spec.name).into_boxed_str());
            let direct = census::generate(&CensusSpec { name, ..*spec }, 2);
            let renamed = CensusBases::default().renamed(s, 2, "t9");
            assert_eq!(
                renamed,
                slo_ir::printer::print_program(&direct),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn request_lines_are_unique_except_repeats() {
        let seqs = serve_requests(3, 2, 200, 10, 20);
        let mut lines = HashSet::new();
        for r in seqs.iter().flatten() {
            if !matches!(r.kind, ReqKind::Repeat(_)) {
                assert!(lines.insert(r.line.clone()), "{} sent twice", r.line);
            }
        }
    }
}
