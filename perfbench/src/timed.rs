//! The three closed-loop workloads, untraced. Each run sets up fresh
//! state several times before the timed window and again after it (the
//! median is `setup_s`), and drives the last set-up before the window.

use crate::inputs::{self, CensusPool, Input, Inputs, ReqKind, Request};
use crate::oracle::{self, Claim};
use slo_service::{
    AnalysisStore, FaultPlan, Job, JobOutcome, JobStatus, Journal, MetricsSnapshot, NetConfig,
    NetServer, Reply, Response, SchemeSpec, Service, ServiceConfig, Session,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups timed on each side of the window: at least this many, and
/// for at least [`SETUP_SECONDS`]. `setup_s` is the median of both sides.
/// The host's speed wanders over seconds; a few set-ups in a row (0.1 s
/// each on `census-cold`) sample one moment of it, two stretches of
/// ~1.5 s half a minute apart sample it like the window does.
pub const SETUP_REPS: usize = 3;
/// Least set-up time on each side of the window, in seconds.
pub const SETUP_SECONDS: f64 = 1.5;
/// Jobs (per client on `serve-warm`) at the head of the seeded sequence
/// that every run completes: `layout_speedup_pct` and the oracle sample
/// are taken from them, so both repeat exactly for a seed. 96 `pbo-eval`
/// jobs (a third of a run) put the quartile spread of `layout_speedup_pct`
/// over seeds 1-10 at 0.0012 of its median (48 jobs: 0.0015).
pub const FIXED_PREFIX: usize = 96;
/// Jobs re-run on the structured reference engine after the timed phase.
pub const ORACLE_SAMPLE: usize = 4;
/// `serve-warm` working-set size and the LRU capacity below it.
pub const WORKING_SET: usize = 40;
/// LRU entries on `serve-warm`, a quarter of the working set.
pub const SERVE_LRU: usize = WORKING_SET / 4;
/// Closed-loop connections on `serve-warm`.
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3's path: PBO jobs, ~97 % of their time in slo-vm.
    PboEval,
    /// The compiler front half on the cold, writing path.
    CensusCold,
    /// The TCP service's read tiers.
    ServeWarm,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "pbo-eval" => Some(Workload::PboEval),
            "census-cold" => Some(Workload::CensusCold),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    /// Its name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PboEval => "pbo-eval",
            Workload::CensusCold => "census-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (the timed window).
    At(Instant),
    /// After this many jobs per client (the traced run's fixed set).
    After(usize),
}

impl Stop {
    fn done(self, sent: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => sent >= n,
        }
    }
}

/// One completed (or lost) job.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Index into [`Run::inputs`].
    pub input: usize,
    /// `serve-warm` request kind.
    pub kind: Option<ReqKind>,
    /// Position in the client's sequence.
    pub seq: usize,
    /// Request to checked result, timed by the client.
    pub latency_ms: f64,
    /// When the result came back, in seconds since the window opened.
    pub done_s: f64,
    /// `optimized` / `advisory` / `failed` / `shed` / `lost` ...
    pub status: String,
    /// The reported result of an optimized job.
    pub claim: Option<Claim>,
    /// The transformed program's text (in-process workloads only).
    pub transformed: Option<String>,
    /// Whether the analysis came from the LRU or the store.
    pub cached: bool,
    /// Whether the journal answered.
    pub replayed: bool,
}

/// A finished run of one workload.
pub struct Run {
    /// Every set-up's duration in seconds.
    pub setup_s: Vec<f64>,
    /// Timed wall seconds.
    pub wall_s: f64,
    /// Jobs in completion order.
    pub records: Vec<Record>,
    /// The inputs [`Record::input`] indexes.
    pub inputs: Inputs,
    /// Service counters over the timed phase.
    pub metrics: MetricsSnapshot,
    /// Hex digest of the generated input set.
    pub digest: u64,
}

impl Run {
    /// Records of the fixed prefix (see [`FIXED_PREFIX`]).
    pub fn fixed(&self) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.seq < FIXED_PREFIX)
            .collect()
    }
}

/// Per-run scratch space inside the checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("run-{}-{tag}", std::process::id()))
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// The in-process [`Service`] configuration of a workload.
pub fn service_config(w: Workload) -> ServiceConfig {
    let cap = match w {
        Workload::ServeWarm => SERVE_LRU,
        _ => ServiceConfig::default().cache_capacity,
    };
    ServiceConfig::builder()
        .workers(1)
        .cache_capacity(cap)
        .build()
}

fn record_outcome(input: usize, seq: usize, o: &JobOutcome, latency_ms: f64) -> Record {
    let mut r = Record {
        input,
        seq,
        latency_ms,
        status: o.status.kind().to_string(),
        cached: o.metrics.cache_hit,
        ..Record::default()
    };
    if let JobStatus::Optimized(opt) = &o.status {
        r.claim = Some(Claim {
            types: opt.num_transformed,
            baseline_cycles: opt.eval.baseline_cycles,
            optimized_cycles: opt.eval.optimized_cycles,
            baseline_instructions: Some(opt.eval.baseline_instructions),
            optimized_instructions: Some(opt.eval.optimized_instructions),
        });
        // Only the fixed prefix feeds the oracle sample; keeping every
        // job's text would make peak RSS grow with the job count.
        if seq < FIXED_PREFIX {
            r.transformed = Some(opt.transformed.clone());
        }
    }
    r
}

/// The state an in-process workload runs against.
pub struct InProcess {
    /// The service.
    pub service: Service,
    /// The generated inputs, in submission order.
    pub inputs: Inputs,
    /// Their digest.
    pub digest: u64,
}

impl InProcess {
    /// The job for input `i`: parsed IR under PBO on `pbo-eval`,
    /// textual IR under the default ISPBO on `census-cold`. Built at
    /// submission so a pool never holds two copies of its programs.
    pub fn job(&self, i: usize) -> Job {
        let input = self.inputs.get(i);
        match &input.program {
            Some(p) => Job::from_program(input.id.clone(), p.clone()).scheme(SchemeSpec::Pbo),
            None => Job::from_source(input.id.clone(), input.text.clone()),
        }
    }
}

/// Set up `pbo-eval` or `census-cold` from scratch: generate the inputs,
/// build the service (with a fresh store on `census-cold`) and, on
/// `pbo-eval`, run one checked warm-up job per model.
pub fn setup_inprocess(
    w: Workload,
    seed: u64,
    count: usize,
    dir: &Path,
) -> Result<InProcess, String> {
    if w == Workload::PboEval {
        let (timed, warm) = inputs::pbo_eval(seed, count);
        let service = Service::new(service_config(w));
        for (i, input) in warm.iter().enumerate() {
            let job = Job::from_program(input.id.clone(), input.parsed()).scheme(SchemeSpec::Pbo);
            let r = record_outcome(i, 0, &service.run_job(&job, Instant::now()), 0.0);
            oracle::check_status(input, &r.status, r.claim.as_ref())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        return Ok(InProcess {
            service,
            digest: inputs::digest(&timed),
            inputs: Inputs::Listed(timed),
        });
    }
    let pool = CensusPool::new(seed, count);
    fresh_dir(dir).map_err(|e| format!("scratch dir: {e}"))?;
    let store = AnalysisStore::open(
        &dir.join("store"),
        slo_obs::Recorder::disabled(),
        FaultPlan::disabled(),
    )
    .map_err(|e| format!("store: {e}"))?;
    Ok(InProcess {
        service: Service::new(service_config(w)).with_store(store),
        digest: pool.digest(),
        inputs: Inputs::Census(pool),
    })
}

/// One client, closed loop: submit the next job only after the last
/// one's result is back.
pub fn drive_inprocess(state: &InProcess, stop: Stop) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let mut records = Vec::new();
    for i in 0..state.inputs.len() {
        if stop.done(i) {
            break;
        }
        let job = state.job(i);
        let t = Instant::now();
        let out = state.service.run_batch(std::slice::from_ref(&job));
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut r = record_outcome(i, i, &out[0], latency_ms);
        r.done_s = start.elapsed().as_secs_f64();
        records.push(r);
    }
    if matches!(stop, Stop::At(_)) && records.len() == state.inputs.len() {
        eprintln!("perfbench: input pool exhausted before the window closed");
    }
    (records, start.elapsed().as_secs_f64())
}

/// Jobs in an in-process pool: more than the window can take at this
/// commit's speed (pbo-eval ~10 jobs/s, census-cold ~30-45 jobs/s).
fn pool_size(w: Workload, seconds: u64) -> usize {
    let per_s = if w == Workload::PboEval { 20 } else { 90 };
    (seconds as usize * per_s).max(FIXED_PREFIX * 2)
}

/// Run `pbo-eval` or `census-cold` untraced.
pub fn run_inprocess(w: Workload, seed: u64, seconds: u64) -> Result<Run, String> {
    let mut setup_s = time_setups(w, seed, seconds)?;
    let dir = scratch_dir(w.name());
    let t = Instant::now();
    let state = setup_inprocess(w, seed, pool_size(w, seconds), &dir)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let before = state.service.metrics();
    let (records, wall_s) = drive_inprocess(
        &state,
        Stop::At(Instant::now() + Duration::from_secs(seconds)),
    );
    let metrics = state.service.metrics().since(&before);
    let InProcess {
        service,
        inputs,
        digest,
    } = state;
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Run {
        setup_s,
        wall_s,
        records,
        digest,
        inputs,
        metrics,
    })
}

/// Time complete set-ups of `w` from scratch, each torn down before the
/// next, until [`SETUP_REPS`] have run and [`SETUP_SECONDS`] have passed.
/// A `serve-warm` set-up ends when both connections have shaken hands.
pub fn time_setups(w: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let dir = scratch_dir(&format!("{}-setup", w.name()));
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        if w == Workload::ServeWarm {
            let state = setup_serve(seed, serve_per_client(seconds), &dir)?;
            with_server(&state, |_| times.push(t.elapsed().as_secs_f64()))?;
        } else {
            let state = setup_inprocess(w, seed, pool_size(w, seconds), &dir)?;
            times.push(t.elapsed().as_secs_f64());
            drop(state);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(times)
}

// --- serve-warm --------------------------------------------------------

/// A `serve-warm` server's state: inputs on disk, store, journal and the
/// service, filled by serving each working-set program once.
pub struct ServeState {
    /// Directory the wire lines resolve against.
    pub dir: PathBuf,
    /// The service.
    pub service: Service,
    /// The write-ahead journal.
    pub journal: Mutex<Journal>,
    /// Working set, then fresh programs.
    pub inputs: Vec<Input>,
    /// Per-client request sequences.
    pub requests: Vec<Vec<Request>>,
    /// Digest of the programs and request lines.
    pub digest: u64,
}

impl ServeState {
    /// The input a request refers to.
    pub fn input_of(&self, kind: ReqKind) -> usize {
        match kind {
            ReqKind::Known(w) | ReqKind::Repeat(w) => w,
            ReqKind::Fresh(f) => WORKING_SET + f,
        }
    }

    /// Write a fresh program's file just before its request is sent.
    /// Writing the whole fresh pool in set-up made set-up time a measure
    /// of the file system (~1000 files), not of the service.
    pub fn prepare(&self, kind: ReqKind) -> Result<(), String> {
        match kind {
            ReqKind::Fresh(_) => write_input(&self.dir, &self.inputs[self.input_of(kind)]),
            _ => Ok(()),
        }
    }
}

fn write_input(dir: &Path, input: &Input) -> Result<(), String> {
    std::fs::write(dir.join(format!("{}.sir", input.id)), &input.text)
        .map_err(|e| format!("write input: {e}"))
}

/// Generate the inputs, write the working set, open store and journal,
/// and run the fill pass.
pub fn setup_serve(seed: u64, per_client: usize, dir: &Path) -> Result<ServeState, String> {
    // 5 % of requests are fresh; five standard deviations of headroom
    // keep the pool from running dry within the sequence.
    let expected = (per_client * CLIENTS) as f64 * 0.05;
    let fresh_count = (expected + 5.0 * expected.sqrt()) as usize + 5;
    let working = inputs::serve_working_set(seed, WORKING_SET);
    let fresh = inputs::serve_fresh(seed, fresh_count);
    let requests = inputs::serve_requests(seed, CLIENTS, per_client, WORKING_SET, fresh_count);
    let mut digest = slo_ir::Fnv64::new();
    digest.write_str(&format!(
        "{:016x}{:016x}",
        inputs::digest(&working),
        inputs::digest(&fresh)
    ));
    for r in requests.iter().flatten() {
        digest.write_str(&r.line);
    }
    fresh_dir(dir).map_err(|e| format!("scratch dir: {e}"))?;
    let inputs: Vec<Input> = working.into_iter().chain(fresh).collect();
    for i in &inputs[..WORKING_SET] {
        write_input(dir, i)?;
    }
    let store = AnalysisStore::open(
        &dir.join("store"),
        slo_obs::Recorder::disabled(),
        FaultPlan::disabled(),
    )
    .map_err(|e| format!("store: {e}"))?;
    let journal = Journal::open(&dir.join("journal.jsonl")).map_err(|e| format!("journal: {e}"))?;
    let state = ServeState {
        dir: dir.to_path_buf(),
        service: Service::new(service_config(Workload::ServeWarm)).with_store(store),
        journal: Mutex::new(journal),
        inputs,
        requests,
        digest: digest.digest(),
    };
    let session = Session::new(
        &state.service,
        Some(&state.journal),
        state.dir.clone(),
        false,
    );
    for w in 0..WORKING_SET {
        let reply = session.handle_line(&inputs::fill_line(w));
        let ok = matches!(&reply, Reply::Lines(l) if l.len() == 1
            && Response::parse(&l[0]).is_ok_and(|r| r.status == "optimized"));
        if !ok {
            return Err(format!("fill pass: w{w}: {reply:?}"));
        }
    }
    Ok(state)
}

/// One persistent connection.
pub struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    /// Connect and complete the `hello` handshake.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut c = Client {
            r: BufReader::new(s.try_clone()?),
            w: s,
        };
        let hello = c.call("hello v=1")?;
        if !Response::parse(&hello).is_ok_and(|r| r.status == "ok") {
            return Err(std::io::Error::other(format!("bad handshake: {hello}")));
        }
        Ok(c)
    }

    /// Send one line, read one reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.w.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.r.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        Ok(reply)
    }
}

/// Bind a [`NetServer`] over `state`, connect the clients and hand them
/// to `f`; then drain the server and join it.
pub fn with_server<R>(state: &ServeState, f: impl FnOnce(Vec<Client>) -> R) -> Result<R, String> {
    let server = NetServer::bind(NetConfig {
        dir: state.dir.clone(),
        ..NetConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&state.service, Some(&state.journal)));
        let clients: Result<Vec<Client>, String> = (0..CLIENTS)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect();
        let out = clients.map(f);
        server.request_shutdown();
        let served = handle.join().expect("server thread panicked");
        served.map_err(|e| format!("server: {e}"))?;
        out
    })
}

/// Both clients in parallel, each closed loop over its own sequence.
pub fn drive_serve(state: &ServeState, clients: Vec<Client>, stop: Stop) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let per_client: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&state.requests)
            .map(|(mut client, seq)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, req) in seq.iter().enumerate() {
                        if stop.done(i) {
                            break;
                        }
                        let prepared = state.prepare(req.kind);
                        let t = Instant::now();
                        let reply = match prepared {
                            Ok(()) => client.call(&req.line),
                            Err(e) => Err(std::io::Error::other(e)),
                        };
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let mut r = Record {
                            input: state.input_of(req.kind),
                            kind: Some(req.kind),
                            seq: i,
                            latency_ms,
                            done_s: start.elapsed().as_secs_f64(),
                            status: "lost".to_string(),
                            ..Record::default()
                        };
                        match reply.as_deref().map(Response::parse) {
                            Ok(Ok(resp)) => {
                                r.status = resp.status.clone();
                                r.cached = resp.cached;
                                r.replayed = resp.replayed;
                                if let (Some(t), Some(b), Some(o)) =
                                    (resp.types, resp.baseline_cycles, resp.optimized_cycles)
                                {
                                    r.claim = Some(Claim {
                                        types: t as usize,
                                        baseline_cycles: b,
                                        optimized_cycles: o,
                                        baseline_instructions: None,
                                        optimized_instructions: None,
                                    });
                                }
                            }
                            Ok(Err(_)) => r.status = "unparseable".to_string(),
                            Err(_) => {}
                        }
                        let lost = r.status == "lost";
                        out.push(r);
                        if lost {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (
        per_client.into_iter().flatten().collect(),
        start.elapsed().as_secs_f64(),
    )
}

/// Requests per client the sequences hold (the window ends first).
pub fn serve_per_client(seconds: u64) -> usize {
    (seconds as usize * 300).max(FIXED_PREFIX * 2)
}

/// Run `serve-warm` untraced.
pub fn run_serve(seed: u64, seconds: u64) -> Result<Run, String> {
    let mut setup_s = time_setups(Workload::ServeWarm, seed, seconds)?;
    let dir = scratch_dir("serve");
    let t = Instant::now();
    let state = setup_serve(seed, serve_per_client(seconds), &dir)?;
    let (records, wall_s, metrics) = with_server(&state, |clients| {
        setup_s.push(t.elapsed().as_secs_f64());
        let before = state.service.metrics();
        let stop = Stop::At(Instant::now() + Duration::from_secs(seconds));
        let (records, wall_s) = drive_serve(&state, clients, stop);
        (records, wall_s, state.service.metrics().since(&before))
    })?;
    let run = Run {
        setup_s,
        wall_s,
        records,
        inputs: Inputs::Listed(state.inputs.clone()),
        metrics,
        digest: state.digest,
    };
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(run)
}

/// Check every record and re-run the seeded sample on the reference
/// engine. Returns the number of failed jobs and the first messages.
pub fn verify(run: &Run, seed: u64) -> (usize, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    let note = |e: String, errors: &mut Vec<String>| {
        if errors.len() < 8 {
            errors.push(e);
        }
    };
    for r in &run.records {
        let input = run.inputs.get(r.input);
        let mut res = oracle::check_status(&input, &r.status, r.claim.as_ref());
        if res.is_ok() {
            res = match r.kind {
                Some(ReqKind::Known(_)) if !r.cached || r.replayed => Err(format!(
                    "{}: known program not served from the LRU or store",
                    input.id
                )),
                Some(ReqKind::Repeat(_)) if !r.replayed => Err(format!(
                    "{}: repeated line not replayed from the journal",
                    input.id
                )),
                Some(ReqKind::Fresh(_)) if r.cached || r.replayed => {
                    Err(format!("{}: fresh program answered from a cache", input.id))
                }
                None if r.cached => Err(format!("{}: distinct program hit a cache", input.id)),
                _ => Ok(()),
            };
        }
        if let Err(e) = res {
            failed += 1;
            note(e, &mut errors);
        }
    }
    let fixed = run.fixed();
    for &k in &oracle::sample(seed, fixed.len(), ORACLE_SAMPLE) {
        let r = fixed[k];
        let Some(claim) = &r.claim else { continue };
        let input = run.inputs.get(r.input);
        let baseline = input.parsed();
        let transformed = match &r.transformed {
            Some(text) => slo_ir::parser::parse(text).map_err(|e| e.to_string()),
            None => slo::compile(
                &baseline,
                &slo::analysis::WeightScheme::Ispbo,
                &slo::PipelineConfig::default(),
            )
            .map(|c| c.program)
            .map_err(|e| e.to_string()),
        };
        let res =
            transformed.and_then(|t| oracle::check_reference(&input.id, &baseline, &t, claim));
        if let Err(e) = res {
            failed += 1;
            note(e, &mut errors);
        }
    }
    (failed, errors)
}

/// 100 × the geometric mean of baseline / optimized cycles over the
/// optimized jobs of the fixed prefix: the simulated speed of the code
/// the compiler emits relative to the original (100 = unchanged).
pub fn layout_speedup_pct(run: &Run) -> f64 {
    let ratios: Vec<f64> = run
        .fixed()
        .iter()
        .filter_map(|r| r.claim.as_ref())
        .map(|c| c.baseline_cycles as f64 / c.optimized_cycles as f64)
        .collect();
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    100.0 * log_mean.exp()
}
