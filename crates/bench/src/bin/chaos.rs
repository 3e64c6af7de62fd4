//! Chaos campaign driver: seeded fault-injection sweeps over a mixed
//! batch, asserting the degradation-ladder invariant.
//!
//! Builds the same mixed workload batch as the `batch` driver (mcf,
//! art, moldyn plus kernel variants crossed with the static estimator
//! family), runs it once fault-free as the reference, then replays it
//! under a seeded [`slo_service::FaultPlan`] per campaign seed. The
//! invariant checked for every job of every campaign:
//!
//! * an outcome that stays **Optimized** is bit-identical to the
//!   fault-free reference — faults never silently change optimized
//!   bits;
//! * faults may move a job **down** the ladder (Optimized → Advisory);
//! * a parseable input never lands on **Failed** — that rung is
//!   reserved for unusable input, which this batch has none of.
//!
//! Any violation prints `FAIL` and the driver exits nonzero, so CI can
//! gate on it. Campaigns run on the virtual clock (retry backoff costs
//! no wall time) with two workers, so the pool's worker-death site
//! participates. `--json` merges the tallies into `BENCH_vm.json`
//! under `chaos`.
//!
//! ```text
//! chaos [--seeds N] [--seed-start N] [--jobs N] [--net] [--json]
//! ```
//!
//! `--net` additionally sweeps the socket fault sites (accept-storm,
//! slow-loris, injected disconnect) by standing up an in-process TCP
//! server per seed and hammering it with retrying clients; tallies
//! land under `chaos.net`.

use bench::report::{json_flag, record_chaos, record_chaos_net, ChaosStats, NetChaosStats};
use slo_service::{
    Clock, FaultPlan, Job, JobOutcome, JobStatus, NetConfig, NetServer, Response, RetryPolicy,
    SchemeSpec, Service, ServiceConfig,
};
use slo_workloads::art::{self, ArtConfig};
use slo_workloads::kernel;
use slo_workloads::mcf::{self, McfConfig};
use slo_workloads::moldyn::{self, MoldynConfig};

/// The comparable essence of an outcome: everything except timings and
/// supervision bookkeeping (attempts may legitimately differ under
/// chaos — the bits must not).
fn digest(o: &JobOutcome) -> String {
    match &o.status {
        JobStatus::Optimized(opt) => format!(
            "{} optimized {} {} {} {} {} {:016x}\n{}",
            o.id,
            opt.num_transformed,
            opt.eval.baseline_cycles,
            opt.eval.optimized_cycles,
            opt.eval.baseline_instructions,
            opt.eval.optimized_instructions,
            opt.ipa_fingerprint,
            opt.transformed
        ),
        JobStatus::Advisory { reason, .. } => format!("{} advisory {}", o.id, reason.kind()),
        JobStatus::Failed(msg) => format!("{} failed {msg}", o.id),
    }
}

fn build_jobs(n: usize) -> Vec<Job> {
    let programs = [
        (
            "mcf",
            mcf::build_config(McfConfig {
                n: 300,
                iters: 2,
                skew: 0,
            }),
        ),
        ("art", art::build_config(ArtConfig { n: 800, passes: 1 })),
        (
            "moldyn",
            moldyn::build_config(MoldynConfig {
                n: 300,
                steps: 1,
                neighbors: 6,
            }),
        ),
        ("kernel64", kernel::build(64, 200)),
    ];
    let schemes = [
        SchemeSpec::Ispbo,
        SchemeSpec::Spbo,
        SchemeSpec::IspboNo,
        SchemeSpec::IspboW,
    ];
    (0..n)
        .map(|i| {
            let (name, prog) = &programs[i % programs.len()];
            let scheme = schemes[(i / programs.len()) % schemes.len()].clone();
            Job::from_program(format!("{name}#{i}"), prog.clone()).scheme(scheme)
        })
        .collect()
}

fn flag_value(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The wire-visible essence of a reply: what must match the fault-free
/// reference bit-for-bit when a job stays optimized. Attempts and
/// cache provenance legitimately vary under chaos.
fn wire_digest(r: &Response) -> (String, String, Option<u64>, Option<u64>, Option<u64>) {
    (
        r.id.clone(),
        r.status.clone(),
        r.types,
        r.baseline_cycles,
        r.optimized_cycles,
    )
}

/// One client-side request with retry over every socket fault: busy
/// rejects, shed replies, injected disconnects, slow-loris closes.
/// Returns the terminal reply and the number of retries it took.
fn send_with_retry(addr: &std::net::SocketAddr, line: &str, split_frame: bool) -> (Response, u64) {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut retries = 0u64;
    loop {
        assert!(retries < 200, "socket chaos never converged for `{line}`");
        let attempt = (|| -> Result<Option<Response>, std::io::Error> {
            let mut stream = std::net::TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
            if split_frame && line.len() > 4 {
                // Open a partial-frame window so the server's
                // slow-loris site has something to fire on.
                let (a, b) = line.split_at(line.len() / 2);
                stream.write_all(a.as_bytes())?;
                std::thread::sleep(std::time::Duration::from_millis(5));
                stream.write_all(format!("{b}\n").as_bytes())?;
            } else {
                // One segment per frame (avoids a Nagle stall).
                stream.write_all(format!("{line}\n").as_bytes())?;
            }
            let mut reply = String::new();
            if BufReader::new(stream).read_line(&mut reply)? == 0 {
                return Ok(None); // injected disconnect before the reply
            }
            Ok(Response::parse(reply.trim()).ok())
        })();
        match attempt {
            Ok(Some(r)) => match r.status.as_str() {
                // Transient, by protocol contract: honour the hint.
                "shed" => {
                    let hint = r.retry_after_ms.unwrap_or(10).min(100);
                    std::thread::sleep(std::time::Duration::from_millis(hint));
                }
                // `error` replies are transient under chaos: the
                // manifest fault sites garble request lines in flight,
                // and an error reply is the contract's answer to a
                // garbled frame (likewise slow-loris closes). A
                // *deterministic* error on a valid line can't hide
                // here — it would trip the convergence assert above.
                "error" => {}
                _ => return (r, retries),
            },
            Ok(None) | Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        retries += 1;
    }
}

/// The socket campaign: per seed, an in-process TCP server over a
/// chaos-enabled service (the plan drives the `net-*` fault sites),
/// hammered by retrying clients. Every valid line must land on the
/// fault-free wire digest or (at worst) degrade to advisory — never
/// fail, never change optimized bits, never lose a reply.
fn net_campaign(seeds: usize, seed_start: u64, json: bool) -> usize {
    let dir = std::env::temp_dir().join(format!("slo-chaos-net-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("hot.sir"),
        "record pair { hot: i64, c1: i64, c2: i64 }\n\n\
         func main() -> i64 {\n\
         bb0:\n  r0 = alloc pair, 8\n  r1 = 0\n  jump bb1\n\
         bb1:\n  r2 = cmp.lt r1, 8\n  br r2, bb2, bb3\n\
         bb2:\n  r3 = indexaddr r0, pair, r1\n  r4 = fieldaddr r3, pair.hot\n\
         \x20 store r1, r4 : i64\n  r5 = load r4 : i64\n  r1 = add r1, 1\n  jump bb1\n\
         bb3:\n  r6 = fieldaddr r0, pair.c1\n  store 1, r6 : i64\n  r7 = load r6 : i64\n\
         \x20 ret r7\n}\n",
    )
    .expect("write hot.sir");
    std::fs::write(
        dir.join("tiny.sir"),
        "func main() -> i64 {\nbb0:\n  ret 40\n}\n",
    )
    .expect("write tiny.sir");
    let lines: Vec<String> = (0..12)
        .map(|i| {
            let file = if i % 2 == 0 { "hot.sir" } else { "tiny.sir" };
            let scheme = ["ispbo", "spbo"][(i / 2) % 2];
            format!("{file} scheme={scheme} steps={}", 1_000_000 + i)
        })
        .collect();

    // Fault-free reference digests, computed through the same wire
    // types the clients parse.
    let reference_svc = Service::new(ServiceConfig::builder().workers(1).build());
    let reference: Vec<_> = lines
        .iter()
        .map(|l| {
            let jobs = slo_service::parse_job_line(&dir, l).expect("valid line");
            let outcomes = reference_svc.run_batch(&jobs);
            wire_digest(&Response::from_outcome(&outcomes[0]))
        })
        .collect();

    let mut violations = 0usize;
    let mut rejected = 0u64;
    let mut shed = 0u64;
    let mut disconnects = 0u64;
    let mut slow_closes = 0u64;
    let mut client_retries = 0u64;
    for seed in seed_start..seed_start + seeds as u64 {
        let svc = Service::with_chaos(
            ServiceConfig::builder()
                .workers(2)
                .cache_capacity(64)
                .build(),
            slo_obs::Recorder::disabled(),
            FaultPlan::seeded(seed),
            RetryPolicy::default(),
            Clock::virtual_clock(),
        );
        let server = NetServer::bind(NetConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            max_clients: 8,
            max_inflight: 2,
            queue_capacity: 2,
            per_client_inflight: 8,
            read_timeout_ms: 50,
            retry_after_ms: 5,
            legacy: false,
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let mut replies: Vec<(usize, Response)> = Vec::new();
        std::thread::scope(|s| {
            let runner = s.spawn(|| server.run(&svc, None));
            let workers: Vec<_> = (0..4)
                .map(|w| {
                    let lines = &lines;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut retries = 0u64;
                        for (i, line) in lines.iter().enumerate().skip(w).step_by(4) {
                            let split = (seed as usize + i).is_multiple_of(4);
                            let (r, n) = send_with_retry(&addr, line, split);
                            retries += n;
                            out.push((i, r));
                        }
                        (out, retries)
                    })
                })
                .collect();
            for w in workers {
                let (out, retries) = w.join().expect("client thread");
                replies.extend(out);
                client_retries += retries;
            }
            server.request_shutdown();
            runner.join().expect("server thread").expect("server run");
        });
        assert_eq!(replies.len(), lines.len(), "every line must be answered");
        for (i, r) in &replies {
            let want = &reference[*i];
            match r.status.as_str() {
                "optimized" => {
                    if &wire_digest(r) != want {
                        println!(
                            "FAIL: net seed {seed}: `{}` stayed optimized but its wire bits changed",
                            lines[*i]
                        );
                        violations += 1;
                    }
                }
                "advisory" => {} // down the ladder: allowed
                other => {
                    // `shed`/`error` never terminate the retry loop,
                    // so anything else here is `failed` — the rung
                    // reserved for unusable input this sweep never
                    // sends.
                    println!(
                        "FAIL: net seed {seed}: `{}` answered `{other}` on a valid line",
                        lines[*i]
                    );
                    violations += 1;
                }
            }
        }
        let net = server.metrics();
        println!(
            "net seed {seed}: {} accepted, {} rejected, {} shed, {} disconnect(s), \
             {} slow close(s), {} request(s)",
            net.accepted, net.rejected, net.shed, net.disconnects, net.slow_closes, net.requests
        );
        rejected += net.rejected;
        shed += net.shed;
        disconnects += net.disconnects;
        slow_closes += net.slow_closes;
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "chaos.net: {seeds} seed(s) x {} lines, {rejected} rejected, {shed} shed, \
         {disconnects} disconnect(s), {slow_closes} slow close(s), {client_retries} client \
         retr{}, {violations} ladder violation(s)",
        lines.len(),
        if client_retries == 1 { "y" } else { "ies" },
    );
    if json {
        record_chaos_net(NetChaosStats {
            seeds,
            jobs_per_seed: lines.len(),
            violations,
            rejected,
            shed,
            disconnects,
            slow_closes,
            client_retries,
        });
    }
    violations
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = json_flag(&mut args);
    let net = {
        let before = args.len();
        args.retain(|a| a != "--net");
        args.len() != before
    };
    let seeds = flag_value(&args, "--seeds").unwrap_or(8);
    let seed_start = flag_value(&args, "--seed-start").unwrap_or(0) as u64;
    let num_jobs = flag_value(&args, "--jobs").unwrap_or(24);
    let jobs = build_jobs(num_jobs);

    // Fault-free reference: the bits every chaos-surviving Optimized
    // outcome must reproduce.
    let reference_svc = Service::new(
        ServiceConfig::builder()
            .workers(2)
            .cache_capacity(64)
            .build(),
    );
    let reference: Vec<String> = reference_svc.run_batch(&jobs).iter().map(digest).collect();
    let ref_optimized = reference
        .iter()
        .filter(|d| d.contains(" optimized "))
        .count();
    println!("reference: {num_jobs} jobs, {ref_optimized} optimized (fault-free)");

    let mut violations = 0usize;
    let mut optimized = 0u64;
    let mut advisory = 0u64;
    let mut faults = 0u64;
    let mut retries = 0u64;
    let mut quarantined = 0u64;
    for seed in seed_start..seed_start + seeds as u64 {
        let svc = Service::with_chaos(
            ServiceConfig::builder()
                .workers(2)
                .cache_capacity(64)
                .build(),
            slo_obs::Recorder::disabled(),
            FaultPlan::seeded(seed),
            RetryPolicy::default(),
            Clock::virtual_clock(),
        );
        let outcomes = svc.run_batch(&jobs);
        for (o, want) in outcomes.iter().zip(&reference) {
            match &o.status {
                JobStatus::Optimized(_) => {
                    if &digest(o) != want {
                        println!(
                            "FAIL: seed {seed}: {} stayed optimized but its bits changed",
                            o.id
                        );
                        violations += 1;
                    }
                }
                JobStatus::Advisory { .. } => {} // down the ladder: allowed
                JobStatus::Failed(msg) => {
                    println!(
                        "FAIL: seed {seed}: {} fell to failed on parseable input: {msg}",
                        o.id
                    );
                    violations += 1;
                }
            }
        }
        let m = svc.metrics();
        println!(
            "seed {seed}: {} optimized, {} advisory, {} failed; {} fault(s) injected, \
             {} retr{}, {} quarantined",
            m.optimized,
            m.degraded,
            m.failed,
            m.faults_injected_total(),
            m.retries,
            if m.retries == 1 { "y" } else { "ies" },
            m.quarantined
        );
        optimized += m.optimized;
        advisory += m.degraded;
        faults += m.faults_injected_total();
        retries += m.retries;
        quarantined += m.quarantined;
    }

    println!(
        "chaos: {seeds} seed(s) x {num_jobs} jobs, {faults} fault(s) injected, \
         {retries} retr{}, {quarantined} quarantined, {violations} ladder violation(s)",
        if retries == 1 { "y" } else { "ies" },
    );
    if json {
        record_chaos(ChaosStats {
            seeds,
            jobs_per_seed: num_jobs,
            violations,
            faults_injected: faults,
            retries,
            quarantined,
            optimized,
            advisory,
        });
    }
    // `--net` grows the campaign with the socket fault sites: the same
    // seeds, but delivered over real TCP through admission control.
    // Recorded under `chaos.net`, which must follow `record_chaos`
    // (that call replaces the whole `chaos` object).
    let net_violations = if net {
        net_campaign(seeds, seed_start, json)
    } else {
        0
    };
    if violations + net_violations > 0 {
        println!("FAIL: the degradation ladder was violated");
        std::process::exit(1);
    }
    println!("ok: faults only ever moved outcomes down the ladder");
}
