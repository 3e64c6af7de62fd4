//! End-to-end tests of the installed `slo` binary (real process spawn,
//! real files) against the shipped sample program.

use std::path::PathBuf;
use std::process::Command;

fn slo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slo"))
}

fn sample() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/ir/interleaved.sir");
    assert!(p.exists(), "sample missing: {}", p.display());
    p
}

#[test]
fn analyze_sample_file() {
    let out = slo()
        .args(["analyze"])
        .arg(sample())
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 record types, 1 legal"));
    assert!(text.contains("item"));
}

#[test]
fn optimize_writes_output_file() {
    let dir = std::env::temp_dir();
    let out_path = dir.join(format!("slo-e2e-{}.sir", std::process::id()));
    let out = slo()
        .args(["optimize"])
        .arg(sample())
        .arg("-o")
        .arg(&out_path)
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).expect("output written");
    assert!(written.contains("record item"));
    assert!(written.contains("item_cold"), "split must have happened");
    // the emitted IR is itself runnable
    let run = slo()
        .args(["run"])
        .arg(&out_path)
        .output()
        .expect("spawn slo");
    assert!(run.status.success());
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn bad_input_exits_nonzero() {
    let out = slo()
        .args(["run", "/nonexistent.sir"])
        .output()
        .expect("spawn slo");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_exits_zero() {
    let out = slo().args(["help"]).output().expect("spawn slo");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: slo"));
}

/// Exit codes are per error domain: scripts can branch on *why*.
#[test]
fn exit_codes_distinguish_error_domains() {
    // usage error -> 2
    let out = slo().args(["bogus-command"]).output().expect("spawn slo");
    assert_eq!(out.status.code(), Some(2));

    // missing file (I/O) -> 8
    let out = slo()
        .args(["run", "/nonexistent.sir"])
        .output()
        .expect("spawn slo");
    assert_eq!(out.status.code(), Some(8));

    // unparseable IR -> 3
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("slo-e2e-bad-{}.sir", std::process::id()));
    std::fs::write(&bad, "record broken {").expect("write temp");
    let out = slo().args(["run"]).arg(&bad).output().expect("spawn slo");
    assert_eq!(out.status.code(), Some(3));
    let _ = std::fs::remove_file(&bad);
}

fn regression(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("fuzz/regressions");
    p.push(name);
    assert!(p.exists(), "regression missing: {}", p.display());
    p
}

/// Type graphs with no finite layout (or a size past `u64`) are refused
/// by every front end before any layout is read.
#[test]
fn type_graph_repros_exit_3_under_every_front_end() {
    for (file, named) in [
        ("type-self-cycle.sir", "record `p` contains itself by value"),
        ("type-two-record-cycle.sir", "(p -> q -> p)"),
        (
            "type-array-cycle.sir",
            "record `p` contains itself by value",
        ),
        (
            "type-array-size-overflow.sir",
            "size of `[i64; 4611686018427387904]` overflows u64",
        ),
    ] {
        for cmd in ["print", "analyze", "advise", "optimize", "run"] {
            let out = slo()
                .arg(cmd)
                .arg(regression(file))
                .output()
                .expect("spawn slo");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(3), "{cmd} {file}: {err}");
            assert!(
                err.contains("invalid IR") && err.contains(named),
                "{cmd} {file}: {err}"
            );
        }
    }
}

#[test]
fn serve_answers_the_job_after_a_cyclic_record() {
    use std::io::Write as _;
    let good = sample();
    let bad = regression("type-self-cycle.sir");
    let mut child = slo()
        .args(["serve"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    let jobs = format!(
        "{} scheme=ispbo\n{} scheme=ispbo\n{} scheme=ispbo\nquit\n",
        good.display(),
        bad.display(),
        good.display()
    );
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(jobs.as_bytes())
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<slo_service::Response> = text
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| slo_service::Response::parse(l).expect("reply parses"))
        .collect();
    assert_eq!(replies.len(), 3, "one reply per job:\n{text}");
    assert_eq!(replies[0].status, "optimized", "{text}");
    assert_eq!(replies[1].status, "failed", "{text}");
    assert!(
        replies[1]
            .message
            .as_deref()
            .is_some_and(|m| m.contains("invalid IR")),
        "{text}"
    );
    assert_eq!(replies[2].status, "optimized", "{text}");
}

#[test]
fn batch_reports_a_cyclic_record_as_failed() {
    let dir = std::env::temp_dir().join(format!("slo-e2e-cycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = dir.join("manifest.txt");
    std::fs::write(
        &manifest,
        format!(
            "{} scheme=ispbo\n{} scheme=ispbo\n",
            regression("type-two-record-cycle.sir").display(),
            sample().display()
        ),
    )
    .expect("write manifest");
    let out = slo()
        .arg("batch")
        .arg(&manifest)
        .output()
        .expect("spawn slo");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 failed"), "{text}");
    assert!(text.contains("invalid IR"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn smoke_manifest() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("examples/batch/smoke.txt");
    assert!(p.exists(), "manifest missing: {}", p.display());
    p
}

#[test]
fn batch_runs_the_smoke_manifest_strictly() {
    let out = slo()
        .args(["batch"])
        .arg(smoke_manifest())
        .args(["--workers", "2", "--strict", "--json"])
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimized"));
    assert!(text.contains("[cached]"), "repeats must hit the cache");
    assert!(text.contains("0 advisory, 0 failed"));
    assert!(text.contains("\"cache_hit_rate\""), "--json metrics block");
}

#[test]
fn batch_strict_fails_on_degraded_jobs() {
    let dir = std::env::temp_dir().join(format!("slo-e2e-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("bad.sir"), "record broken {").expect("write");
    std::fs::write(dir.join("jobs.txt"), "bad.sir\n").expect("write");

    let out = slo()
        .args(["batch"])
        .arg(dir.join("jobs.txt"))
        .args(["--strict"])
        .output()
        .expect("spawn slo");
    assert_eq!(
        out.status.code(),
        Some(2),
        "strict batch failure is a usage error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed job"));

    // without --strict the same batch reports and exits zero
    let out = slo()
        .args(["batch"])
        .arg(dir.join("jobs.txt"))
        .output()
        .expect("spawn slo");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("failed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_processes_jobs_from_stdin() {
    use std::io::Write as _;
    let mut child = slo()
        .args(["serve"])
        .current_dir(smoke_manifest().parent().expect("dir"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b"../ir/hotcold.sir scheme=ispbo\n../ir/hotcold.sir scheme=ispbo\nmetrics\nquit\n",
        )
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"status\":\"optimized\""), "{text}");
    assert!(
        text.contains("\"cached\":true"),
        "second identical job hits the cache:\n{text}"
    );
    assert!(
        text.contains("\"cache_hits\": 1"),
        "metrics command answers"
    );
    assert!(text.contains("served 2 job(s)"));
}

/// A malformed manifest line mid-stream must degrade to a structured
/// error reply without killing the serve loop: jobs after it still
/// run, and every error carries a machine-parseable `code`.
#[test]
fn serve_survives_malformed_manifest_lines_mid_stream() {
    use std::io::Write as _;
    let mut child = slo()
        .args(["serve"])
        .current_dir(smoke_manifest().parent().expect("dir"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b"../ir/hotcold.sir scheme=ispbo\n\
              /nonexistent-program.sir scheme=ispbo\n\
              ../ir/hotcold.sir scheme=bogus-scheme\n\
              ../ir/hotcold.sir repeat=zero\n\
              ../ir/hotcold.sir scheme=ispbo\n\
              quit\n",
        )
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "malformed lines must not kill serve");
    let text = String::from_utf8_lossy(&out.stdout);
    let errors: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"status\":\"error\""))
        .collect();
    assert_eq!(
        errors.len(),
        3,
        "each bad line answers with one error reply:\n{text}"
    );
    for line in &errors {
        let r = slo_service::Response::parse(line).expect("error reply parses");
        assert!(r.code.is_some(), "error replies carry a code: {line}");
        assert!(r.message.is_some(), "error replies carry a message: {line}");
    }
    assert!(
        text.contains("served 2 job(s)"),
        "both good jobs (before and after the bad lines) ran:\n{text}"
    );
    assert!(
        text.contains("\"cached\":true"),
        "the second good job still hits the cache:\n{text}"
    );
}

/// `--legacy-lines` keeps the pre-protocol human-readable replies for
/// scripts that scraped them: `error: ` prefixes and the `[cached]`
/// suffix, no JSON.
#[test]
fn serve_legacy_lines_keeps_the_old_format() {
    use std::io::Write as _;
    let mut child = slo()
        .args(["serve", "--legacy-lines"])
        .current_dir(smoke_manifest().parent().expect("dir"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b"../ir/hotcold.sir scheme=ispbo\n\
              ../ir/hotcold.sir scheme=bogus-scheme\n\
              ../ir/hotcold.sir scheme=ispbo\n\
              quit\n",
        )
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.lines().filter(|l| l.starts_with("error: ")).count(),
        1,
        "legacy error prefix:\n{text}"
    );
    assert!(text.contains("[cached]"), "legacy cache suffix:\n{text}");
    assert!(
        !text.contains("\"status\""),
        "no JSON in legacy mode:\n{text}"
    );
}

/// `--wire --workers 1` replies to the smoke manifest are pinned byte
/// for byte by `examples/batch/smoke.wire` (CI diffs the release build
/// against the same file).
#[test]
fn batch_wire_replies_match_the_committed_golden() {
    let out = slo()
        .args(["batch"])
        .arg(smoke_manifest())
        .args(["--wire", "--workers", "1"])
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden =
        std::fs::read_to_string(smoke_manifest().with_extension("wire")).expect("read smoke.wire");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

/// `optimize --profile --measure` evaluates against the instrumented
/// profile run instead of running the input a second time: same
/// report, one `vm.run` fewer (profile + transformed, no baseline).
#[test]
fn optimize_measure_reuses_the_profile_run() {
    let mut hotcold = sample();
    hotcold.set_file_name("hotcold.sir");
    let trace = std::env::temp_dir().join(format!("slo-e2e-measure-{}.json", std::process::id()));
    let out = slo()
        .args(["optimize"])
        .arg(&hotcold)
        .args(["--profile", "--measure", "--trace-json"])
        .arg(&trace)
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "scheme PBO -> 1 type(s) transformed\n  \
         pair                     Split { hot_order: [0], cold: [1, 2], dead: [] }\n\
         cycles 1243 -> 1716 (-27.6%)\n"
    );
    let json = std::fs::read_to_string(&trace).expect("read trace");
    assert_eq!(json.matches("\"name\":\"vm.run\"").count(), 2, "{json}");
    let _ = std::fs::remove_file(&trace);
}

/// `--trace-json` writes a Chrome trace that the binary's own
/// conformance checker accepts, with every pipeline phase present —
/// and tracing does not change the compiled output.
#[test]
fn traced_compile_passes_trace_check_and_output_is_unchanged() {
    // Same output filename in two directories, so the `wrote ...` line
    // (and with it the whole stdout) is comparable byte-for-byte.
    let pid = std::process::id();
    let dir_plain = std::env::temp_dir().join(format!("slo-e2e-plain-{pid}"));
    let dir_traced = std::env::temp_dir().join(format!("slo-e2e-traced-{pid}"));
    std::fs::create_dir_all(&dir_plain).expect("mkdir");
    std::fs::create_dir_all(&dir_traced).expect("mkdir");
    let out_plain = dir_plain.join("out.sir");
    let out_traced = dir_traced.join("out.sir");
    let trace = std::env::temp_dir().join(format!("slo-e2e-trace-{pid}.json"));

    let plain = slo()
        .args(["optimize"])
        .arg(sample())
        .args(["-o", "out.sir"])
        .current_dir(&dir_plain)
        .output()
        .expect("spawn slo");
    assert!(plain.status.success());

    let traced = slo()
        .args(["compile"]) // the optimize alias
        .arg(sample())
        .args(["-o", "out.sir"])
        .arg("--trace-json")
        .arg(&trace)
        .current_dir(&dir_traced)
        .output()
        .expect("spawn slo");
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    assert_eq!(
        std::fs::read(&out_plain).expect("plain output"),
        std::fs::read(&out_traced).expect("traced output"),
        "tracing changed the compiled program"
    );
    assert_eq!(
        plain.stdout, traced.stdout,
        "tracing changed the human-readable report"
    );

    let check = slo()
        .args(["trace-check"])
        .arg(&trace)
        .output()
        .expect("spawn slo trace-check");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let text = String::from_utf8_lossy(&check.stdout);
    assert!(text.contains("OK"), "{text}");
    for phase in [
        "parse",
        "legality",
        "escape",
        "hotness",
        "plan",
        "transform",
        "verify",
        "compile",
    ] {
        assert!(text.contains(phase), "missing `{phase}` span: {text}");
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(&dir_plain);
    let _ = std::fs::remove_dir_all(&dir_traced);
}

/// `trace-check` rejects a file that is not a conformant trace.
#[test]
fn trace_check_rejects_garbage() {
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("slo-e2e-badtrace-{}.json", std::process::id()));
    // A schema violation, and nesting deep enough to overflow a
    // recursive parser's stack.
    for garbage in ["{\"traceEvents\": 42}".to_string(), "[".repeat(1_000_000)] {
        std::fs::write(&bad, &garbage).expect("write temp");
        let out = slo()
            .args(["trace-check"])
            .arg(&bad)
            .output()
            .expect("spawn slo");
        assert_eq!(
            out.status.code(),
            Some(3),
            "non-conformant trace is a parse error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&bad);
}

/// Kill-and-recover: a serve session with `--journal` is SIGKILLed
/// mid-stream after completing two jobs; the restarted session replays
/// them from the journal (answering without recomputation) and only
/// computes the genuinely new jobs.
#[test]
fn serve_journal_recovers_after_kill() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-journal-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    const SIR: &str = "func main() -> i64 {\nbb0:\n  ret 7\n}\n";
    for name in ["a.sir", "b.sir", "c.sir", "d.sir"] {
        std::fs::write(dir.join(name), SIR).expect("write sir");
    }
    let journal = dir.join("serve.journal");
    let _ = std::fs::remove_file(&journal);

    // Session 1: two jobs complete (journaled + flushed), then SIGKILL
    // — no EOF, no graceful shutdown.
    let mut child = slo()
        .args(["serve", "--journal"])
        .arg(&journal)
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"a.sir scheme=ispbo\nb.sir scheme=ispbo\n")
        .expect("write jobs");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut seen = Vec::new();
    for _ in 0..3 {
        // "journal: recovered 0 ..." + one reply per job
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        seen.push(line);
    }
    assert!(seen[0].contains("recovered 0"), "{seen:?}");
    assert!(
        seen[1].contains("\"id\":\"a\"") && !seen[1].contains("\"replayed\":true"),
        "{seen:?}"
    );
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();

    // Cross-crate pin: the on-disk journal key is exactly the wire
    // fingerprint (`proto::Request::fingerprint` via `job_key`). If the
    // derivations ever drift, recovery would silently stop replaying.
    let jobs = slo_service::parse_job_line(&dir, "a.sir scheme=ispbo").expect("parse job line");
    let key = slo_service::job_key("a.sir scheme=ispbo", &jobs[0]);
    let replayed = slo_service::Journal::open(&journal).expect("reopen journal");
    assert_eq!(
        replayed.lookup(key).map(|e| e.id.as_str()),
        Some("a"),
        "journal key must be the proto fingerprint {key:016x}"
    );
    drop(replayed);

    // Session 2: same two lines plus two new ones. The first two must
    // be answered from the journal, the new ones computed.
    let mut child = slo()
        .args(["serve", "--journal"])
        .arg(&journal)
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("respawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b"a.sir scheme=ispbo\nb.sir scheme=ispbo\n\
              c.sir scheme=ispbo\nd.sir scheme=ispbo\nquit\n",
        )
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("journal: recovered 2 completed job(s)"),
        "replay announced:\n{text}"
    );
    let replayed = text
        .lines()
        .filter(|l| l.contains("\"replayed\":true"))
        .count();
    assert_eq!(replayed, 2, "a and b answered from the journal:\n{text}");
    assert!(
        text.contains("served 2 job(s) (2 replayed from journal)"),
        "only c and d were computed:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An edited source invalidates its journal entry: the job key covers
/// the program text, so a recovered journal never serves stale results.
#[test]
fn serve_journal_does_not_replay_stale_sources() {
    use std::io::Write as _;
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-journal-stale-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("x.sir"),
        "func main() -> i64 {\nbb0:\n  ret 1\n}\n",
    )
    .expect("write sir");
    let journal = dir.join("serve.journal");
    let _ = std::fs::remove_file(&journal);

    let serve_once = |dir: &std::path::Path, journal: &std::path::Path| {
        let mut child = slo()
            .args(["serve", "--journal"])
            .arg(journal)
            .current_dir(dir)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn slo serve");
        child
            .stdin
            .as_mut()
            .expect("stdin")
            .write_all(b"x.sir scheme=ispbo\nquit\n")
            .expect("write jobs");
        let out = child.wait_with_output().expect("wait");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let first = serve_once(&dir, &journal);
    assert!(first.contains("served 1 job(s)"), "{first}");

    // Edit the program: the restarted session must recompute.
    std::fs::write(
        dir.join("x.sir"),
        "func main() -> i64 {\nbb0:\n  ret 2\n}\n",
    )
    .expect("rewrite sir");
    let second = serve_once(&dir, &journal);
    assert!(
        !second.contains("\"replayed\":true"),
        "edited source must not replay:\n{second}"
    );
    assert!(second.contains("served 1 job(s)"), "{second}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn `slo serve --listen 127.0.0.1:0 <extra>` in `dir`, keep its
/// stdin open (stdin is the drain control channel), and return the
/// child, a reader over its remaining stdout, and the bound address
/// announced by the `listening on ...` line.
fn spawn_listen(
    dir: &std::path::Path,
    extra: &[&str],
) -> (
    std::process::Child,
    std::io::BufReader<std::process::ChildStdout>,
    String,
) {
    use std::io::BufRead as _;
    let mut child = slo()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .current_dir(dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve --listen");
    let mut reader = std::io::BufReader::new(child.stdout.take().expect("stdout"));
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read banner");
        assert!(n > 0, "serve exited before announcing its address");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    // The banner must name the real ephemeral socket, not echo the
    // requested ":0" — clients paste this address verbatim.
    let parsed: std::net::SocketAddr = addr
        .parse()
        .unwrap_or_else(|e| panic!("announced address {addr:?} must be a socket address: {e}"));
    assert_ne!(parsed.port(), 0, "announced port must be the bound one");
    (child, reader, addr)
}

/// Connect to `addr`, send `lines` (newline-terminated), half-close
/// the write side, and collect one reply line per request.
fn wire_roundtrip(addr: &str, lines: &[&str]) -> Vec<String> {
    use std::io::{BufRead as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .expect("read timeout");
    for l in lines {
        // One segment per frame (a split line + newline would eat a
        // Nagle/delayed-ACK stall per request).
        stream
            .write_all(format!("{l}\n").as_bytes())
            .expect("write frame");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut replies = Vec::new();
    for line in std::io::BufReader::new(stream).lines() {
        replies.push(line.expect("read reply"));
    }
    replies
}

/// The TCP front end speaks the same v1 protocol: handshake, job
/// replies, journal write-ahead — and a SIGKILLed session replays its
/// completed jobs to reconnecting clients after restart.
#[test]
fn tcp_serve_replays_journal_after_sigkill() {
    use std::io::{BufRead as _, Write as _};
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-tcp-journal-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    const SIR: &str = "func main() -> i64 {\nbb0:\n  ret 7\n}\n";
    for name in ["a.sir", "b.sir", "c.sir"] {
        std::fs::write(dir.join(name), SIR).expect("write sir");
    }
    let journal = dir.join("serve.journal");
    let _ = std::fs::remove_file(&journal);

    // Session 1: handshake + two jobs over TCP, then SIGKILL — no
    // drain, no flush beyond the per-record WAL flush.
    let (mut child, _reader, addr) = spawn_listen(&dir, &["--journal", "serve.journal"]);
    let replies = wire_roundtrip(
        &addr,
        &["hello v=1", "a.sir scheme=ispbo", "b.sir scheme=ispbo"],
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(
        replies[0].contains("\"id\":\"hello\"") && replies[0].contains("\"status\":\"ok\""),
        "handshake answered: {replies:?}"
    );
    for r in &replies[1..] {
        assert!(r.contains("\"status\":\"optimized\""), "{replies:?}");
        assert!(!r.contains("\"replayed\":true"), "{replies:?}");
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();

    // Session 2: the journaled jobs replay over a fresh connection;
    // only the new job is computed.
    let (mut child, mut reader, addr) = spawn_listen(&dir, &["--journal", "serve.journal"]);
    let replies = wire_roundtrip(
        &addr,
        &[
            "a.sir scheme=ispbo",
            "b.sir scheme=ispbo",
            "c.sir scheme=ispbo",
        ],
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(
        replies[0].contains("\"replayed\":true") && replies[1].contains("\"replayed\":true"),
        "journaled jobs answered without recomputation: {replies:?}"
    );
    assert!(
        replies[2].contains("\"status\":\"optimized\"")
            && !replies[2].contains("\"replayed\":true"),
        "the new job is computed: {replies:?}"
    );

    // Graceful drain via the stdin control channel.
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"quit\n")
        .expect("write quit");
    let mut rest = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read tail") == 0 {
            break;
        }
        rest.push_str(&line);
    }
    let status = child.wait().expect("wait");
    assert!(status.success(), "drain exits cleanly:\n{rest}");
    assert!(
        rest.contains("served 1 job(s)"),
        "only c was computed this session:\n{rest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload: with a one-permit pool and a zero-length queue, a second
/// client's request is shed with a concrete `retry_after_ms` hint
/// instead of queueing unboundedly — and honouring the hint succeeds.
/// Every request gets exactly one reply; nothing is silently dropped.
#[test]
fn tcp_serve_sheds_under_overload_with_retry_after() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-tcp-overload-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // ~3M-iteration counted loop: holds the single admission permit
    // for seconds in a debug-build VM while staying under the default
    // step budget.
    std::fs::write(
        dir.join("slow.sir"),
        "record acc { v: i64, pad: i64 }\n\n\
         func main() -> i64 {\n\
         bb0:\n  r0 = alloc acc, 1\n  r1 = 0\n  r2 = 0\n  jump bb1\n\
         bb1:\n  r3 = cmp.lt r1, 3000000\n  br r3, bb2, bb3\n\
         bb2:\n  r4 = fieldaddr r0, acc.v\n  store r1, r4 : i64\n  r5 = load r4 : i64\n\
         \x20 r2 = add r2, r5\n  r1 = add r1, 1\n  jump bb1\n\
         bb3:\n  ret r2\n}\n",
    )
    .expect("write slow.sir");
    std::fs::write(
        dir.join("fast.sir"),
        "func main() -> i64 {\nbb0:\n  ret 7\n}\n",
    )
    .expect("write fast.sir");

    let (mut child, mut reader, addr) = spawn_listen(
        &dir,
        &[
            "--net-inflight",
            "1",
            "--net-per-client",
            "1",
            "--net-queue",
            "0",
            "--net-retry-after-ms",
            "20",
        ],
    );

    // Client A occupies the only permit with the slow job.
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || wire_roundtrip(&addr, &["slow.sir scheme=ispbo"])
    });
    // Give A's frame time to be admitted before B starts asking.
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Client B: retry on shed, honouring the server's hint.
    let mut sheds = 0u32;
    let mut attempts = 0u32;
    let fast_reply = loop {
        attempts += 1;
        assert!(attempts <= 500, "server never freed the permit");
        let replies = wire_roundtrip(&addr, &["fast.sir scheme=ispbo"]);
        assert_eq!(
            replies.len(),
            1,
            "exactly one reply per request: {replies:?}"
        );
        let r = slo_service::Response::parse(&replies[0]).expect("reply parses");
        match r.status.as_str() {
            "shed" => {
                let hint = r.retry_after_ms.expect("shed replies carry retry_after_ms");
                assert!(hint > 0, "retry hint must be positive");
                sheds += 1;
                std::thread::sleep(std::time::Duration::from_millis(hint.min(200)));
            }
            "optimized" => break replies[0].clone(),
            other => panic!("unexpected status `{other}`: {replies:?}"),
        }
    };
    assert!(sheds > 0, "the saturated server must shed at least once");
    assert!(fast_reply.contains("\"id\":\"fast\""), "{fast_reply}");

    // Client A's slow job was never dropped: one optimized reply.
    let slow_replies = slow.join().expect("join slow client");
    assert_eq!(slow_replies.len(), 1, "{slow_replies:?}");
    assert!(
        slow_replies[0].contains("\"status\":\"optimized\""),
        "{slow_replies:?}"
    );

    // Drain and check the shed counter is visible to operators.
    use std::io::{BufRead as _, Write as _};
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"quit\n")
        .expect("write quit");
    let mut rest = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read tail") == 0 {
            break;
        }
        rest.push_str(&line);
    }
    assert!(child.wait().expect("wait").success(), "{rest}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One protocol, three front ends: the same job line answered by
/// `slo batch --wire`, stdin serve, and the TCP listener parses to the
/// identical `Response` value.
#[test]
fn three_front_ends_speak_one_protocol() {
    use std::io::Write as _;
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-conformance-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("x.sir"),
        "func main() -> i64 {\nbb0:\n  ret 3\n}\n",
    )
    .expect("write sir");
    const LINE: &str = "x.sir scheme=ispbo";
    std::fs::write(dir.join("jobs.txt"), format!("{LINE}\n")).expect("write manifest");

    let parse_first_wire_line = |text: &str| -> slo_service::Response {
        let line = text
            .lines()
            .find(|l| l.starts_with('{') && l.contains("\"v\":"))
            .unwrap_or_else(|| panic!("no wire reply in:\n{text}"));
        slo_service::Response::parse(line).expect("wire reply parses")
    };

    // Front end 1: batch --wire.
    let out = slo()
        .args(["batch", "jobs.txt", "--wire"])
        .current_dir(&dir)
        .output()
        .expect("spawn slo batch");
    assert!(out.status.success());
    let from_batch = parse_first_wire_line(&String::from_utf8_lossy(&out.stdout));

    // Front end 2: stdin serve.
    let mut child = slo()
        .args(["serve"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(format!("{LINE}\nquit\n").as_bytes())
        .expect("write job");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let from_stdin = parse_first_wire_line(&String::from_utf8_lossy(&out.stdout));

    // Front end 3: TCP.
    let (mut child, _reader, addr) = spawn_listen(&dir, &[]);
    let replies = wire_roundtrip(&addr, &[LINE]);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let from_tcp = slo_service::Response::parse(&replies[0]).expect("tcp reply parses");
    child.kill().expect("kill serve");
    let _ = child.wait();

    assert_eq!(from_batch, from_stdin, "batch and stdin serve agree");
    assert_eq!(from_stdin, from_tcp, "stdin serve and TCP agree");
    assert_eq!(from_batch.v, 1, "protocol version is pinned");
    assert_eq!(from_batch.id, "x");
    assert_eq!(from_batch.status, "optimized");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The README quickstart, kept honest: `slo serve --listen`, then the
/// documented handshake, job line and `metrics` probe over a raw
/// socket (what the README does with `nc`).
#[test]
fn readme_listen_quickstart_works_as_documented() {
    let dir = sample().parent().expect("dir").to_path_buf();
    let (mut child, _reader, addr) = spawn_listen(&dir, &[]);
    let replies = wire_roundtrip(&addr, &["hello v=1", "hotcold.sir scheme=ispbo", "metrics"]);
    assert!(replies.len() >= 3, "{replies:?}");
    assert!(
        replies[0].contains("\"id\":\"hello\"") && replies[0].contains("\"status\":\"ok\""),
        "{replies:?}"
    );
    assert!(
        replies[1].contains("\"id\":\"hotcold\"")
            && replies[1].contains("\"status\":\"optimized\""),
        "{replies:?}"
    );
    assert!(
        replies[2].contains("\"jobs\": 1"),
        "metrics answers inline: {replies:?}"
    );
    child.kill().expect("kill serve");
    let _ = child.wait();
}

/// A `batch --store` run in one process leaves a segment store that a
/// fresh process warm-starts from: every analysis is served from disk
/// (100% store hit rate) and the reported outcomes are identical.
#[test]
fn batch_store_warm_starts_across_processes() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-batch-store-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("a.sir"),
        "func main() -> i64 {\nbb0:\n  ret 7\n}\n",
    )
    .expect("write sir");
    std::fs::write(
        dir.join("b.sir"),
        "func main() -> i64 {\nbb0:\n  ret 9\n}\n",
    )
    .expect("write sir");
    std::fs::write(
        dir.join("jobs.txt"),
        "a.sir scheme=ispbo\nb.sir scheme=spbo\n",
    )
    .expect("write manifest");
    let store = dir.join("store");

    let run = || {
        let out = slo()
            .args(["batch"])
            .arg(dir.join("jobs.txt"))
            .arg("--store")
            .arg(&store)
            .args(["--json"])
            .output()
            .expect("spawn slo batch --store");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let cold = run();
    assert!(
        cold.contains("store: 0/2 hit (0%)"),
        "first process must miss and populate the store:\n{cold}"
    );
    assert!(
        cold.contains("\"store_misses\": 2"),
        "--json metrics must carry the store counters:\n{cold}"
    );

    let warm = run();
    assert!(
        warm.contains("store: 2/2 hit (100%)"),
        "second process must be served entirely from disk:\n{warm}"
    );
    assert!(
        warm.contains("\"store_hits\": 2") && warm.contains("\"store_corrupt_drops\": 0"),
        "{warm}"
    );

    // Same per-job verdicts either way; only the cache provenance
    // marker may differ between a computed and a warm-started run.
    let verdicts = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("a.sir") || l.starts_with("b.sir"))
            .map(|l| l.replace(" [cached]", ""))
            .collect()
    };
    assert_eq!(
        verdicts(&cold),
        verdicts(&warm),
        "\ncold:\n{cold}\nwarm:\n{warm}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL a `serve --store` session mid-stream: the sealed/active
/// segments survive, the restarted session announces the on-disk
/// record count, and re-submitted jobs come back `"cached":true`
/// without recomputation.
#[test]
fn serve_store_survives_sigkill_and_warm_starts() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("slo-e2e-serve-store-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    const SIR: &str = "func main() -> i64 {\nbb0:\n  ret 7\n}\n";
    for name in ["a.sir", "b.sir"] {
        std::fs::write(dir.join(name), SIR).expect("write sir");
    }
    let store = dir.join("store");

    // Session 1: two jobs land in the store, then SIGKILL — no EOF,
    // no graceful shutdown, no journal.
    let mut child = slo()
        .args(["serve", "--store", "store"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn slo serve --store");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"a.sir scheme=ispbo\nb.sir scheme=spbo\n")
        .expect("write jobs");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut seen = Vec::new();
    for _ in 0..3 {
        // "store: 0 analysis record(s) on disk" + one reply per job
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        seen.push(line);
    }
    assert!(
        seen[0].contains("store: 0 analysis record(s) on disk"),
        "{seen:?}"
    );
    assert!(
        seen[1].contains("\"status\":\"optimized\"") && seen[1].contains("\"cached\":false"),
        "{seen:?}"
    );
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    assert!(store.is_dir(), "the store directory must survive the kill");

    // Session 2: the banner counts the survivors and the same jobs are
    // answered from disk.
    let mut child = slo()
        .args(["serve", "--store", "store"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("respawn slo serve --store");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"a.sir scheme=ispbo\nb.sir scheme=spbo\nquit\n")
        .expect("write jobs");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("store: 2 analysis record(s) on disk"),
        "restart must see both records:\n{text}"
    );
    let cached = text
        .lines()
        .filter(|l| l.contains("\"status\":\"optimized\"") && l.contains("\"cached\":true"))
        .count();
    assert_eq!(
        cached, 2,
        "both jobs must warm-start from the store:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
