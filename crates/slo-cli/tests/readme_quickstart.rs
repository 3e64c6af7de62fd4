//! Keeps the README's Quickstart honest: extracts the exact textual-IR
//! program and the exact `$ slo …` command lines from `README.md`,
//! executes them against the real binary, and asserts every claim the
//! prose makes (legality, the split, equal exit values, fewer cycles).

use std::path::{Path, PathBuf};
use std::process::Command;

fn readme() -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("README.md");
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
}

/// The fenced code blocks of the `## Quickstart` section, in order.
fn quickstart_blocks(text: &str) -> Vec<String> {
    let section = text
        .split("## Quickstart")
        .nth(1)
        .expect("README has a Quickstart section");
    let section = section.split("\n## ").next().unwrap();
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in section.lines() {
        if line.starts_with("```") {
            match current.take() {
                Some(b) => blocks.push(b),
                None => current = Some(String::new()),
            }
        } else if let Some(b) = current.as_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    blocks
}

fn run_slo(args: &[&str], dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_slo"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn slo");
    assert!(
        out.status.success(),
        "slo {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn field(output: &str, key: &str) -> i64 {
    output
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("no `{key}` line in:\n{output}"))
}

#[test]
fn readme_quickstart_snippet_runs_verbatim() {
    let blocks = quickstart_blocks(&readme());
    assert!(
        blocks.len() >= 2,
        "expected the IR block and the console block"
    );
    let ir = &blocks[0];
    assert!(ir.starts_with("record item"), "first block must be the IR");
    let commands: Vec<Vec<String>> = blocks[1]
        .lines()
        .filter_map(|l| l.strip_prefix("$ slo "))
        .map(|l| l.split_whitespace().map(str::to_owned).collect())
        .collect();
    assert_eq!(commands.len(), 5, "README shows five slo commands");

    let dir = std::env::temp_dir().join(format!("slo-readme-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("hotcold.sir"), ir).unwrap();

    // Run the five commands exactly as the README shows them, from the
    // directory holding hotcold.sir.
    let mut outputs = Vec::new();
    for cmd in &commands {
        let args: Vec<&str> = cmd.iter().map(String::as_str).collect();
        outputs.push(run_slo(&args, &dir));
    }

    // …and check the prose's claims against what actually happened.
    let analyze = &outputs[0];
    assert!(analyze.contains("*OK*"), "item must be legal:\n{analyze}");

    let advise = &outputs[1];
    assert!(advise.contains("hot1") && advise.contains("100.0%"));

    let optimize = &outputs[2];
    assert!(
        optimize.contains("Split"),
        "optimize must split item:\n{optimize}"
    );
    let opt_ir = std::fs::read_to_string(dir.join("hotcold.opt.sir")).unwrap();
    assert!(opt_ir.contains("item_cold"), "split record must exist");

    let (orig, split) = (&outputs[3], &outputs[4]);
    assert_eq!(field(orig, "exit"), field(split, "exit"));
    assert!(
        field(split, "cycles") < field(orig, "cycles"),
        "split must be faster in simulated cycles"
    );
    assert!(
        field(split, "instrs") > field(orig, "instrs"),
        "the README claims the win comes despite extra instructions"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The fenced console block of a named README section, as `slo`
/// argument vectors.
fn section_commands(text: &str, heading: &str) -> Vec<Vec<String>> {
    let section = text
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("README has a {heading} section"));
    let section = section.split("\n## ").next().unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("$ slo "))
        .map(|l| l.split_whitespace().map(str::to_owned).collect())
        .collect()
}

/// Keeps `## Observability` honest the same way: the traced compile
/// and the trace-check run exactly as printed, and the checker accepts
/// the trace with every pipeline phase span present.
#[test]
fn readme_observability_snippet_runs_verbatim() {
    let text = readme();
    let commands = section_commands(&text, "## Observability");
    assert_eq!(
        commands.len(),
        2,
        "the Observability section shows two slo commands"
    );
    assert!(commands[0].contains(&"--trace-json".to_string()));
    assert_eq!(commands[1][0], "trace-check");

    // The snippet operates on the Quickstart's hotcold.sir.
    let ir = quickstart_blocks(&text)
        .into_iter()
        .next()
        .expect("quickstart IR block");
    let dir = std::env::temp_dir().join(format!("slo-readme-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("hotcold.sir"), ir).unwrap();

    let mut outputs = Vec::new();
    for cmd in &commands {
        let args: Vec<&str> = cmd.iter().map(String::as_str).collect();
        outputs.push(run_slo(&args, &dir));
    }

    assert!(
        std::fs::read_to_string(dir.join("hotcold.opt.sir"))
            .unwrap()
            .contains("item_cold"),
        "traced compile must still split"
    );
    let check = &outputs[1];
    assert!(
        check.contains("OK"),
        "trace-check rejected the trace:\n{check}"
    );
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
        assert!(check.contains(phase), "missing `{phase}` span:\n{check}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
