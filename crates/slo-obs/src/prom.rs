//! The one writer of the Prometheus text exposition format; its reader
//! is [`crate::conform::check_prometheus`].
//!
//! Each metric family is declared once, as a [`Family`] constant. An
//! [`Exposition`] takes samples in any order and groups them under their
//! family, in order of first appearance, so each family gets one
//! `# HELP`/`# TYPE` pair and one block of lines. Label values are
//! written verbatim: callers pass fixed identifiers (sites, peer IPs).
//!
//! ```
//! use slo_obs::prom::{Exposition, Family};
//!
//! const JOBS: Family = Family::counter("jobs_total", "Jobs completed.");
//! let mut w = Exposition::default();
//! w.sample(&JOBS, None, 3);
//! let text = "# HELP jobs_total Jobs completed.\n# TYPE jobs_total counter\njobs_total 3\n";
//! assert_eq!(w.finish(), text);
//! ```

use std::fmt::{self, Write as _};

/// A metric family: its name, `# HELP` text, `# TYPE`, and the name of
/// the one label its samples carry, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    label: Option<&'static str>,
}

impl Family {
    /// An unlabelled counter.
    pub const fn counter(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: "counter",
            label: None,
        }
    }

    /// An unlabelled gauge.
    pub const fn gauge(name: &'static str, help: &'static str) -> Family {
        Family {
            kind: "gauge",
            ..Family::counter(name, help)
        }
    }

    /// This family with its samples labelled `name`.
    pub const fn label(self, name: &'static str) -> Family {
        Family {
            label: Some(name),
            ..self
        }
    }
}

/// An exposition being written: each family's sample lines, in order
/// of the family's first appearance.
#[derive(Debug, Default)]
pub struct Exposition(Vec<(Family, String)>);

impl Exposition {
    /// Declare `family`, so its `# HELP`/`# TYPE` pair is written even
    /// without samples.
    pub fn declare(&mut self, family: &Family) {
        self.lines(family);
    }

    fn lines(&mut self, family: &Family) -> &mut String {
        let found = self.0.iter().position(|(f, _)| f.name == family.name);
        let i = found.unwrap_or_else(|| {
            self.0.push((*family, String::new()));
            self.0.len() - 1
        });
        &mut self.0[i].1
    }

    /// Write one sample of `family`, with `label` the value of its label.
    ///
    /// # Panics
    ///
    /// Panics when `label` is given for a family without a label, or
    /// missing for one with a label.
    pub fn sample(&mut self, family: &Family, label: Option<&str>, value: impl fmt::Display) {
        let (name, out) = (family.name, self.lines(family));
        let _ = match (family.label, label) {
            (Some(key), Some(v)) => writeln!(out, "{name}{{{key}=\"{v}\"}} {value}"),
            (None, None) => writeln!(out, "{name} {value}"),
            _ => panic!("a sample of `{name}` must carry exactly its family's label"),
        };
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        let mut s = String::new();
        for (f, lines) in self.0 {
            let (name, help, kind) = (f.name, f.help, f.kind);
            let _ = write!(s, "# HELP {name} {help}\n# TYPE {name} {kind}\n{lines}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Family = Family::counter("a_total", "As.").label("k");
    const B: Family = Family::gauge("b", "B now.");

    #[test]
    fn samples_group_under_their_family_in_first_appearance_order() {
        let mut w = Exposition::default();
        w.sample(&A, Some("x"), 1);
        w.sample(&B, None, 0.5);
        w.sample(&A, Some("y"), 2);
        assert_eq!(
            w.finish(),
            "# HELP a_total As.\n# TYPE a_total counter\n\
             a_total{k=\"x\"} 1\na_total{k=\"y\"} 2\n\
             # HELP b B now.\n# TYPE b gauge\nb 0.5\n"
        );
    }

    #[test]
    fn a_declared_family_without_samples_keeps_its_header() {
        let mut w = Exposition::default();
        w.declare(&A);
        assert_eq!(w.finish(), "# HELP a_total As.\n# TYPE a_total counter\n");
    }

    #[test]
    #[should_panic(expected = "must carry exactly its family's label")]
    fn a_sample_without_its_family_label_panics() {
        Exposition::default().sample(&A, None, 1);
    }
}
