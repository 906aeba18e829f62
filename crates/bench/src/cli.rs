//! Shared command-line surface for the `repro` binary.
//!
//! Every subcommand is described by a [`Spec`] — its name, one-line
//! summary, positional signature, and subcommand-specific flags — and
//! parsed by [`parse`] into a [`Parsed`]. The flags every subcommand
//! shares behave identically everywhere:
//!
//! * `--quick` — reduced corpus scale ([`Scale::Quick`]);
//! * `--smoke` — smallest CI scale (quick corpus, first 8 benchmarks);
//! * `--corpus-scale S` — corpus size multiplier;
//! * `--help` — generated usage for the subcommand.
//!
//! The worker-thread count comes from `LOOPML_THREADS`; every pipeline
//! output is bit-identical at any thread count.
//!
//! Exit codes are uniform: [`EXIT_OK`] on success, [`EXIT_FAIL`] when
//! the work itself failed (a gate tripped, a file was malformed),
//! [`EXIT_USAGE`] when the invocation was malformed.

use std::collections::BTreeMap;

use loopml::PipelineBuilder;
use loopml_corpus::SuiteConfig;

/// Process exit code: the subcommand succeeded.
pub const EXIT_OK: i32 = 0;
/// Process exit code: the work ran and failed (gate tripped, bad data).
pub const EXIT_FAIL: i32 = 1;
/// Process exit code: the invocation itself was malformed.
pub const EXIT_USAGE: i32 = 2;

/// Corpus scale of a run, selected by `--quick`/`--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full corpus (72 benchmarks, paper scale). Minutes.
    Full,
    /// Reduced corpus for smoke runs and CI. Seconds.
    Quick,
}

impl Scale {
    /// The corpus synthesis configuration at this scale, with the
    /// `--corpus-scale` multiplier applied. Scale 1 is the historical
    /// corpus bit-for-bit.
    pub(crate) fn suite_config_at(self, corpus_scale: usize) -> SuiteConfig {
        let base = match self {
            Scale::Full => SuiteConfig::default(),
            Scale::Quick => SuiteConfig {
                min_loops: 8,
                max_loops: 12,
                ..SuiteConfig::default()
            },
        };
        SuiteConfig {
            corpus_scale,
            ..base
        }
    }

    /// The paper's pipeline over this scale's corpus: the reports,
    /// `repro sweep`, `repro train` and `repro serve-bench` all build
    /// from here.
    pub fn builder(self, corpus_scale: usize) -> PipelineBuilder {
        PipelineBuilder::paper().suite_config(self.suite_config_at(corpus_scale))
    }
}

/// One flag a subcommand accepts beyond the shared set.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The flag itself, including the leading dashes (`"--out"`).
    pub flag: &'static str,
    /// Metavariable when the flag takes a value (`Some("FILE")`),
    /// `None` for a bare switch.
    pub value: Option<&'static str>,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// Static description of one `repro` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line summary for the overview and the subcommand help.
    pub summary: &'static str,
    /// Rendered positional signature (`"<current.json> <baseline.json>"`,
    /// `"[target...]"`, or `""` when the subcommand takes none).
    pub positionals: &'static str,
    /// Flags beyond the shared `--quick`/`--corpus-scale`/`--smoke`/`--help`.
    pub flags: &'static [FlagSpec],
}

/// The flags every subcommand accepts.
const SHARED_FLAGS: [FlagSpec; 4] = [
    FlagSpec {
        flag: "--quick",
        value: None,
        help: "reduced corpus scale",
    },
    FlagSpec {
        flag: "--corpus-scale",
        value: Some("S"),
        help: "corpus size multiplier: S x loops per benchmark (default 1)",
    },
    FlagSpec {
        flag: "--smoke",
        value: None,
        help: "smallest CI scale (quick corpus, first 8 benchmarks)",
    },
    FlagSpec {
        flag: "--help",
        value: None,
        help: "print this help",
    },
];

/// A parsed subcommand invocation.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// Corpus scale selected by `--quick`/`--smoke` (default full).
    pub scale: Scale,
    /// Whether `--smoke` was given (implies [`Scale::Quick`] plus the
    /// 8-benchmark cut where the subcommand supports it).
    pub smoke: bool,
    /// Corpus size multiplier from `--corpus-scale S` (default 1; scale
    /// 1 reproduces the historical corpus bit-for-bit, larger scales
    /// append extra loops per benchmark on an independent RNG stream).
    pub corpus_scale: usize,
    /// Whether `--help` was requested.
    pub help: bool,
    /// Values of the subcommand's value-taking flags, keyed by flag.
    pub options: BTreeMap<String, String>,
    /// Subcommand switches that were present.
    pub switches: Vec<String>,
    /// Positional arguments in order.
    pub positionals: Vec<String>,
}

impl Parsed {
    /// Whether the subcommand switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Value of the value-taking flag `flag`, if given.
    pub fn option(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }
}

/// Parses `args` (everything after the subcommand name) against `spec`.
/// Shared flags are handled here; anything else must appear in
/// `spec.flags` or be a positional. Errors are usage errors — the
/// caller prints them and exits [`EXIT_USAGE`].
pub fn parse(spec: &Spec, args: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed {
        scale: Scale::Full,
        smoke: false,
        corpus_scale: 1,
        help: false,
        options: BTreeMap::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => out.help = true,
            "--quick" => out.scale = Scale::Quick,
            "--smoke" => {
                out.scale = Scale::Quick;
                out.smoke = true;
            }
            "--corpus-scale" => {
                let v = it.next().ok_or("--corpus-scale needs a value")?;
                let s: usize = v
                    .parse()
                    .map_err(|_| format!("bad --corpus-scale value: {v}"))?;
                if s == 0 {
                    return Err("--corpus-scale must be at least 1".into());
                }
                out.corpus_scale = s;
            }
            other if other.starts_with('-') => {
                let Some(f) = spec.flags.iter().find(|f| f.flag == other) else {
                    return Err(format!("unknown {} option: {other}", spec.name));
                };
                if f.value.is_some() {
                    let v = it.next().ok_or_else(|| format!("{other} needs a value"))?;
                    out.options.insert(other.to_string(), v.clone());
                } else {
                    out.switches.push(other.to_string());
                }
            }
            positional => out.positionals.push(positional.to_string()),
        }
    }
    Ok(out)
}

fn render_flag(f: &FlagSpec) -> String {
    let head = match f.value {
        Some(metavar) => format!("{} {metavar}", f.flag),
        None => f.flag.to_string(),
    };
    format!("  {head:<22} {}", f.help)
}

impl Spec {
    /// Generated `--help` text for this subcommand.
    pub fn help(&self) -> String {
        let mut lines = vec![
            format!(
                "usage: repro {}{}{}",
                self.name,
                if self.flags.is_empty() && SHARED_FLAGS.is_empty() {
                    ""
                } else {
                    " [options]"
                },
                if self.positionals.is_empty() {
                    String::new()
                } else {
                    format!(" {}", self.positionals)
                },
            ),
            String::new(),
            self.summary.to_string(),
            String::new(),
            "options:".to_string(),
        ];
        for f in self.flags.iter().chain(SHARED_FLAGS.iter()) {
            lines.push(render_flag(f));
        }
        lines.push(String::new());
        lines.join("\n")
    }
}

/// Generated top-level help: one line per subcommand.
pub fn overview(specs: &[Spec]) -> String {
    let mut lines = vec![
        "usage: repro <subcommand> [options]".to_string(),
        String::new(),
        "subcommands:".to_string(),
    ];
    for s in specs {
        lines.push(format!("  {:<12} {}", s.name, s.summary));
    }
    lines.extend([
        String::new(),
        "Shared options (every subcommand):".to_string(),
    ]);
    for f in &SHARED_FLAGS {
        lines.push(render_flag(f));
    }
    lines.extend([
        String::new(),
        "`repro <subcommand> --help` shows the subcommand's own flags;".to_string(),
        "`repro [--quick] [target...]` with no subcommand renders reports.".to_string(),
        String::new(),
    ]);
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "demo",
        summary: "a demo subcommand",
        positionals: "[target...]",
        flags: &[
            FlagSpec {
                flag: "--out",
                value: Some("FILE"),
                help: "output path",
            },
            FlagSpec {
                flag: "--stats",
                value: None,
                help: "print stats",
            },
        ],
    };

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_flags_parse_uniformly() {
        let p = parse(&SPEC, &strs(&["--smoke", "t1", "t2"])).unwrap();
        assert_eq!(p.scale, Scale::Quick);
        assert!(p.smoke);
        assert_eq!(p.positionals, ["t1", "t2"]);

        let p = parse(&SPEC, &strs(&["--quick"])).unwrap();
        assert_eq!(p.scale, Scale::Quick);
        assert!(!p.smoke);
        assert_eq!(p.corpus_scale, 1);
        assert!(parse(&SPEC, &strs(&["--help"])).unwrap().help);
    }

    #[test]
    fn corpus_scale_parses_and_rejects_zero() {
        let p = parse(&SPEC, &strs(&["--corpus-scale", "4"])).unwrap();
        assert_eq!(p.corpus_scale, 4);
        assert!(parse(&SPEC, &strs(&["--corpus-scale", "0"])).is_err());
        assert!(parse(&SPEC, &strs(&["--corpus-scale", "x"])).is_err());
        assert!(parse(&SPEC, &strs(&["--corpus-scale"])).is_err());
    }

    #[test]
    fn subcommand_flags_need_a_spec_entry() {
        let p = parse(&SPEC, &strs(&["--out", "x.json", "--stats"])).unwrap();
        assert_eq!(p.option("--out"), Some("x.json"));
        assert!(p.has("--stats"));
        assert!(!p.has("--out"));

        let err = parse(&SPEC, &strs(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown demo option"), "{err}");
        let err = parse(&SPEC, &strs(&["--out"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn help_text_lists_every_flag() {
        let help = SPEC.help();
        for needle in [
            "usage: repro demo",
            "--out FILE",
            "--stats",
            "--smoke",
            "--corpus-scale S",
        ] {
            assert!(help.contains(needle), "missing {needle:?} in:\n{help}");
        }
        let top = overview(&[SPEC]);
        assert!(top.contains("demo") && top.contains("a demo subcommand"));
    }
}
