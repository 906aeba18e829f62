//! `repro label-supervise` — a self-healing multi-process labeling
//! work queue.
//!
//! The supervisor spawns one `repro label --shard i/N` child per shard
//! (re-invoking its own executable), watches each child's
//! checkpoint-progress heartbeat, and restarts shards that crash or
//! stall — up to a bounded per-shard restart budget. Restarts resume
//! from the shared checkpoint directory, and when a fault plane is
//! active (`LOOPML_FAULTS`) each restart derives a fresh deterministic
//! seed so a deterministically-crashing child does not crash the same
//! way forever. Once every shard has completed, the shard documents are
//! merged with [`labelrun::run_label_merge`], which verifies each
//! shard's payload fingerprint — so a corrupt or truncated shard file
//! is detected rather than silently merged — and the merged labels are
//! byte-identical to a single-process run.
//!
//! Heartbeats are *observed*, not reported: a shard's beat is the
//! number of checkpoint files it has written, so the protocol needs no
//! side channel and survives a child dying between beats. The
//! `--chaos-kill i:K` test hook kills shard `i` once its beat reaches
//! `K` (or fails it once if it finished first), proving the recovery
//! path in CI without any nondeterministic signal delivery.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::cli::Scale;
use crate::labelrun;

/// Default per-shard restart budget (crashes + stalls combined).
pub const DEFAULT_MAX_RESTARTS: usize = 2;
/// Default stall timeout: a shard whose heartbeat has not advanced for
/// this long is killed and restarted.
pub const DEFAULT_STALL_MS: u64 = 120_000;
/// Supervisor poll cadence.
const POLL_MS: u64 = 50;

/// Arguments for [`run_label_supervise`].
#[derive(Debug, Clone)]
pub struct SuperviseArgs {
    /// Number of shard processes (N in `--shard i/N`).
    pub count: usize,
    /// Working directory for shard outputs and the shared checkpoint
    /// directory.
    pub dir: PathBuf,
    /// Merged labels output path.
    pub out: PathBuf,
    /// Merged degradation report path.
    pub degradation: PathBuf,
    /// Per-shard restart budget.
    pub max_restarts: usize,
    /// Heartbeat stall timeout in milliseconds.
    pub stall_ms: u64,
    /// Test hook: kill shard `.0` once its heartbeat reaches `.1`.
    pub chaos_kill: Option<(usize, usize)>,
    /// Labeling retry-budget override passed through to children.
    pub retries: Option<u32>,
    /// Corpus scale passed through to children.
    pub scale: Scale,
    /// Smoke cut passed through to children.
    pub smoke: bool,
    /// Corpus size multiplier passed through to children.
    pub corpus_scale: usize,
}

impl Default for SuperviseArgs {
    fn default() -> Self {
        SuperviseArgs {
            count: 2,
            dir: PathBuf::from("LABEL_shards"),
            out: PathBuf::from("LABEL_ml.json"),
            degradation: PathBuf::from("LABEL_degradation.json"),
            max_restarts: DEFAULT_MAX_RESTARTS,
            stall_ms: DEFAULT_STALL_MS,
            chaos_kill: None,
            retries: None,
            scale: Scale::Full,
            smoke: false,
            corpus_scale: 1,
        }
    }
}

/// What a supervised run cost, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperviseReport {
    /// Restarts performed across all shards (crashes + stalls,
    /// including recovery from the chaos hook).
    pub restarts: usize,
    /// Times the `--chaos-kill` hook fired (0 or 1).
    pub chaos_kills: usize,
}

/// Parses a `--chaos-kill i:K` spec.
pub fn parse_chaos_kill(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("bad --chaos-kill value {spec:?} (expected i:K)");
    let (shard, beat) = spec.split_once(':').ok_or_else(err)?;
    Ok((
        shard.parse().map_err(|_| err())?,
        beat.parse().map_err(|_| err())?,
    ))
}

/// Derives the fault spec for restart attempt `restart`: same rate and
/// site filter, seed advanced deterministically so the retried child
/// draws a fresh coin sequence. Attempt 0 is the spec verbatim.
fn reseeded_faults(spec: &str, restart: usize) -> String {
    if restart == 0 {
        return spec.to_string();
    }
    match spec.split_once(':') {
        Some((seed, rest)) => match seed.trim().parse::<u64>() {
            Ok(s) => format!("{}:{rest}", s.wrapping_add(restart as u64)),
            Err(_) => spec.to_string(),
        },
        None => spec.to_string(),
    }
}

/// A shard's heartbeat: how many checkpoint files it has written.
/// Checkpoint names are `ckpt_{benchmark:03}_{slug}.json` and shard `i`
/// of `count` owns benchmarks with `index % count == i`.
fn heartbeat(ckpt_dir: &Path, shard: usize, count: usize) -> usize {
    let Ok(entries) = std::fs::read_dir(ckpt_dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .filter_map(|name| {
            let digits: String = name
                .strip_prefix("ckpt_")?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<usize>().ok()
        })
        .filter(|index| index % count == shard)
        .count()
}

fn shard_labels_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard_{shard}.json"))
}

fn shard_degradation_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("degradation_{shard}.json"))
}

fn spawn_shard(
    args: &SuperviseArgs,
    ckpt_dir: &Path,
    shard: usize,
    restart: usize,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("label");
    if args.smoke {
        cmd.arg("--smoke");
    } else if args.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    if args.corpus_scale != 1 {
        cmd.args(["--corpus-scale", &args.corpus_scale.to_string()]);
    }
    if let Some(r) = args.retries {
        cmd.args(["--retries", &r.to_string()]);
    }
    cmd.args(["--shard", &format!("{shard}/{}", args.count)])
        .arg("--ckpt-dir")
        .arg(ckpt_dir)
        .arg("--resume")
        .arg("--out")
        .arg(shard_labels_path(&args.dir, shard))
        .arg("--degradation")
        .arg(shard_degradation_path(&args.dir, shard))
        .stdout(Stdio::null());
    if let Ok(spec) = std::env::var("LOOPML_FAULTS") {
        cmd.env("LOOPML_FAULTS", reseeded_faults(&spec, restart));
    }
    cmd.spawn()
        .map_err(|e| format!("spawn shard {shard}/{}: {e}", args.count))
}

struct ShardState {
    child: Option<Child>,
    restarts: usize,
    last_beat: usize,
    progressed_at: Instant,
    done: bool,
    /// The chaos hook killed this incarnation. Any subsequent exit —
    /// even a successful one that raced the signal — must be treated
    /// as a failure, or the kill can silently no-op on a shard that
    /// finished between polls.
    chaos_killed: bool,
}

fn kill_all(states: &mut [ShardState]) {
    for s in states {
        if let Some(child) = &mut s.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs `count` shard labelers under supervision and merges their
/// output. See the module docs for the protocol; on success the merged
/// labels at `args.out` are byte-identical to a single-process
/// `repro label` at the same scale.
pub fn run_label_supervise(args: &SuperviseArgs) -> Result<SuperviseReport, String> {
    if args.count == 0 {
        return Err("shard count must be at least 1".into());
    }
    if let Some((victim, _)) = args.chaos_kill {
        if victim >= args.count {
            return Err(format!(
                "--chaos-kill shard {victim} out of range for {} shard(s)",
                args.count
            ));
        }
    }
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("mkdir {}: {e}", args.dir.display()))?;
    let ckpt_dir = args.dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("mkdir {}: {e}", ckpt_dir.display()))?;

    let mut report = SuperviseReport::default();
    let mut chaos_fired = false;
    let mut states: Vec<ShardState> = Vec::with_capacity(args.count);
    for shard in 0..args.count {
        states.push(ShardState {
            child: Some(spawn_shard(args, &ckpt_dir, shard, 0)?),
            restarts: 0,
            last_beat: 0,
            progressed_at: Instant::now(),
            done: false,
            chaos_killed: false,
        });
    }
    eprintln!(
        "[label-supervise] {} shard(s), restart budget {}, stall timeout {} ms",
        args.count, args.max_restarts, args.stall_ms
    );

    loop {
        let mut all_done = true;
        for shard in 0..args.count {
            if states[shard].done {
                continue;
            }
            all_done = false;

            let beat = heartbeat(&ckpt_dir, shard, args.count);
            if beat > states[shard].last_beat {
                states[shard].last_beat = beat;
                states[shard].progressed_at = Instant::now();
            }

            // Chaos hook: kill the victim once it has made enough
            // progress to prove resumption recovers it.
            if let Some((victim, threshold)) = args.chaos_kill {
                if victim == shard && !chaos_fired && beat >= threshold {
                    if let Some(child) = &mut states[shard].child {
                        let _ = child.kill();
                        chaos_fired = true;
                        states[shard].chaos_killed = true;
                        report.chaos_kills += 1;
                        eprintln!("[label-supervise] chaos: killed shard {shard} at beat {beat}");
                    }
                }
            }

            let status = match &mut states[shard].child {
                Some(child) => child
                    .try_wait()
                    .map_err(|e| format!("wait shard {shard}: {e}"))?,
                None => None,
            };
            let mut failure = None;
            if let Some(status) = status {
                states[shard].child = None;
                if states[shard].chaos_killed {
                    // The signal may have raced the child's own exit;
                    // scrap whatever it wrote and force the recovery
                    // path regardless of the reported status.
                    let _ = std::fs::remove_file(shard_labels_path(&args.dir, shard));
                    failure = Some("chaos-killed".into());
                } else if status.success() && shard_labels_path(&args.dir, shard).is_file() {
                    // Chaos hook fallback: if the victim finished before
                    // reaching the kill threshold, fail it once anyway so
                    // the recovery path is always exercised.
                    match args.chaos_kill {
                        Some((victim, _)) if victim == shard && !chaos_fired => {
                            chaos_fired = true;
                            report.chaos_kills += 1;
                            let _ = std::fs::remove_file(shard_labels_path(&args.dir, shard));
                            eprintln!("[label-supervise] chaos: failing finished shard {shard}");
                            failure = Some(format!("chaos-failed after {status}"));
                        }
                        _ => {
                            eprintln!(
                                "[label-supervise] shard {shard}/{} complete ({} beat(s))",
                                args.count, states[shard].last_beat
                            );
                            states[shard].done = true;
                            continue;
                        }
                    }
                } else {
                    failure = Some(format!("exited with {status}"));
                }
            } else if states[shard].progressed_at.elapsed() >= Duration::from_millis(args.stall_ms)
            {
                if let Some(child) = &mut states[shard].child {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                states[shard].child = None;
                failure = Some(format!("stalled (no heartbeat for {} ms)", args.stall_ms));
            }

            if let Some(why) = failure {
                if states[shard].restarts >= args.max_restarts {
                    kill_all(&mut states);
                    return Err(format!(
                        "shard {shard}/{} {why} after {} restart(s); giving up",
                        args.count, states[shard].restarts
                    ));
                }
                states[shard].restarts += 1;
                report.restarts += 1;
                eprintln!(
                    "[label-supervise] shard {shard}/{} {why}; restart {}/{} (resuming from checkpoints)",
                    args.count, states[shard].restarts, args.max_restarts
                );
                states[shard].chaos_killed = false;
                states[shard].child =
                    Some(spawn_shard(args, &ckpt_dir, shard, states[shard].restarts)?);
                states[shard].progressed_at = Instant::now();
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(POLL_MS));
    }

    let shard_paths: Vec<String> = (0..args.count)
        .map(|shard| {
            shard_labels_path(&args.dir, shard)
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    labelrun::run_label_merge(&shard_paths, &args.out, Some(&args.degradation))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "[label-supervise] merged {} shard(s) -> {} ({} restart(s), {} chaos kill(s))",
        args.count,
        args.out.display(),
        report.restarts,
        report.chaos_kills
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_kill_spec_parses_and_rejects_garbage() {
        assert_eq!(parse_chaos_kill("1:3"), Ok((1, 3)));
        assert_eq!(parse_chaos_kill("0:0"), Ok((0, 0)));
        for bad in ["", "1", "1:", ":3", "x:3", "1:y", "1:2:3"] {
            assert!(parse_chaos_kill(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn restart_reseeding_is_deterministic_and_shape_preserving() {
        assert_eq!(reseeded_faults("7:0.5", 0), "7:0.5");
        assert_eq!(reseeded_faults("7:0.5", 1), "8:0.5");
        assert_eq!(reseeded_faults("7:0.5:label.loop", 2), "9:0.5:label.loop");
        // Malformed specs pass through untouched — the child will warn.
        assert_eq!(reseeded_faults("nonsense", 3), "nonsense");
        assert_eq!(reseeded_faults("x:0.5", 3), "x:0.5");
    }

    #[test]
    fn heartbeat_counts_only_this_shards_checkpoints() {
        let dir = std::env::temp_dir().join("loopml_supervise_beat_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, _) in [
            ("ckpt_000_a.json", 0),
            ("ckpt_001_b.json", 1),
            ("ckpt_002_c.json", 2),
            ("ckpt_003_d.json", 0),
            ("ckpt_004_e.json.tmp", 0), // in-flight write: not a beat
            ("ckpt_1000_f.json", 1),    // wide benchmark index
            ("notes.txt", 0),
        ] {
            std::fs::write(dir.join(name), b"{}").unwrap();
        }
        assert_eq!(heartbeat(&dir, 0, 3), 2); // 000, 003
        assert_eq!(heartbeat(&dir, 1, 3), 2); // 001, 1000
        assert_eq!(heartbeat(&dir, 2, 3), 1); // 002
        assert_eq!(heartbeat(&dir.join("missing"), 0, 3), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_supervise_specs_are_rejected_before_spawning() {
        let args = SuperviseArgs {
            count: 0,
            ..SuperviseArgs::default()
        };
        assert!(run_label_supervise(&args).is_err());
        let args = SuperviseArgs {
            count: 2,
            chaos_kill: Some((5, 1)),
            ..SuperviseArgs::default()
        };
        assert!(run_label_supervise(&args)
            .unwrap_err()
            .contains("out of range"));
    }
}
