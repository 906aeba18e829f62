#!/usr/bin/env bash
# Repository gate: release build, full test suite, the benchmark's own
# self-tests (perfbench/ is a workspace of its own, so the workspace
# build never compiles it), clippy, formatting,
# the lint and prover gate (`repro lint` verifies every loop's IR and
# validates every unrollable loop at every unroll factor; over the full
# corpus and again over the 72-benchmark quick corpus it must show zero
# denies, zero prover/oracle disagreements, and >= 70% affine-corpus
# coverage), the sweep
# gate (the smoke-scale `repro sweep` must select hyperparameters with
# exactly one pairwise distance pass, score at least two model
# families, and crown a cross-family winner), the determinism gate
# (`repro --quick all` stdout must be byte-identical at one worker, at
# four, and at four under a 64 KiB tile budget that makes greedy
# selection rebuild its row strips every round), the serve gate (a
# smoke-trained artifact served through the `loopml-serve` daemon must
# answer replayed batches byte-identically to the in-process heuristic,
# repeated for the paper's SVM and each tree/forest/MLP zoo artifact),
# and the chaos gate (a fixed-seed LOOPML_FAULTS labeling run must
# complete with the expected quarantine, keep every non-faulted label
# bit-identical to a clean run, and resume from partial checkpoints
# byte-identically), and the shard gate (three independent
# `repro label --shard i/3` processes merged by `repro label-merge`
# must produce a file byte-identical to the single-process run), and
# the chaos-serve gate (the daemon fed malformed, oversized, and
# fault-injected traffic at all three serve sites must answer every
# well-formed request byte-identically to a clean run and drain a
# schema-validated serve-stats document), and the supervisor gate
# (`repro label-supervise 3` with one shard chaos-killed mid-run must
# self-heal and merge labels byte-identical to the single-process run),
# the builder chaos gate (`repro train --smoke` under the labeling
# chaos spec must quarantine instead of crashing: it exits 0 with fewer
# training examples than the clean run), and the examples gate (every
# example binary runs to completion).
#
# Runs entirely offline — the workspace has no external dependencies
# (enforced by tests/zero_deps.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test --workspace -q
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
cargo run --release -p loopml-bench --bin repro -- lint --stats
cargo run --release -p loopml-bench --bin repro -- lint --quick --stats
cargo run --release -p loopml-bench --bin repro -- sweep --smoke

# Family-sweep gate: the cross-family sweep must have scored at least
# two model families over its single distance pass and crowned a
# winner from the fixed vocabulary. `repro sweep` already exits nonzero
# on either violation; these greps keep the report's wire format honest.
echo "check.sh: family-sweep gate (multi-family scoring / winner)"
grep -q '"winner":{"family":"\(nn\|svm\|tree\|forest\|mlp\)"' SWEEP_ml.json
grep -q '"distance_builds":1,' SWEEP_ml.json
scored=0
for fam in nn svm tree forest mlp; do
    if grep -q "\"$fam\":{\"cells\":\[{" SWEEP_ml.json; then
        scored=$((scored + 1))
    fi
done
[ "$scored" -ge 2 ]

# Determinism gate: every paper output is a pure function of the
# corpus, whatever the worker count or memory budget. The 64 KiB budget
# drops greedy selection's row strips after every round, both in the
# builder's feature selection and in Table 4's greedy trace.
echo "check.sh: determinism gate (repro --quick all at 1 / 4 / 4 + tiles)"
det_dir=$(mktemp -d)
trap 'rm -rf "$det_dir"' EXIT
repro_all() {
    cargo run --release -q -p loopml-bench --bin repro -- --quick all
}
LOOPML_THREADS=1 repro_all > "$det_dir/threads1.txt"
LOOPML_THREADS=4 repro_all > "$det_dir/threads4.txt"
LOOPML_THREADS=4 LOOPML_TILE_BYTES=65536 repro_all > "$det_dir/threads4_tiles.txt"
cmp "$det_dir/threads1.txt" "$det_dir/threads4.txt"
cmp "$det_dir/threads1.txt" "$det_dir/threads4_tiles.txt"

# Serve gate: train a smoke artifact, replay the suite through the
# in-process serving loop (serve-bench verifies bit-identity against
# LearnedHeuristic and dumps the exact wire traffic), then feed the same
# requests to the loopml-serve daemon binary and demand byte-identical
# responses.
serve_dir=$(mktemp -d)
trap 'rm -rf "$det_dir" "$serve_dir"' EXIT
echo "check.sh: serve gate (train / serve-bench / daemon diff)"
clean_train=$(cargo run --release -q -p loopml-bench --bin repro -- train --smoke \
    --out "$serve_dir/model.json")
echo "$clean_train"
cargo run --release -q -p loopml-bench --bin repro -- serve-bench --smoke \
    --artifact "$serve_dir/model.json" \
    --dump-requests "$serve_dir/requests.jsonl" \
    --dump-responses "$serve_dir/responses.jsonl"
cargo run --release -q -p loopml-serve --bin loopml-serve -- \
    --artifact "$serve_dir/model.json" \
    < "$serve_dir/requests.jsonl" > "$serve_dir/daemon.jsonl"
cmp "$serve_dir/responses.jsonl" "$serve_dir/daemon.jsonl"

# Zoo serve gate: the paper's SVM and every zoo family must survive
# the same round trip — train an artifact, replay the suite through the
# in-process serving loop, and demand the daemon answer the identical
# requests byte-for-byte.
for model in svm tree forest mlp; do
    echo "check.sh: zoo serve gate ($model artifact / daemon diff)"
    cargo run --release -q -p loopml-bench --bin repro -- train --smoke \
        --model "$model" --out "$serve_dir/$model.json"
    cargo run --release -q -p loopml-bench --bin repro -- serve-bench --smoke \
        --artifact "$serve_dir/$model.json" \
        --dump-requests "$serve_dir/${model}_requests.jsonl" \
        --dump-responses "$serve_dir/${model}_responses.jsonl"
    cargo run --release -q -p loopml-serve --bin loopml-serve -- \
        --artifact "$serve_dir/$model.json" \
        < "$serve_dir/${model}_requests.jsonl" > "$serve_dir/${model}_daemon.jsonl"
    cmp "$serve_dir/${model}_responses.jsonl" "$serve_dir/${model}_daemon.jsonl"
done

# Chaos-serve gate: the hardened daemon. The same request stream is
# interleaved with a ping, a non-JSON line, an over-limit line, and a
# malformed request, then replayed twice — once clean, once with
# deterministic faults injected at serve.decode/predict/write (seed 42
# empirically fires all three sites without exhausting the retry
# budget). Well-formed requests must be answered byte-identically in
# both runs, garbage must be answered in place (never kill the
# transport), and the shutdown sentinel must drain a validated
# loopml/serve-stats/v1 document.
echo "check.sh: chaos-serve gate (malformed / oversized / faulted traffic)"
{
    printf '{"control":"ping"}\n'
    head -n 3 "$serve_dir/requests.jsonl"
    echo "this is not json"
    head -c 70000 /dev/zero | tr '\0' x
    echo
    printf '{"id":"bad","features":"nope"}\n'
    tail -n +4 "$serve_dir/requests.jsonl"
    printf '{"control":"stats"}\n'
    printf '{"control":"shutdown"}\n'
} > "$serve_dir/chaos_in.jsonl"
LOOPML_SERVE_MAX_LINE=65536 \
    cargo run --release -q -p loopml-serve --bin loopml-serve -- \
    --artifact "$serve_dir/model.json" --stats-out "$serve_dir/stats_clean.json" \
    < "$serve_dir/chaos_in.jsonl" > "$serve_dir/chaos_clean.jsonl"
LOOPML_SERVE_MAX_LINE=65536 LOOPML_SERVE_RETRIES=8 LOOPML_FAULTS=42:0.25 \
    cargo run --release -q -p loopml-serve --bin loopml-serve -- \
    --artifact "$serve_dir/model.json" --stats-out "$serve_dir/stats_chaos.json" \
    < "$serve_dir/chaos_in.jsonl" > "$serve_dir/chaos_out.jsonl"
grep '"factors"' "$serve_dir/chaos_clean.jsonl" > "$serve_dir/factors_clean.jsonl"
grep '"factors"' "$serve_dir/chaos_out.jsonl" > "$serve_dir/factors_chaos.jsonl"
cmp "$serve_dir/factors_clean.jsonl" "$serve_dir/factors_chaos.jsonl"
cmp "$serve_dir/factors_clean.jsonl" "$serve_dir/responses.jsonl"
[ "$(wc -l < "$serve_dir/factors_chaos.jsonl")" -eq \
  "$(wc -l < "$serve_dir/requests.jsonl")" ]
cargo run --release -q -p loopml-bench --bin repro -- serve-stats-check \
    "$serve_dir/stats_chaos.json" --require-faults --require-drained
cargo run --release -q -p loopml-bench --bin repro -- serve-stats-check \
    "$serve_dir/stats_clean.json" --require-drained

# Chaos gate: deterministic fault injection through the full CLI.
chaos_dir=$(mktemp -d)
trap 'rm -rf "$det_dir" "$serve_dir" "$chaos_dir"' EXIT
repro_label() {
    cargo run --release -q -p loopml-bench --bin repro -- label --smoke "$@"
}
echo "check.sh: chaos gate (clean / chaos / diff / resume)"
repro_label --ckpt-dir "$chaos_dir/ck" \
    --out "$chaos_dir/clean.json" --degradation "$chaos_dir/clean_deg.json"
LOOPML_FAULTS=20260806:0.06:label.measure repro_label \
    --out "$chaos_dir/chaos.json" --degradation "$chaos_dir/chaos_deg.json"
cargo run --release -q -p loopml-bench --bin repro -- label-diff \
    "$chaos_dir/clean.json" "$chaos_dir/chaos.json" --expect-quarantine
# Simulate a crash: lose some checkpoints, resume, demand byte-identity.
rm "$chaos_dir"/ck/ckpt_001_* "$chaos_dir"/ck/ckpt_004_*
repro_label --ckpt-dir "$chaos_dir/ck" --resume \
    --out "$chaos_dir/resumed.json" --degradation "$chaos_dir/resumed_deg.json"
cmp "$chaos_dir/clean.json" "$chaos_dir/resumed.json"
cmp "$chaos_dir/clean_deg.json" "$chaos_dir/resumed_deg.json"

# Shard gate: the multi-process labeling work queue. Three disjoint
# shards labeled by independent processes, merged back into global
# order, must be byte-identical to the single-process file.
shard_dir=$(mktemp -d)
trap 'rm -rf "$det_dir" "$serve_dir" "$chaos_dir" "$shard_dir"' EXIT
echo "check.sh: shard gate (3-way label shards / merge / diff)"
repro_label --out "$shard_dir/single.json" --degradation "$shard_dir/single_deg.json"
for i in 0 1 2; do
    repro_label --shard "$i/3" --out "$shard_dir/shard$i.json" \
        --degradation "$shard_dir/deg$i.json" &
done
wait
cargo run --release -q -p loopml-bench --bin repro -- label-merge \
    "$shard_dir/shard0.json" "$shard_dir/shard1.json" "$shard_dir/shard2.json" \
    --out "$shard_dir/merged.json"
cmp "$shard_dir/single.json" "$shard_dir/merged.json"

# Supervisor gate: the self-healing work queue. One shard is
# chaos-killed after its first heartbeat; the supervisor must restart
# it from checkpoints and the merged labels and degradation report must
# still be byte-identical to the single-process run.
echo "check.sh: supervisor gate (chaos-killed shard / self-heal / diff)"
cargo run --release -q -p loopml-bench --bin repro -- label-supervise 3 \
    --smoke --chaos-kill 1:1 --dir "$shard_dir/sup" \
    --out "$shard_dir/supervised.json" \
    --degradation "$shard_dir/supervised_deg.json"
cmp "$shard_dir/single.json" "$shard_dir/supervised.json"
cmp "$shard_dir/single_deg.json" "$shard_dir/supervised_deg.json"

# Builder chaos gate: PipelineBuilder labels through the fault-tolerant
# engine, so the chaos spec the label gate uses must cost training
# examples (quarantined loops), never the run.
echo "check.sh: builder chaos gate (train under label.measure faults)"
chaos_train=$(LOOPML_FAULTS=20260806:0.06:label.measure \
    cargo run --release -q -p loopml-bench --bin repro -- train --smoke \
    --out "$chaos_dir/chaos_model.json")
echo "$chaos_train"
examples_of() { sed -n 's/.*"examples":\([0-9]*\).*/\1/p' <<< "$1"; }
clean_examples=$(examples_of "$clean_train")
chaos_examples=$(examples_of "$chaos_train")
[ -n "$clean_examples" ] && [ -n "$chaos_examples" ]
[ "$chaos_examples" -lt "$clean_examples" ]

# Examples gate: clippy compiles the examples, this runs them.
for example in quickstart spec_sweep feature_selection outlier_analysis custom_loop model_zoo; do
    echo "check.sh: example $example"
    cargo run --release -q --example "$example" > /dev/null
done

echo "check.sh: all gates passed"
