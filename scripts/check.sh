#!/usr/bin/env bash
# Repository gate. One line per gate, in run order:
# - build, tests, perfbench's self-tests (perfbench/ is its own workspace), clippy, fmt;
# - lint: `repro lint --stats` on the full and the quick corpus (zero denies and disagreements);
# - family sweep: `repro sweep --smoke` scores >= 2 families over one distance pass and crowns a winner;
# - determinism: `repro --quick all` stdout is identical at 1, 4, and 4 workers with 64 KiB tiles;
# - serve: each smoke artifact (nn svm orc tree forest mlp) is answered identically by the daemon;
# - chaos-serve: malformed, oversized and fault-injected traffic costs no well-formed answer;
# - chaos: a LOOPML_FAULTS labeling run quarantines, and keeps every other label of the clean run;
# - builder chaos: `repro train --smoke` under the labeling chaos spec loses examples, not the run;
# - golden: every paper output's byte count and sha256 match scripts/golden.txt;
# - examples: every example binary runs to completion.
#
# Runs entirely offline — the workspace has no external dependencies
# (enforced by tests/zero_deps.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate writes its files here.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
repro() { cargo run --release -q -p loopml-bench --bin repro -- "$@"; }
daemon() { cargo run --release -q -p loopml-serve --bin loopml-serve -- "$@"; }

cargo build --workspace --release
cargo test --workspace -q
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
repro lint --stats > "$work/lint_full.txt"
repro lint --quick --stats > "$work/lint_quick.txt"
repro sweep --smoke

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
LOOPML_THREADS=1 repro --quick all > "$work/threads1.txt"
LOOPML_THREADS=4 repro --quick all > "$work/threads4.txt"
LOOPML_THREADS=4 LOOPML_TILE_BYTES=65536 repro --quick all > "$work/threads4_tiles.txt"
cmp "$work/threads1.txt" "$work/threads4.txt"
cmp "$work/threads1.txt" "$work/threads4_tiles.txt"

# Serve gate: for the paper's NN and SVM, ORC and every zoo family,
# train a smoke artifact, replay the suite through the in-process
# serving loop (serve-bench verifies bit-identity against
# LearnedHeuristic and dumps the exact wire traffic), then feed the
# same requests to the loopml-serve daemon and demand byte-identical
# responses.
for model in nn svm orc tree forest mlp; do
    echo "check.sh: serve gate ($model artifact / serve-bench / daemon diff)"
    repro train --smoke --model "$model" --out "$work/$model.json" | tee "$work/${model}_train.txt"
    repro serve-bench --smoke --artifact "$work/$model.json" \
        --dump-requests "$work/${model}_requests.jsonl" \
        --dump-responses "$work/${model}_responses.jsonl"
    daemon --artifact "$work/$model.json" \
        < "$work/${model}_requests.jsonl" > "$work/${model}_daemon.jsonl"
    cmp "$work/${model}_responses.jsonl" "$work/${model}_daemon.jsonl"
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
    head -n 3 "$work/nn_requests.jsonl"
    echo "this is not json"
    head -c 70000 /dev/zero | tr '\0' x
    echo
    printf '{"id":"bad","features":"nope"}\n'
    tail -n +4 "$work/nn_requests.jsonl"
    printf '{"control":"stats"}\n'
    printf '{"control":"shutdown"}\n'
} > "$work/chaos_in.jsonl"
LOOPML_SERVE_MAX_LINE=65536 \
    daemon --artifact "$work/nn.json" --stats-out "$work/stats_clean.json" \
    < "$work/chaos_in.jsonl" > "$work/chaos_clean.jsonl"
LOOPML_SERVE_MAX_LINE=65536 LOOPML_SERVE_RETRIES=8 LOOPML_FAULTS=42:0.25 \
    daemon --artifact "$work/nn.json" --stats-out "$work/stats_chaos.json" \
    < "$work/chaos_in.jsonl" > "$work/chaos_out.jsonl"
grep '"factors"' "$work/chaos_clean.jsonl" > "$work/factors_clean.jsonl"
grep '"factors"' "$work/chaos_out.jsonl" > "$work/factors_chaos.jsonl"
cmp "$work/factors_clean.jsonl" "$work/factors_chaos.jsonl"
cmp "$work/factors_clean.jsonl" "$work/nn_responses.jsonl"
[ "$(wc -l < "$work/factors_chaos.jsonl")" -eq \
  "$(wc -l < "$work/nn_requests.jsonl")" ]
repro serve-stats-check "$work/stats_chaos.json" --require-faults --require-drained
repro serve-stats-check "$work/stats_clean.json" --require-drained

# Chaos gate: deterministic fault injection through the full CLI.
echo "check.sh: chaos gate (clean / chaos / diff)"
repro label --smoke --out "$work/clean.json" --degradation "$work/clean_deg.json"
LOOPML_FAULTS=20260806:0.06:label.measure repro label --smoke \
    --out "$work/chaos.json" --degradation "$work/chaos_deg.json"
repro label-diff "$work/clean.json" "$work/chaos.json" --expect-quarantine

# Builder chaos gate: PipelineBuilder labels through the fault-tolerant
# engine, so the chaos spec the label gate uses must cost training
# examples (quarantined loops), never the run.
echo "check.sh: builder chaos gate (train under label.measure faults)"
chaos_train=$(LOOPML_FAULTS=20260806:0.06:label.measure \
    repro train --smoke --out "$work/chaos_model.json")
echo "$chaos_train"
examples_of() { sed -n 's/.*"examples":\([0-9]*\).*/\1/p' <<< "$1"; }
clean_examples=$(examples_of "$(cat "$work/nn_train.txt")")
chaos_examples=$(examples_of "$chaos_train")
[ -n "$clean_examples" ] && [ -n "$chaos_examples" ]
[ "$chaos_examples" -lt "$clean_examples" ]

# Golden gate: the output contract. scripts/golden.txt holds one line
# per paper output: its name, byte count and sha256. The table
# recomputed from this run's files must match it line for line; the
# three determinism runs all feed the one `repro-quick-all.stdout`
# line. One masking rule: the sweep report's "wall_ms" and "threads"
# describe the run, not the result, so the digested copy reads 0 for
# both. On a mismatch the recomputed table is printed. A change that
# moves an output on purpose commits that table and names each moved
# line in CHANGES.md.
echo "check.sh: golden gate (scripts/golden.txt)"
LOOPML_LINT=deny repro label --smoke \
    --out "$work/lintdeny.json" --degradation "$work/lintdeny_deg.json" \
    2> "$work/lintdeny_err.txt" || { tail "$work/lintdeny_err.txt"; exit 1; }
sed -E 's/"(wall_ms|threads)":[0-9.]+/"\1":0/g' SWEEP_ml.json > "$work/sweep_masked.json"
digest() { printf '%s %d %s\n' "$1" "$(wc -c < "$2")" "$(sha256sum < "$2" | cut -d' ' -f1)"; }
{
    for run in threads1 threads4 threads4_tiles; do
        digest repro-quick-all.stdout "$work/$run.txt"
    done | sort -u
    digest SWEEP_ml.json.masked "$work/sweep_masked.json"
    for run in clean chaos lintdeny; do
        digest "label.$run.labels.json" "$work/$run.json"
        digest "label.$run.degradation.json" "$work/${run}_deg.json"
    done
    for model in nn svm orc tree forest mlp; do
        digest "train.$model.json" "$work/$model.json"
        digest "serve-bench.$model.responses.jsonl" "$work/${model}_responses.jsonl"
    done
    digest lint.full.stdout "$work/lint_full.txt"
    digest lint.quick.stdout "$work/lint_quick.txt"
} > "$work/golden.txt"
if ! diff -u scripts/golden.txt "$work/golden.txt"; then
    echo "check.sh: golden gate failed; the recomputed table:" >&2
    cat "$work/golden.txt" >&2
    exit 1
fi

# Examples gate: clippy compiles the examples, this runs them.
for example in quickstart spec_sweep feature_selection outlier_analysis custom_loop model_zoo; do
    echo "check.sh: example $example"
    cargo run --release -q --example "$example" > /dev/null
done

echo "check.sh: all gates passed"
