#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/tier1.sh [stage]
#
# Stages (run in this order by the default `all`; each is also a CI job
# in .github/workflows/ci.yml):
#   fmt     cargo fmt --check              (tree must be rustfmt-clean)
#   build   cargo build --release          (all crates + experiment bins)
#   test    cargo test -q --workspace      (unit + integration + doc tests;
#           includes the engine equivalence contract: every golden
#           workload, pinned query and telemetry document runs in-process
#           under {event engine, heap oracle} x {fast, exact} access
#           paths, and memo on/off where memo results are pinned)
#   golden  gramer-mine CLI byte-identity: a GRAMER_SIM_THREADS=4
#           sharded multi-app run and an explicit --memo off run must
#           both reproduce the default serial run byte-for-byte
#   query   gramer-mine --query / gramer-query CLI smoke
#   doc     cargo doc --no-deps            (rustdoc, warnings denied)
#   clippy  clippy on the library crates   (unwrap/expect denied: failures
#           must flow through the typed error taxonomy, not panic; the
#           perf lints warn so hot-path regressions surface in review)
#   bench   cargo bench, smoke mode        (every bench runs its closure
#           exactly once — compiles-and-runs proof, not a measurement)
#   artifact  .gra artifact round-trip on both golden workloads:
#           gramer-artifact build/verify/inspect + gramer-mine --artifact,
#           on the mmap and forced-copy load paths, plus the artifact
#           test suite (see docs/FORMAT.md)
#   serve   gramer-serve daemon end-to-end: both golden workloads over
#           HTTP byte-identical to gramer-mine --json, injected-panic
#           containment, queue-full back-pressure, SIGTERM drain with an
#           intact journal (see docs/DESIGN.md, service architecture)
#   all     every stage above (the default)
set -euo pipefail
cd "$(dirname "$0")/.."

stage_fmt() {
    echo "== tier1: cargo fmt --check"
    cargo fmt --all --check
}

stage_build() {
    echo "== tier1: cargo build --release --workspace"
    cargo build --release --workspace
}

stage_test() {
    echo "== tier1: cargo test -q --workspace"
    cargo test -q --workspace
}

stage_golden() {
    echo "== tier1: gramer-mine CLI byte-identity (sharded cells, --memo off)"
    # Sharded-cells pass: gramer-mine must produce byte-identical reports
    # with 4 host threads over a multi-app cell list.
    echo "   -- sim-threads=4 sharded cells byte-identity (gramer-mine)"
    cargo build --release -q -p gramer --bin gramer-mine
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    target/release/gramer-mine --demo --app 3-cf,3-mc,4-cf --sim-threads 1 \
        --json "$tmp/serial.json" > "$tmp/serial.out" 2> /dev/null
    GRAMER_SIM_THREADS=4 target/release/gramer-mine --demo --app 3-cf,3-mc,4-cf \
        --json "$tmp/sharded.json" > "$tmp/sharded.out" 2> /dev/null
    cmp "$tmp/serial.json" "$tmp/sharded.json"
    cmp "$tmp/serial.out" "$tmp/sharded.out"
    # `--memo off` is the bit-exact reference path: explicitly passing it
    # must reproduce the default run byte-for-byte (JSON and stdout).
    echo "   -- --memo off byte-identity with the default run (gramer-mine)"
    target/release/gramer-mine --demo --app 3-cf,3-mc,4-cf --memo off \
        --json "$tmp/memo-off.json" > "$tmp/memo-off.out" 2> /dev/null
    cmp "$tmp/serial.json" "$tmp/memo-off.json"
    cmp "$tmp/serial.out" "$tmp/memo-off.out"
}

stage_query() {
    # CLI smoke: both query front ends accept the same spec and the
    # ablation tool's internal brute-vs-filtered identity check passes.
    echo "== tier1: gramer-mine --query / gramer-query smoke"
    cargo build --release -q -p gramer --bin gramer-mine --bin gramer-query
    target/release/gramer-mine --demo --query "0,0,0:0-1,1-2,2-0" > /dev/null 2> /dev/null
    target/release/gramer-query --gen golden-ba --labels 6:3 \
        --query "1,2,3:0-1,1-2" > /dev/null 2> /dev/null
}

stage_doc() {
    echo "== tier1: cargo doc --no-deps --workspace (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
}

stage_clippy() {
    echo "== tier1: clippy unwrap/expect gate on library crates"
    cargo clippy -q -p gramer -p gramer-graph -p gramer-memsim -p gramer-mining \
        -p gramer-serve --lib -- \
        -D clippy::unwrap_used -D clippy::expect_used \
        -W clippy::needless_collect -W clippy::redundant_clone \
        -W clippy::large_stack_arrays -W clippy::trivially_copy_pass_by_ref \
        -W clippy::large_enum_variant
    # The query ablation bin is part of the documented experiment surface,
    # so it is held to the same no-panic bar as the libraries.
    echo "== tier1: clippy unwrap/expect gate on gramer-query"
    cargo clippy -q -p gramer --bin gramer-query -- \
        -D clippy::unwrap_used -D clippy::expect_used
}

stage_bench() {
    echo "== tier1: bench smoke (GRAMER_BENCH_SMOKE=1, single iteration each)"
    GRAMER_BENCH_SMOKE=1 cargo bench -q -p gramer-bench
}

stage_artifact() {
    echo "== tier1: .gra artifact round-trip (build / verify / inspect / mine)"
    cargo build --release -q -p gramer --bins
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    local w
    for w in golden-ba golden-rmat; do
        echo "   -- $w: build + verify + inspect"
        target/release/gramer-artifact build --gen "$w" -o "$tmp/$w.gra"
        target/release/gramer-artifact verify "$tmp/$w.gra"
        # Forced-copy load path must accept the same file.
        GRAMER_ARTIFACT_NO_MMAP=1 target/release/gramer-artifact verify "$tmp/$w.gra"
        target/release/gramer-artifact inspect "$tmp/$w.gra" > /dev/null
    done
    echo "   -- golden-ba: gramer-mine --artifact (4-clique finding)"
    target/release/gramer-mine --artifact "$tmp/golden-ba.gra" --app 4-cf > /dev/null
    echo "   -- golden-rmat: gramer-mine --artifact (3-motif counting)"
    target/release/gramer-mine --artifact "$tmp/golden-rmat.gra" --app 3-mc > /dev/null
    echo "   -- artifact test suite (round-trip, corruption, pinned digest)"
    cargo test -q --test artifact
}

# Polls for the daemon's --addr-file (atomic publish) instead of racing
# the bind; prints the address on stdout.
wait_addr_file() {
    local file="$1" log="$2" i
    for i in $(seq 1 200); do
        if [ -f "$file" ]; then
            cat "$file"
            return 0
        fi
        sleep 0.05
    done
    echo "tier1 serve: daemon never published $file" >&2
    cat "$log" >&2
    return 1
}

stage_serve() {
    echo "== tier1: gramer-serve daemon (HTTP parity, panic containment, back-pressure, drain)"
    cargo build --release -q -p gramer -p gramer-serve --bins
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    local serve=target/release/gramer-serve
    local mine=target/release/gramer-mine
    local artifact=target/release/gramer-artifact

    # Reference inputs: the two golden workload artifacts, mined directly
    # by the CLI. The daemon must reproduce these bytes exactly.
    "$artifact" build --gen golden-ba -o "$tmp/golden-ba.gra"
    "$artifact" build --gen golden-rmat -o "$tmp/golden-rmat.gra"
    "$mine" --artifact "$tmp/golden-ba.gra" --app 4-cf --json "$tmp/golden-ba.cli.json" > /dev/null
    "$mine" --artifact "$tmp/golden-rmat.gra" --app 3-mc --json "$tmp/golden-rmat.cli.json" > /dev/null

    echo "   -- daemon up (ephemeral port, journal on)"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr" --workers 2 \
        --journal "$tmp/jobs.jsonl" 2> "$tmp/daemon.log" &
    local pid=$!
    local addr
    addr="$(wait_addr_file "$tmp/addr" "$tmp/daemon.log")"

    local pair w app id
    for pair in golden-ba:4-cf golden-rmat:3-mc; do
        w="${pair%%:*}"
        app="${pair#*:}"
        echo "   -- $w/$app over HTTP, byte-compared to gramer-mine --json"
        "$serve" client --addr "$addr" submit --artifact "$tmp/$w.gra" --app "$app" --wait \
            > "$tmp/$w.summary.json"
        id="$(grep -o '"id":[[:space:]]*[0-9]*' "$tmp/$w.summary.json" | head -n1 | grep -o '[0-9]*$')"
        "$serve" client --addr "$addr" report "$id" --out "$tmp/$w.served.json"
        cmp "$tmp/$w.served.json" "$tmp/$w.cli.json"
    done

    echo "   -- SIGTERM drains gracefully and leaves the journal intact"
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "tier1 serve: daemon did not exit 0 after SIGTERM" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    [ -s "$tmp/jobs.jsonl" ] || { echo "tier1 serve: journal missing after drain" >&2; exit 1; }
    # Journal lines are compact JSONL; both completed jobs must survive.
    [ "$(grep -c '"status":"completed"' "$tmp/jobs.jsonl")" -eq 2 ] || {
        echo "tier1 serve: journal lost the completed jobs:" >&2
        cat "$tmp/jobs.jsonl" >&2
        exit 1
    }

    echo "   -- injected panic ends in a typed state; daemon survives"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr2" --workers 1 \
        --chaos panic=1000,seed=1 --max-retries 0 2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr2" "$tmp/daemon.log")"
    if "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf --wait \
        > "$tmp/panic.json"; then
        echo "tier1 serve: a panicked job reported success" >&2
        exit 1
    fi
    grep -q '"status":[[:space:]]*"panicked"' "$tmp/panic.json"
    "$serve" client --addr "$addr" healthz > /dev/null
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    echo "   -- full queue answers a typed 429"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr3" --workers 0 --queue 1 \
        2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr3" "$tmp/daemon.log")"
    "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf > /dev/null
    if "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf > "$tmp/full.json"; then
        echo "tier1 serve: an over-capacity submission was accepted" >&2
        exit 1
    fi
    grep -q 'queue_full' "$tmp/full.json"
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"
    echo "   -- serve stage green"
}

stage_all() {
    stage_fmt
    stage_build
    stage_test
    stage_golden
    stage_query
    stage_doc
    stage_clippy
    stage_bench
    stage_artifact
    stage_serve
    echo "== tier1: all green"
}

stage="${1:-all}"
case "$stage" in
    fmt|build|test|golden|query|doc|clippy|bench|artifact|serve|all)
        "stage_$stage"
        ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "usage: $0 [fmt|build|test|golden|query|doc|clippy|bench|artifact|serve|all]" >&2
        exit 2
        ;;
esac
