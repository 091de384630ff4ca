#!/usr/bin/env python3
"""Benchmark of the Fig. 5 Monte-Carlo and the scrub service.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` worker
(a package of its own in this directory, built against the repository's
crates by path) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
one workload, checks its outputs, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics, measured with
telemetry recording off; with `--trace 1` they are the per-layer metrics
of a separate traced run. Earlier lines carry the fingerprint (git SHA,
host, nproc, threads, seed, a host-speed reference timing) and the detail
behind the metrics: simulated outputs, set-up samples, the stage table.
See README.md in this directory for the workloads and metric definitions.

`--write-expected` records the current outputs at the default seed as the
committed expectations (`expected.json`) instead of checking them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("fig5_paper", "fig5_multi_error", "scrub_nominal", "scrub_overload")
DEFAULT_SEED = 0
# Fresh set-up-only processes per measured run, besides the run's own
# set-up: each starts with an empty synthesis memo cache.
SETUP_PROCESSES = {
    "fig5_paper": 10,
    "fig5_multi_error": 4,
    "scrub_nominal": 30,
    "scrub_overload": 30,
}
# Busy threads: the Monte-Carlo runs one worker; the scrub service runs
# its scheduler plus one decode worker.
BUSY_THREADS = {"fig5_paper": 1, "fig5_multi_error": 1, "scrub_nominal": 2, "scrub_overload": 2}
# The replayed stages must add up to the measured wall time within this
# share; the report names the residual either way.
STAGE_TOLERANCE = 0.2
# Reproduction sanity bound at any seed: mean absolute gap to the paper's
# four zero-error probabilities (3.6-5.0 pp across seeds today).
MAX_ZERO_ERR_MAE_PP = 8.0
WORKER_TIMEOUT_S = 170
KERNELS = (
    "direct4",
    "direct8",
    "walk-u64",
    "walk-u128",
    "walk-w256",
    "sliced",
    "scalar-fallback",
    "bit-flip",
)
PASSES = (
    "factor-common-pairs",
    "factor-cancellation",
    "factor-none",
    "balance-xor-trees",
    "plan-fanout",
    "emit-netlist",
    "build-clock-tree",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def worker(binary, mode, workload, seed, seconds):
    try:
        done = subprocess.run(
            [str(binary), mode, workload, str(seed), str(seconds)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} {workload} timed out")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        fail(f"{mode} {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def is_fig5(workload):
    return workload.startswith("fig5")


def zero_err_mae_pp(curves):
    gaps = [abs(c["zero_error"] - c["paper_zero_error"]) for c in curves]
    return 100.0 * sum(gaps) / len(gaps)


def p99_latency_cycles(workload, out):
    if not is_fig5(workload):
        return out["report"]["p99_latency_cycles"]
    # Every message of a design spends the encoder's pipeline depth in
    # flight, and each design carries the same number of messages.
    weighted = sorted((c["latency_cycles"], c["chips"] * c["messages_per_chip"]) for c in out["curves"])
    total = sum(m for _, m in weighted)
    seen = 0
    for latency, msgs in weighted:
        seen += msgs
        if seen >= 0.99 * total:
            return latency
    return weighted[-1][0]


def unrescrubbed_msgs(workload, out):
    if is_fig5(workload):
        # Messages the link left wrong under the experiment's counting
        # policy: nothing re-sends them.
        return sum(c["errors"] for c in out["curves"])
    r = out["report"]
    return r["flagged_rescrub"] + r["detect_rescrub"] + r["shed_batches"] * r["batch_messages"]


def simulated(workload, out):
    detail = {
        "p99_latency_cycles": p99_latency_cycles(workload, out),
        "unrescrubbed_msgs": unrescrubbed_msgs(workload, out),
    }
    if workload == "fig5_paper":
        detail["zero_err_mae_pp"] = zero_err_mae_pp(out["curves"])
    if is_fig5(workload):
        detail["zero_error"] = {c["design"]: c["zero_error"] for c in out["curves"]}
        detail["errors_digest"] = {c["design"]: c["errors_digest"] for c in out["curves"]}
    else:
        detail["digest"] = out["report"]["digest"]
    return detail


def expected_outputs(workload, out):
    if is_fig5(workload):
        return {
            c["design"]: {
                "zero_error": c["zero_error"],
                "errors_digest": c["errors_digest"],
                "errors_per_chip": ",".join(str(int(e)) for e in c["errors_per_chip"]),
            }
            for c in out["curves"]
        }
    return {"digest": out["report"]["digest"]}


def check(workload, seed, out, rounds):
    """Returns (correct, attempted, failed, problems).

    An operation is a chip (Fig. 5) or a non-poisoned arriving batch
    (scrub). A chip fails when its error count differs from the committed
    one; a batch fails when it misses its deadline or is shed. A broken
    invariant fails every operation of the run.
    """
    problems = []
    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()).get(workload)
        if expected is None:
            problems.append("no committed expectation")
    if not out.get("rounds_identical", True):
        problems.append("rounds of one seed disagree")
    if not out.get("replay_matches", True):
        problems.append("traced replay disagrees with the measured run")
    if not out.get("cold_cache", True):
        problems.append("a synthesized design hit a warm cancellation cache")

    mismatched = 0
    if is_fig5(workload):
        curves = out["curves"]
        attempted = sum(c["chips"] for c in curves) * rounds
        for c in curves:
            if any(e > c["messages_per_chip"] for e in c["errors_per_chip"]):
                problems.append(f"{c['design']}: more errors than messages")
            want = (expected or {}).get(c["design"])
            if expected is not None and want is None:
                problems.append(f"{c['design']}: no committed expectation")
            if want is not None:
                reference = [int(e) for e in want["errors_per_chip"].split(",")]
                reference += [-1] * (c["chips"] - len(reference))
                differing = sum(int(a) != b for a, b in zip(c["errors_per_chip"], reference))
                if c["errors_digest"] != want["errors_digest"] or c["zero_error"] != want["zero_error"]:
                    differing = max(differing, 1)
                mismatched += differing
        z = [c["zero_error"] for c in curves]
        if workload == "fig5_paper":
            # RM(1,3), Hamming(7,4), Hamming(8,4), uncoded: the paper's order.
            if not z[2] > z[1] > z[0] > z[3]:
                problems.append(f"zero-error ordering broken: {z}")
            if zero_err_mae_pp(curves) > MAX_ZERO_ERR_MAE_PP:
                problems.append("zero-error probabilities drifted from the paper's")
        elif not z[1] > z[0] > z[2]:
            # BCH(31,16) > BCH(63,45) > SEC-DED(72,64) under multi-error faults.
            problems.append(f"multi-error ordering broken: {z}")
        failed = mismatched * rounds
    else:
        r = out["report"]
        attempted = (r["arrivals"] - r["poisoned_rejected"]) * rounds
        failed = (r["deadline_misses"] + r["shed_batches"]) * rounds
        if r["validate"] != "ok":
            problems.append(f"report invalid: {r['validate']}")
        if expected is not None and r["digest"] != expected["digest"]:
            mismatched = 1
            failed = attempted
    if problems:
        failed = attempted
    if mismatched:
        problems.append("outputs differ from the committed ones at the default seed")
    return not problems, attempted, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, workload, seed, seconds):
    before = SETUP_PROCESSES[workload] // 2
    setups = [worker(binary, "setup", workload, seed, seconds)["setup_s"] for _ in range(before)]
    out = worker(binary, "run", workload, seed, seconds)
    setups.append(out["setup_s"])
    setups += [
        worker(binary, "setup", workload, seed, seconds)["setup_s"]
        for _ in range(SETUP_PROCESSES[workload] - before)
    ]
    rounds = len(out["round_s"])
    detail = simulated(workload, out)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "msgs_per_s": metric(out["msgs_per_round"] * rounds / sum(out["round_s"]), "msg/s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MiB"),
        "p99_latency_cycles": metric(detail["p99_latency_cycles"], "cycles"),
        "unrescrubbed_msgs": metric(detail["unrescrubbed_msgs"], "msgs"),
    }
    detail["setup_samples_s"] = setups
    detail["round_s"] = out["round_s"]
    return out, rounds, metrics, detail


def ratio(num, den):
    return num / den if den else 0.0


def stage_table(workload, out):
    """Host seconds per stage for one pass of the workload, from the replay."""
    if is_fig5(workload):
        stages = dict(out["stages"])
        if "link.transmit_batch" in stages:
            # The batched link's decode share comes from its own timer.
            rounds = out["traced_rounds"]
            decode = out["histogram_sums"].get("link.decode_ns", 0) * 1e-9 / rounds
            stages["link.transmit_batch"] -= decode
            stages["batch.decode"] = decode
        return stages
    b, c = out["batch_probe"], out["counters"]
    rounds = out["traced_rounds"]
    decodes = c.get("batch.decode.calls", 0) / rounds
    detects = c.get("batch.detect.calls", 0) / rounds
    full, screen = b["full"], b["detect"]
    return {
        "stream.regen": b["regen_s"] / b["batches"] * (decodes + detects),
        "batch.encode": b["encode_s"] / b["batches"] * (decodes + detects),
        "stream.inject": b["inject_s"] / b["batches"] * (decodes + detects),
        "batch.decode": full["call_s"] / full["batches"] * decodes,
        "stream.classify_full": full["classify_s"] / full["batches"] * decodes,
        "batch.detect": screen["call_s"] / screen["batches"] * detects,
        "stream.classify_detect": screen["classify_s"] / screen["batches"] * detects,
    }


def per_layer(workload, out):
    c = out["counters"]
    synth = out["synth"]
    link = out["link"]
    b = out["batch_probe"]
    rounds = out["traced_rounds"]
    stages = stage_table(workload, out)
    stage_sum = sum(stages.values())
    wall = out["wall_s"]
    m = {"encoders.build_s": metric(out["encoders_build_s"], "s")}
    pass_total = 0.0
    for name in PASSES:
        seconds = synth["pass_s"].get(name, 0.0)
        pass_total += seconds
        m[f"synth.pass_s.{name}"] = metric(seconds, "s")
    m["synth.unattributed_frac"] = metric(1.0 - ratio(pass_total, out["encoders_build_s"]), "fraction")
    for name in ("synth.cancel.cache_hits", "synth.cancel.cache_misses", "synth.plan.candidates_priced"):
        m[name] = metric(synth[name], "count")
    m["sim.sample_chip_us"] = metric(1e6 * ratio(link["sample_chip_s"], link["chips"]), "us")
    m["sim.faulty_cells_per_chip"] = metric(ratio(link["faulty_cells"], link["chips"]), "count")
    m["link.transmit_us_per_msg"] = metric(1e6 * ratio(link["pulse_s"], link["pulse_msgs"]), "us")
    m["link.rebind_us"] = metric(1e6 * ratio(link["rebind_s"], link["rebinds"]), "us")
    m["link.transmit_batch_us"] = metric(1e6 * ratio(link["transmit_batch_s"], link["rebinds"]), "us")
    m["link.sources_fired_frac"] = metric(
        ratio(c.get("link.sources_fired", 0), c.get("link.source_draws", 0)), "fraction"
    )
    pulse = out.get("pulse_outcomes", {})
    for outcome in ("correct", "flagged", "silent"):
        count = pulse.get(outcome, c.get(f"link.outcome.{outcome}", 0) / rounds)
        m[f"link.outcome.{outcome}"] = metric(count, "count")
    m["batch.encode_ns_per_limb"] = metric(1e9 * ratio(b["encode_s"], b["limbs"]), "ns")
    m["batch.decode_ns_per_limb"] = metric(1e9 * ratio(b["full"]["call_s"], b["full"]["limbs"]), "ns")
    m["batch.detect_ns_per_limb"] = metric(1e9 * ratio(b["detect"]["call_s"], b["detect"]["limbs"]), "ns")
    m["batch.clean_limb_frac"] = metric(
        ratio(c.get("batch.decode.clean_limbs", 0), c.get("batch.decode.limbs", 0)), "fraction"
    )
    m["batch.bch.residual_limb_frac"] = metric(
        ratio(c.get("batch.bch.sliced_syndrome_limbs", 0), c.get("batch.kernel.sliced.limbs", 0)),
        "fraction",
    )
    for kernel in KERNELS:
        m[f"batch.kernel.selected.{kernel}"] = metric(
            c.get(f"batch.kernel.selected.{kernel}", 0) / rounds, "count"
        )
    m["batch.decode.calls"] = metric(c.get("batch.decode.calls", 0) / rounds, "count")
    m["batch.detect.calls"] = metric(c.get("batch.detect.calls", 0) / rounds, "count")
    m["stream.regen_ns_per_batch"] = metric(1e9 * ratio(b["regen_s"], b["batches"]), "ns")
    m["stream.inject_ns_per_batch"] = metric(1e9 * ratio(b["inject_s"], b["batches"]), "ns")
    report = out.get("report", {})
    for name, unit in (
        ("transitions", "count"),
        ("max_backlog", "batches"),
        ("drain_cycles", "cycles"),
        ("p50_latency_cycles", "cycles"),
        ("max_latency_cycles", "cycles"),
    ):
        m[f"stream.{name}"] = metric(report.get(name, 0), unit)
    m["stages.wall_s"] = metric(wall, "s")
    m["stages.sum_s"] = metric(stage_sum, "s")
    m["stages.residual_frac"] = metric(1.0 - ratio(stage_sum, wall), "fraction")
    m["telemetry.overhead_frac"] = metric(1.0 - ratio(wall, out["traced_wall_s"]), "fraction")
    table = {name: {"s": s, "share": ratio(s, wall)} for name, s in stages.items()}
    table["residual"] = {"s": wall - stage_sum, "share": 1.0 - ratio(stage_sum, wall)}
    return m, table, abs(1.0 - ratio(stage_sum, wall)) <= STAGE_TOLERANCE


def git_sha():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    return os.environ.get("GIT_SHA", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    binary = build()

    if args.trace == 0:
        out, rounds, metrics, detail = end_to_end(binary, args.workload, args.seed, args.seconds)
    else:
        out = worker(binary, "trace", args.workload, args.seed, args.seconds)
        rounds = 1
        metrics, table, stages_ok = per_layer(args.workload, out)
        detail = simulated(args.workload, out)
        detail["stage_table"] = table
        detail["stage_tolerance"] = STAGE_TOLERANCE
        detail["stages_within_tolerance"] = stages_ok
        detail["builds"] = out["builds"]
        if not stages_ok:
            print(f"perfbench: stage sum is off wall time by more than {STAGE_TOLERANCE:.0%}",
                  file=sys.stderr)

    if args.write_expected:
        if args.seed != DEFAULT_SEED:
            fail("--write-expected records the default seed only")
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        expected[args.workload] = expected_outputs(args.workload, out)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    correct, attempted, failed, problems = check(args.workload, args.seed, out, rounds)
    fingerprint = {
        "git_sha": git_sha(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "busy_threads": BUSY_THREADS[args.workload],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_reference_s": out.get("host_reference_s"),
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
