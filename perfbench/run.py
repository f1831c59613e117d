#!/usr/bin/env python3
"""End-to-end benchmark of the Orion FHE stack (see README.md).

    python3 perfbench/run.py --workload cnn-relu-boot --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. Builds perfbench/ (the orion library plus
harness.cpp) into $CARGO_TARGET_DIR/perfbench (default .bench_build),
derives every input from --seed, runs the harness, checks every output
against the cleartext network, and prints one JSON object as the last
line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics of a separate traced run and writes its
spans. Exits nonzero when any result is wrong or missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Fixed absolute error bound per workload (the correctness gate).
ERR_BOUND = {
    "cnn-relu-boot": 0.1,
    "lola-leveled": 1e-3,
    "serve-open-churn": 1e-2,
}
SETUP_SAMPLES = 5          # set-ups per run (fresh processes), median kept
SERVE_RATE = 20.0          # open-loop arrivals per second (phase A)
SERVE_SESSIONS = 48        # registered sessions at any time
SERVE_LIMIT_MS = 1000.0    # responses slower than this are misses
SERVE_PHASE_A = 0.6        # share of --seconds spent in the open loop
SERVE_SLICES = 3           # open-loop slices, each between closed-loop ones
RUN_TIMEOUT_S = 170        # set-ups plus the measured run, after the build


def build(root):
    """Configures and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "orion.h")):
        raise SystemExit("perfbench: orion sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    # Compiler and harness temporaries stay inside the checkout too.
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "orion_perfbench"), out


def harness(binary, args, timeout):
    subprocess.run([binary] + args, check=True, timeout=timeout,
                   stdout=sys.stderr, stderr=sys.stderr)


def load(path):
    with open(path) as f:
        return json.load(f)


def per_image(raw, key):
    values = raw.get(key) or []
    return stats.median(values) if values else 0.0


def e2e_metrics(raw, tail, setups, attempted, failed):
    worst = max(raw["max_err"], default=1.0)
    return {
        "latency_p50_ms": stats.median(raw["latency_ms"]),
        "latency_tail_ms": tail[0] if tail else max(raw["latency_ms"],
                                                    default=0.0),
        "images_per_s": raw["images_per_s"],
        "success_ratio": (attempted - failed) / attempted,
        "precision_bits": stats.precision_bits(worst),
        "setup_s": stats.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "key_bundle_mb": raw["key_bundle_bytes"] / 1e6,
    }


def span_self_times(spans):
    """Median per-id self time (ms) of each span name: duration minus the
    part of it that child spans cover."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    per_name = {}
    for i, s in enumerate(spans):
        covered, cursor = 0, s["start_ns"]
        for c in sorted(children.get(i, []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_ns = max(0, s["end_ns"] - s["start_ns"] - covered)
        per_name.setdefault(s["name"], []).append(self_ns / 1e6)
    return {k: stats.median(v) for k, v in per_name.items()}


def layer_metrics(w, raw, spans):
    """The per-layer metrics of a traced run (units in BENCHMARK.json)."""
    serve = w == "serve-open-churn"
    images = max(raw["attempted"], 1)
    m = {
        "compiler.compile_s": raw["compiler.compile_s"],
        "compiler.rotations": raw["compiler.rotations"],
        "compiler.bootstraps": raw["compiler.bootstraps"],
        "ckks.keygen_s": raw["ckks.keygen_s"],
        "ckks.galois_keys": raw["ckks.galois_keys"],
        "ckks.encrypt_ms": per_image(raw, "ckks.encrypt_ms"),
        "ckks.decrypt_ms": per_image(raw, "ckks.decrypt_ms"),
        "ckks.keyswitch_per_image": raw["ops.keyswitch"],
        "ckks.ntt_per_image": raw["ops.ntt"],
        "ckks.rotations_per_image": raw["ops.rotations"],
        "ckks.pmult_per_image": raw["ops.pmult"],
        "ckks.arena_hit_ratio": raw["ops.arena_hit_ratio"],
        "trace.overhead_ms": 1e3 * raw["trace.overhead_s"] / images,
    }
    exe = per_image(raw, "executor.execute_ms")
    boot = raw["ops.bootstrap_ms"]
    m["executor.execute_ms"] = exe
    m["executor.linear_ms"] = per_image(raw, "executor.layer_linear_ms")
    # Bootstraps are charged to the layer they precede; take them out.
    m["executor.activation_ms"] = max(
        0.0, per_image(raw, "executor.layer_other_ms") - boot)
    m["bootstrap.share"] = boot / exe if exe > 0 else 0.0
    m["cost_model.modeled_over_measured"] = (
        raw["cost_model.modeled_ms"] / exe if exe > 0 else 0.0)
    for k in ("bootstrap.ms", "bootstrap.cts_ms", "bootstrap.eval_mod_ms",
              "bootstrap.stc_ms"):
        m[k] = raw.get(k, 0.0)

    for k in ("serve.queue_wait_p50_ms", "serve.queue_wait_tail_ms",
              "serve.execute_ms", "serve.register_ms",
              "serve.key_cache_hit_ratio", "serve.rejected",
              "net.overhead_ms", "net.bytes_per_request", "net.retries",
              "load.lateness_p50_ms", "load.lateness_max_ms",
              "share.queue", "share.execute", "share.register", "share.net",
              "share.client_crypto", "share.client_wait",
              "share.unaccounted"):
        m[k] = 0.0
    if serve:
        q = raw["serve.queue_wait_ms"]
        m["serve.queue_wait_p50_ms"] = stats.median(q)
        m["serve.queue_wait_tail_ms"] = stats.tail(q)[0]
        m["serve.execute_ms"] = stats.median(raw["serve.execute_ms"])
        m["executor.execute_ms"] = m["serve.execute_ms"]
        m["cost_model.modeled_over_measured"] = (
            raw["cost_model.modeled_ms"] / m["serve.execute_ms"])
        m["serve.register_ms"] = per_image(raw, "serve.register_ms")
        hits = raw["serve.key_cache_hits"]
        lookups = max(hits + raw["serve.key_cache_misses"], 1)
        m["serve.key_cache_hit_ratio"] = hits / lookups
        m["serve.rejected"] = raw["serve.rejected"]
        m["net.bytes_per_request"] = raw["ops.net_bytes"]
        m["net.retries"] = raw["net.retries"]
        m["load.lateness_p50_ms"] = stats.median(raw["load.lateness_ms"])
        m["load.lateness_max_ms"] = max(raw["load.lateness_ms"])
        m.update(serve_shares(raw, spans, m["ckks.encrypt_ms"]))
    return m


def serve_shares(raw, spans, encrypt_ms):
    """Round-trip decomposition of the open-loop (phase A) requests.

    A request's round trip runs from its scheduled send time to its
    decrypted output: load-generator lateness, the wait for the session's
    connection, NetClient::infer_raw (client encrypt, wire, queue wait,
    execute) and decrypt. Of a request's infer_raw time, what queue wait,
    execute and encrypt (the client encrypts inside infer_raw) leave is
    charged to share.register as far as a phase-A registration was in
    progress at the same time (a registration holds the endpoint's frame
    loop while it decodes the bundle), and the rest to net.overhead_ms.
    share.net is thus a residual, so the shares sum to 1 apart from
    share.unaccounted, the request spans' time that no child span covers.
    Each share is a sum over the requests divided by their summed round
    trip.
    """
    req = {i: s for i, s in enumerate(spans)
           if s["name"] == "request" and s["id"] < 1000000}
    regs = stats.union_intervals(
        (s["start_ns"], s["end_ns"]) for s in spans
        if s["name"] == "net.register" and s["parent"] < 0)
    child, rpc = {}, {}
    for s in spans:
        if s["parent"] in req:
            child[s["name"]] = (child.get(s["name"], 0.0) +
                                (s["end_ns"] - s["start_ns"]) / 1e6)
            if s["name"] == "net.infer_raw":
                rpc[s["id"]] = s
    queue = dict(zip(raw["request_id"], raw["serve.queue_wait_ms"]))
    exe = dict(zip(raw["request_id"], raw["serve.execute_ms"]))
    net = reg = 0.0
    for rid, s in rpc.items():
        rest = ((s["end_ns"] - s["start_ns"]) / 1e6 - queue.get(rid, 0.0) -
                exe.get(rid, 0.0) - encrypt_ms)
        during = stats.overlap_ns(s["start_ns"], s["end_ns"], regs) / 1e6
        r = min(during, max(rest, 0.0))
        reg += r
        net += rest - r
    n = len(req)
    rtt = sum(s["end_ns"] - s["start_ns"] for s in req.values()) / 1e6
    rtt = max(rtt, 1e-9)
    return {
        "net.overhead_ms": net / max(n, 1),
        "share.queue": sum(queue.values()) / rtt,
        "share.execute": sum(exe.values()) / rtt,
        "share.register": reg / rtt,
        "share.net": net / rtt,
        "share.client_crypto": (encrypt_ms * len(rpc) +
                                child.get("client.decrypt", 0.0)) / rtt,
        "share.client_wait": (child.get("load.lateness", 0.0) +
                              child.get("client.session_wait", 0.0)) / rtt,
        "share.unaccounted": (rtt - sum(child.values())) / rtt,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ERR_BOUND))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    binary, out_dir = build(root)
    w = a.workload
    tag = f"{w}-seed{a.seed}-trace{a.trace}"
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    raw_path = os.path.join(results, tag + ".raw.json")

    args = ["--workload", w,
            "--image-seed", str(stats.seed_stream(a.seed, 1)),
            "--key-seed", str(stats.seed_stream(a.seed, 2))]
    if w == "serve-open-churn":
        sched = os.path.join(results, tag + ".schedule.txt")
        phase_a_s = a.seconds * SERVE_PHASE_A
        events = stats.open_loop_schedule(
            stats.seed_stream(a.seed, 3), SERVE_RATE, phase_a_s,
            SERVE_SESSIONS)
        with open(sched, "w") as f:
            f.write(f"sessions {SERVE_SESSIONS} phase_a_s {phase_a_s:.9f} "
                    f"slices {SERVE_SLICES}\n")
            for t, rank, rep in events:
                f.write(f"{t:.9f} {rank} {int(rep)}\n")
        args += ["--schedule", sched]

    # Set-up time: the median over fresh processes (no process-wide cache
    # survives between them), one of which is the measured run itself.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        p = os.path.join(results, f"{tag}.setup{i}.json")
        harness(binary, args + ["--setup-only", "--out", p],
                deadline - time.monotonic())
        setups.append(load(p)["setup_s"])
    harness(binary, args + ["--seconds", str(a.seconds),
                            "--trace", str(a.trace), "--out", raw_path],
            deadline - time.monotonic())
    raw = load(raw_path)
    setups.append(raw["setup_s"])

    bound = ERR_BOUND[w]
    wrong, near = stats.gate(raw["max_err"], raw["argmax_match"],
                             raw["top2_gap"], bound)
    over = 0
    if w == "serve-open-churn":
        over = sum(1 for v in raw["latency_ms"] if v > SERVE_LIMIT_MS)
    attempted = int(raw["attempted"])
    failed = int(raw["failed"]) + wrong + over
    t = stats.tail(raw["latency_ms"])
    e2e = e2e_metrics(raw, t, setups, attempted, failed)
    correct = failed == 0 and t is not None and t[0] >= e2e["latency_p50_ms"]

    # BENCHMARK.json names the reported metrics and their units.
    spec = load(os.path.join(HERE, os.pardir, "BENCHMARK.json"))
    spans = []
    if a.trace:
        sp = raw_path + ".spans.json"
        spans = load(sp) if os.path.exists(sp) else []
        metrics = layer_metrics(w, raw, spans)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    host = {k: v for k, v in raw.items() if k.startswith("host.")}
    detail = {
        "workload": w, "seed": a.seed, "trace": a.trace,
        "samples": len(raw["latency_ms"]),
        "tail_percentile": t[1] if t else None,
        "wrong": wrong, "near_ties": near, "over_limit": over,
        "err_bound": bound, "setup_samples_s": setups, "host": host,
    }
    if a.trace:
        detail["self_ms"] = span_self_times(spans)
        # Tracing overhead against an untraced run of the same seed, when
        # one exists (the two runs are separate processes).
        plain = os.path.join(results, f"{w}-seed{a.seed}-trace0.metrics.json")
        if os.path.exists(plain):
            detail["traced_minus_untraced_p50_ms"] = (
                e2e["latency_p50_ms"] -
                load(plain)["metrics"]["latency_p50_ms"])
    print("detail: " + json.dumps(detail), file=sys.stderr)
    with open(os.path.join(results, tag + ".metrics.json"), "w") as f:
        json.dump({"detail": detail, "metrics": metrics}, f, indent=1)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
