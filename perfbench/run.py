#!/usr/bin/env python3
"""The repository benchmark: three workloads through the real `tiga` binary.

    python3 perfbench/run.py --workload solve-lep4|campaign|serve-session \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds `tiga` and the `perfbench`
helper from source, sets up several times (`setup_s` is the median),
measures for `--seconds` seconds, and checks every output.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it reports
the per-layer metrics of an in-process replay of the same inputs, timed
from outside around the calls into each crate.  The last line of stdout is
one JSON object; the lines before it are a table that also gives every
metric its workload-specific name.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(ROOT, "examples")
# Set-ups per run; `setup_s` is their median.
SETUPS = 3
# Seconds a run may take after the build; the whole run must end in 180 s.
RUN_LIMIT_S = 170
# Serve-session blocks generated per second of measurement: about twice
# what the session gets through, so the stream never runs out.
BLOCKS_PER_SECOND = 5
# End-to-end times are reported at this reference speed: each is scaled by
# NOMINAL_REFERENCE_MS / (the reference workload's time around it).
NOMINAL_REFERENCE_MS = 50.0

# Objective file -> (role, baseline model, baseline purpose).
SOLVE_OBJECTIVES = {
    "lep4.tg": ("reach", "lep4", "tp2"),
    "lep4.tp4.tg": ("avoid", "lep4", "tp4"),
}
# Campaign product -> (plant-only spec, objective kind).  `lep3.tp4.tg` and
# `lep4.tp4.tg` are left out: their campaigns report false alarms at this
# commit (see README.md).
CAMPAIGNS = {
    "smart_light.never_bright.tg": (None, "safety"),
    "coffee_machine.no_refund.tg": (None, "safety"),
    "lep3.tg": (None, "reach"),
    "smart_light.bounded.tg": ("smart_light.plant.tg", "reach"),
}

LIVE = set()


def fatal(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def on_time_limit(signum, frame):
    for proc in list(LIVE):
        proc.kill()
        proc.wait()
    print("perfbench: the run exceeded its time limit", file=sys.stderr)
    os._exit(3)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {what}: {'; '.join(problems)}", file=sys.stderr)


class Context:
    def __init__(self, args, tiga, helper):
        self.tiga = tiga
        self.helper = helper
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.rng = random.Random(args.seed)
        self.tally = Tally()
        self.tmp = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
        self.inputs = os.path.join(self.tmp, "inputs")

    def make_inputs(self):
        """The benchmark's inputs: copies of the checked-in models, which
        are all `tiga` is given."""
        os.makedirs(self.inputs)
        for name in sorted(os.listdir(os.path.join(EXAMPLES, "tg"))):
            if name.endswith(".tg"):
                shutil.copy(os.path.join(EXAMPLES, "tg", name), self.inputs)


def build():
    """Builds `tiga` and the helper; returns their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("Cargo.toml", ["-p", "tiga-cli", "--bin", "tiga"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(command + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fatal(f"build failed: {' '.join(command + extra)}")
    return os.path.join(target, "release", "tiga"), os.path.join(target, "release", "perfbench")


def spawn(command, **kwargs):
    proc = subprocess.Popen(command, **kwargs)
    LIVE.add(proc)
    return proc


def reap(proc):
    """Waits for a child; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(proc)
    return proc.returncode, usage.ru_maxrss / 1024


def run_tiga(ctx, args):
    """Runs `tiga` to completion; returns (wall ms, peak RSS MB, exit code,
    stdout)."""
    start = time.perf_counter()
    proc = spawn([ctx.tiga] + args, stdout=subprocess.PIPE, cwd=ctx.inputs)
    out = proc.stdout.read()
    code, rss = reap(proc)
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    return elapsed * 1000, rss, code, out.decode()


def run_helper(ctx, args):
    done = subprocess.run([ctx.helper] + args, stdout=subprocess.PIPE, cwd=ctx.tmp)
    if done.returncode != 0:
        fatal(f"perfbench {args[0]} failed", 4)
    return done.stdout.decode()


class Reference:
    """The helper's fixed reference workload, timed between operations.

    Shared machines drift in speed by up to 2x over minutes, far more than
    any bound; an operation's time scaled by the reference time around it
    drifts about half as much.  `around(op)` runs `op`, times the reference
    once more, and returns op's result with the scale
    NOMINAL_REFERENCE_MS / (mean of the reference times just before and
    just after it)."""

    def __init__(self, ctx):
        self.proc = spawn([ctx.helper, "reference"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.last = self._time()

    def _time(self):
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def around(self, op):
        before = self.last
        result = op()
        self.last = self._time()
        return result, NOMINAL_REFERENCE_MS / ((before + self.last) / 2)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        reap(self.proc)


def until(seconds):
    """Yields at least once, and then until `seconds` have passed."""
    end = time.perf_counter() + seconds
    yield
    while time.perf_counter() < end:
        yield


def setups(ctx, reference, setup):
    """Runs `setup` once per set-up (once when tracing); returns the median
    scaled seconds."""

    def timed():
        start = time.perf_counter()
        setup()
        return time.perf_counter() - start

    times = []
    for _ in range(1 if ctx.trace else SETUPS):
        elapsed, scale = reference.around(timed)
        times.append(elapsed * scale)
    return statistics.median(times)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile), or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def trace_metrics(ctx, workload, extra):
    """Runs the traced replay; returns its metrics and checks."""
    out = run_helper(
        ctx,
        ["trace", "--workload", workload, "--inputs", ctx.inputs, "--seconds", str(ctx.seconds), "--tiga", ctx.tiga]
        + extra,
    )
    report = json.loads(out)
    ctx.tally.attempted += report["ops"]
    ctx.tally.failed += report["failed"]
    if report["failed"]:
        print(f"perfbench: {report['failed']} traced operations were wrong", file=sys.stderr)
    return {name: (m["value"], m["unit"]) for name, m in report["metrics"].items()}, report["checks"]


# ---------------------------------------------------------------------------
# solve-lep4
# ---------------------------------------------------------------------------


def solve_lep4(ctx, reference):
    rows = json.loads(read_text(os.path.join(ROOT, "BENCH_solver.baseline.json")))
    order = list(SOLVE_OBJECTIVES)
    ctx.rng.shuffle(order)
    goldens = {
        f: read_bytes(os.path.join(EXAMPLES, "controllers", f[: -len(".tg")] + ".controller")) for f in order
    }
    emitted = os.path.join(ctx.tmp, "emitted.controller")

    def solve(file):
        if os.path.exists(emitted):
            os.remove(emitted)
        ms, rss, code, out = run_tiga(
            ctx, ["solve", file, "--stats-json", "--emit-controller", emitted, "--jobs", "1"]
        )
        _, model, purpose = SOLVE_OBJECTIVES[file]
        controller = read_bytes(emitted) if os.path.exists(emitted) else None
        row = checks.baseline_row(rows, model, purpose)
        ctx.tally.record(checks.check_solve(code, out, controller, row, goldens[file]), f"solve {file}")
        return ms, rss

    setup_s = setups(ctx, reference, lambda: [solve(f) for f in order])
    if ctx.trace:
        extra = ["--goldens", os.path.join(EXAMPLES, "controllers")]
        for f in order:
            extra += ["--objective", f]
        return trace_metrics(ctx, "solve-lep4", extra)[0], []
    raw = {"reach": [], "avoid": []}
    scaled = {"reach": [], "avoid": []}
    rounds = []
    peak = 0.0
    for _ in until(ctx.seconds):
        rounds.append(0.0)
        for f in order:
            (ms, rss), scale = reference.around(lambda: solve(f))
            role = SOLVE_OBJECTIVES[f][0]
            raw[role].append(ms)
            scaled[role].append(ms * scale)
            rounds[-1] += ms * scale
            peak = max(peak, rss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "primary_ms": (statistics.median(scaled["avoid"]), "ms"),
        "secondary_ms": (statistics.median(scaled["reach"]), "ms"),
        "ops_per_s": (len(order) / (statistics.median(rounds) / 1000), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    named = [
        ("solve_reach_ms", statistics.median(raw["reach"]), f"ms unscaled (median of {len(raw['reach'])})"),
        ("solve_avoid_ms", statistics.median(raw["avoid"]), f"ms unscaled (median of {len(raw['avoid'])})"),
        ("solve_peak_rss_mb", peak, "MB"),
    ]
    return metrics, named


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def campaign(ctx, reference):
    expected = json.loads(read_text(os.path.join(HERE, "expected_campaigns.json")))

    def sweep():
        order = list(CAMPAIGNS)
        ctx.rng.shuffle(order)
        walls, peak = {"safety": 0.0, "reach": 0.0}, 0.0
        for f in order:
            spec, kind = CAMPAIGNS[f]
            ms, rss, code, out = run_tiga(
                ctx, ["test", f, "--threads", "1"] + (["--spec", spec] if spec else [])
            )
            ctx.tally.record(checks.check_campaign(code, out, expected[f]), f"test {f}")
            walls[kind] += ms
            peak = max(peak, rss)
        return walls, peak

    setup_s = setups(ctx, reference, sweep)
    if ctx.trace:
        extra = []
        for f, (spec, _) in CAMPAIGNS.items():
            extra += ["--campaign", f + (":" + spec if spec else "")]
        metrics, traced = trace_metrics(ctx, "campaign", extra)
        for f, counts in traced.items():
            problems = [
                f"traced {name} = {counts[name]}, recorded {expected[f][name]}"
                for name in ("runs", "detected")
                if counts[name] != expected[f][name]
            ]
            if counts["false_alarms"]:
                problems.append(f"{counts['false_alarms']} traced false alarms")
            ctx.tally.record(problems, f"traced campaign {f}")
        return metrics, []
    sweeps = [reference.around(sweep) for _ in until(ctx.seconds)]
    raw_total = [w["safety"] + w["reach"] for (w, _), _ in sweeps]
    safety = [w["safety"] * scale for (w, _), scale in sweeps]
    reach = [w["reach"] * scale for (w, _), scale in sweeps]
    runs = sum(expected[f]["runs"] for f in CAMPAIGNS)
    peak = max(p for (_, p), _ in sweeps)
    sweep_ms = [s + r for s, r in zip(safety, reach)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "primary_ms": (statistics.median(safety), "ms"),
        "secondary_ms": (statistics.median(reach), "ms"),
        "ops_per_s": (runs / (statistics.median(sweep_ms) / 1000), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    named = [
        ("campaign_ms", statistics.median(raw_total), f"ms unscaled (median of {len(raw_total)} sweeps)"),
    ]
    return metrics, named


# ---------------------------------------------------------------------------
# serve-session
# ---------------------------------------------------------------------------


class Session:
    """One `tiga serve` process driven by a single closed-loop client."""

    def __init__(self, ctx):
        self.proc = spawn(
            [ctx.tiga, "serve", "--jobs", "1"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ctx.inputs
        )

    def ask(self, item):
        """Sends one request and waits for its response; returns (ms, line)."""
        line = item["request"].encode() + b"\n"
        start = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        return (time.perf_counter() - start) * 1000, response.rstrip(b"\n")

    def close(self):
        """Ends the session; returns (exit code, peak RSS MB)."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        return reap(self.proc)


def serve_session(ctx, reference):
    blocks = int(ctx.seconds * BLOCKS_PER_SECOND) + 1
    lines = run_helper(
        ctx, ["stream", "--inputs", ctx.inputs, "--seed", str(ctx.seed), "--blocks", str(blocks)]
    ).splitlines()
    shape = json.loads(lines[0])
    block_len, cycle_len = shape["block_len"], shape["block_len"] * shape["cycle_blocks"]
    items = [json.loads(line) for line in lines[1:]]
    warmup = [i for i in items if i["kind"] == "warmup"]
    stream = [i for i in items if i["kind"] != "warmup"]
    stems = {i["label"] for i in warmup}
    strategies = {s: read_text(os.path.join(EXAMPLES, "strategies", s[:-3] + ".strategy")) for s in stems}
    controllers = {s: read_text(os.path.join(EXAMPLES, "controllers", s[:-3] + ".controller")) for s in stems}
    misses = {}

    def warm():
        session = Session(ctx)
        misses.clear()
        for item in warmup:
            _, response = session.ask(item)
            problems, payload = checks.check_warmup(response, item["strategy"], strategies[item["label"]])
            ctx.tally.record(problems, f"warm-up {item['label']}")
            misses[checks.response_key(response)] = payload
        return session

    def end(session):
        code, rss = session.close()
        ctx.tally.record([f"exit code {code}"] if code else [], "serve session")
        return rss

    def ask(session, item):
        ms, response = session.ask(item)
        if item["kind"] == "hit":
            miss = misses.get(checks.response_key(response))
            problems = (
                ["no warm-up miss under this key"]
                if miss is None
                else checks.check_hit(response, miss, item["controller"], controllers[item["label"]])
            )
        else:
            problems = checks.check_miss(response, item["expect"])
        ctx.tally.record(problems, f"{item['kind']} {item['label']}")
        return item["kind"], ms

    def cycles(session, seconds):
        """Runs whole cycles of the stream until `seconds` have passed;
        returns per cycle the hit and miss latencies and their scales."""
        out = []
        for _ in until(seconds):
            start = len(out) * cycle_len
            if start + cycle_len > len(stream):
                print("perfbench: the serve stream ran out before the time did", file=sys.stderr)
                break
            cycle = []
            for b in range(start, start + cycle_len, block_len):
                block = stream[b : b + block_len]
                answers, scale = reference.around(lambda: [ask(session, item) for item in block])
                cycle += [(kind, ms, scale) for kind, ms in answers]
            out.append(cycle)
        return out

    sessions = []
    setup_s = setups(ctx, reference, lambda: sessions.append(warm()))
    for session in sessions[:-1]:
        end(session)
    session = sessions[-1]
    if ctx.trace:
        answers = [a for cycle in cycles(session, ctx.seconds / 3) for a in cycle]
        end(session)
        e2e = statistics.mean(ms for _, ms, _ in answers)
        extra = ["--seed", str(ctx.seed), "--blocks", str(blocks), "--e2e-ms", repr(e2e)]
        return trace_metrics(ctx, "serve-session", extra)[0], []
    measured = cycles(session, ctx.seconds)
    peak = end(session)

    def per_request(kind, cycle):
        return statistics.mean(ms * scale for k, ms, scale in cycle if k == kind)

    answers = [a for cycle in measured for a in cycle]
    hit_ms = [ms for kind, ms, _ in answers if kind == "hit"]
    miss_ms = [ms for kind, ms, _ in answers if kind == "miss"]
    hit_tail, percentile = tail(hit_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "primary_ms": (statistics.median(per_request("hit", c) for c in measured), "ms"),
        "secondary_ms": (statistics.median(per_request("miss", c) for c in measured), "ms"),
        "ops_per_s": (cycle_len / (statistics.median(sum(ms * s for _, ms, s in c) for c in measured) / 1000), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    named = [
        ("serve_hit_ms", statistics.median(hit_ms), f"ms unscaled (median of {len(hit_ms)})"),
        ("serve_hit_tail_ms", hit_tail, f"ms unscaled (p{percentile:.2f}, 10 of {len(hit_ms)} beyond)"),
        ("serve_miss_ms", statistics.median(miss_ms), f"ms unscaled (median of {len(miss_ms)})"),
        ("serve_rps", len(answers) / ((sum(hit_ms) + sum(miss_ms)) / 1000), "1/s unscaled"),
        ("serve_peak_rss_mb", peak, "MB"),
    ]
    return metrics, named


WORKLOADS = {"solve-lep4": solve_lep4, "campaign": campaign, "serve-session": serve_session}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("Cargo.toml", "BENCH_solver.baseline.json", os.path.join("crates", "cli"), os.path.join(EXAMPLES, "tg")):
        if not os.path.exists(needed):
            fatal(f"run this from the root of a tiga checkout (no {needed})")
    spec = json.loads(read_text(os.path.join(ROOT, "BENCHMARK.json")))

    tiga, helper = build()
    signal.signal(signal.SIGALRM, on_time_limit)
    signal.alarm(RUN_LIMIT_S)
    ctx = Context(args, tiga, helper)
    try:
        ctx.make_inputs()
        reference = Reference(ctx)
        metrics, named = WORKLOADS[args.workload](ctx, reference)
        reference.close()
    finally:
        for proc in list(LIVE):
            proc.kill()
            reap(proc)
        shutil.rmtree(os.path.dirname(ctx.tmp), ignore_errors=True)
    tally = ctx.tally
    failure_rate = tally.failed / max(tally.attempted, 1)
    if ctx.trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        metrics["success_rate"] = (1.0 - failure_rate, "ratio")
    named.append(("failure_rate", failure_rate, f"({tally.failed} of {tally.attempted} operations)"))
    # Every listed metric is printed on every workload; a layer that this
    # workload never calls reads 0.
    result = {m["name"]: metrics.get(m["name"], (0.0, m["unit"])) for m in wanted}
    for name, (value, unit) in result.items():
        print(f"{name:<40} {value:>16.4f} {unit}")
    for name, value, unit in named:
        print(f"{name:<40} {value:>16.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
