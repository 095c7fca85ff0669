"""Correctness checks of the benchmark, one function per output kind.

Each check returns a list of problems; an empty list means the output is
correct.  They are pure functions of the program's output and the recorded
expectations, so `test_checks.py` can show each one failing on a tampered
golden file, baseline row or payload.
"""

import json
import re

# Baseline-row fields that identify the row; the `_us` timing fields are
# skipped too.  Every other field is a counter the output must match.
_ROW_KEYS = {"model", "purpose", "engine"}

_CAMPAIGN_LINE = re.compile(
    r"^campaign: (\d+) runs, (\d+) mutants, (\d+) detected \(score [0-9.]+\), (\d+) false alarms$",
    re.M,
)


def baseline_row(rows, model, purpose, engine="otfur"):
    """The row of `BENCH_solver.baseline.json` for one objective."""
    for row in rows:
        if (row.get("model"), row.get("purpose"), row.get("engine")) == (model, purpose, engine):
            return row
    raise KeyError(f"no {engine} baseline row for {model}/{purpose}")


def check_solve(exit_code, stdout, controller, row, golden):
    """`tiga solve --stats-json --emit-controller`: the verdict is winning,
    every counter equals the baseline row, and the controller bytes equal
    the golden file."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        stats = json.loads(stdout)
    except ValueError:
        return ["--stats-json output is not JSON"]
    problems = []
    if stats.get("winning") is not True:
        problems.append("verdict is not winning")
    for key, expected in row.items():
        if key in _ROW_KEYS or key.endswith("_us"):
            continue
        if stats.get(key) != expected:
            problems.append(f"{key} = {stats.get(key)!r}, baseline {expected!r}")
    if controller != golden:
        problems.append("emitted controller differs from the golden file")
    return problems


def parse_campaign(stdout):
    """(runs, mutants, detected, false alarms) from a `tiga test` report."""
    match = _CAMPAIGN_LINE.search(stdout)
    if not match:
        return None
    return tuple(int(g) for g in match.groups())


def check_campaign(exit_code, stdout, expected):
    """`tiga test`: no false alarms, and the run, mutant and detected counts
    equal the recorded ones."""
    counts = parse_campaign(stdout)
    if counts is None:
        return [f"exit code {exit_code}, no campaign summary line"]
    runs, mutants, detected, false_alarms = counts
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if false_alarms != 0:
        problems.append(f"{false_alarms} false alarms")
    for name, got in (("runs", runs), ("mutants", mutants), ("detected", detected)):
        if got != expected[name]:
            problems.append(f"{name} = {got}, recorded {expected[name]}")
    return problems


def split_response(line):
    """(envelope, payload) bytes of a `tiga serve` ok response; the payload
    is the last field of the envelope."""
    at = line.find(b'"payload":')
    if at < 0 or not line.endswith(b"}}"):
        return line, None
    return line[:at], line[at + len(b'"payload":') : -1]


_CONTROLLER_FIELD = b',"controller":"'


def check_warmup(line, strategy, golden_strategy):
    """A warm-up response: a miss with a winning verdict, whose strategy
    text equals the golden file when a strategy was asked for."""
    envelope, payload = split_response(line)
    if payload is None or b'"status":"ok"' not in envelope:
        return ["warm-up request failed"], None
    problems = []
    if b'"cache":"miss"' not in envelope:
        problems.append("warm-up request was not a miss")
    fields = json.loads(payload)
    if fields.get("verdict") != "winning":
        problems.append("warm-up verdict is not winning")
    if strategy and fields.get("strategy") != golden_strategy:
        problems.append("strategy differs from the golden file")
    return problems, payload


def check_hit(line, miss_payload, controller, golden_controller):
    """A hit: its payload is byte-equal to the miss that stored the entry.
    With `"controller":true` the payload carries one more field, which must
    hold the golden controller text."""
    envelope, payload = split_response(line)
    if payload is None or b'"status":"ok"' not in envelope:
        return ["request failed"]
    problems = []
    if b'"cache":"hit"' not in envelope:
        problems.append("not a cache hit")
    if controller:
        at = payload.rfind(_CONTROLLER_FIELD)
        if at < 0 or not payload.endswith(b'"}'):
            return problems + ["no controller field"]
        text = json.loads(b'"' + payload[at + len(_CONTROLLER_FIELD) : -2] + b'"')
        if text != golden_controller:
            problems.append("controller differs from the golden file")
        payload = payload[:at] + b"}"
    if payload != miss_payload:
        problems.append("hit payload differs from its miss")
    return problems


def check_miss(line, expect):
    """A miss: solved now, with the verdict of the in-process Jacobi solve."""
    envelope, payload = split_response(line)
    if payload is None or b'"status":"ok"' not in envelope:
        return ["request failed"]
    problems = []
    if b'"cache":"miss"' not in envelope:
        problems.append("not a cache miss")
    verdict = json.loads(payload).get("verdict")
    if verdict != expect:
        problems.append(f"verdict {verdict}, in-process Jacobi says {expect}")
    return problems


def response_key(line):
    """The cache-key fingerprint of a response."""
    match = re.search(rb'"key":"([0-9a-f]+)"', line[:4096])
    return match.group(1).decode() if match else None
