"""Tests of the benchmark's correctness checks: each passes on outputs that
match the recorded goldens, baseline rows and payloads, and fails once any
of them is tampered with.

    python3 perfbench/test_checks.py
"""

import json
import os
import unittest

import checks
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as f:
        return f.read()


def tamper(data):
    """The same bytes with one byte in the middle changed."""
    at = len(data) // 2
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def serve_line(cache, payload):
    return (
        b'{"id":7,"kind":"solve","status":"ok","cache":"' + cache + b'","key":"00ff00ff00ff00ff",'
        b'"cache_hits":1,"cache_misses":1,"cache_entries":1,"elapsed_us":12,"payload":' + payload + b"}"
    )


class SolveCheck(unittest.TestCase):
    def setUp(self):
        rows = json.loads(read_bytes(ROOT, "BENCH_solver.baseline.json"))
        self.row = checks.baseline_row(rows, "lep4", "tp4")
        stats = {k: v for k, v in self.row.items() if k not in ("purpose",)}
        stats.update(model="lep-4", strategy_rules=55530, minimized_rules=38597)
        self.stdout = json.dumps(stats)
        self.golden = read_bytes(EXAMPLES, "controllers", "lep4.tp4.controller")

    def test_matching_output_passes(self):
        self.assertEqual(checks.check_solve(0, self.stdout, self.golden, self.row, self.golden), [])

    def test_tampered_golden_fails(self):
        self.assertTrue(checks.check_solve(0, self.stdout, self.golden, self.row, tamper(self.golden)))

    def test_tampered_baseline_row_fails(self):
        row = dict(self.row, reach_zones=self.row["reach_zones"] + 1)
        self.assertTrue(checks.check_solve(0, self.stdout, self.golden, row, self.golden))

    def test_losing_verdict_fails(self):
        stdout = self.stdout.replace('"winning": true', '"winning": false')
        self.assertTrue(checks.check_solve(0, stdout, self.golden, self.row, self.golden))

    def test_exit_code_fails(self):
        self.assertTrue(checks.check_solve(1, self.stdout, self.golden, self.row, self.golden))

    def test_every_objective_has_a_baseline_row_and_golden(self):
        rows = json.loads(read_bytes(ROOT, "BENCH_solver.baseline.json"))
        for file, (_, model, purpose) in run.SOLVE_OBJECTIVES.items():
            checks.baseline_row(rows, model, purpose)
            read_bytes(EXAMPLES, "controllers", file[: -len(".tg")] + ".controller")


class CampaignCheck(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.HERE, "expected_campaigns.json")) as f:
            self.expected = json.load(f)
        self.stdout = (
            "model: smart-light (smart_light.never_bright.tg)\n\n"
            "campaign: 201 runs, 198 mutants, 6 detected (score 0.03), 0 false alarms\n"
        )

    def test_recorded_counts_pass(self):
        recorded = self.expected["smart_light.never_bright.tg"]
        self.assertEqual(checks.check_campaign(0, self.stdout, recorded), [])

    def test_tampered_recorded_counts_fail(self):
        for name in ("runs", "mutants", "detected"):
            recorded = dict(self.expected["smart_light.never_bright.tg"])
            recorded[name] += 1
            self.assertTrue(checks.check_campaign(0, self.stdout, recorded), name)

    def test_false_alarms_fail(self):
        recorded = self.expected["smart_light.never_bright.tg"]
        stdout = self.stdout.replace("0 false alarms", "3 false alarms")
        self.assertTrue(checks.check_campaign(1, stdout, recorded))

    def test_every_campaign_is_recorded(self):
        self.assertEqual(set(self.expected), set(run.CAMPAIGNS))


class ServeCheck(unittest.TestCase):
    def setUp(self):
        self.strategy = read_bytes(EXAMPLES, "strategies", "lep3.strategy").decode()
        self.controller = read_bytes(EXAMPLES, "controllers", "lep3.controller").decode()
        self.payload = (
            b'{"model":"lep-3","engine":"otfur","verdict":"winning","strategy":'
            + json.dumps(self.strategy).encode()
            + b"}"
        )
        self.miss = serve_line(b"miss", self.payload)

    def test_warmup_matching_golden_passes(self):
        problems, payload = checks.check_warmup(self.miss, True, self.strategy)
        self.assertEqual(problems, [])
        self.assertEqual(payload, self.payload)
        self.assertEqual(checks.response_key(self.miss), "00ff00ff00ff00ff")

    def test_warmup_tampered_golden_fails(self):
        golden = tamper(self.strategy.encode()).decode()
        self.assertTrue(checks.check_warmup(self.miss, True, golden)[0])

    def test_hit_equal_to_its_miss_passes(self):
        hit = serve_line(b"hit", self.payload)
        self.assertEqual(checks.check_hit(hit, self.payload, False, self.controller), [])

    def test_tampered_hit_payload_fails(self):
        hit = serve_line(b"hit", tamper(self.payload))
        self.assertTrue(checks.check_hit(hit, self.payload, False, self.controller))

    def test_controller_hit_passes_and_tampered_golden_fails(self):
        with_controller = (
            self.payload[:-1] + b',"controller":' + json.dumps(self.controller).encode() + b"}"
        )
        hit = serve_line(b"hit", with_controller)
        self.assertEqual(checks.check_hit(hit, self.payload, True, self.controller), [])
        golden = tamper(self.controller.encode()).decode()
        self.assertTrue(checks.check_hit(hit, self.payload, True, golden))

    def test_miss_verdict_must_match_jacobi(self):
        self.assertEqual(checks.check_miss(self.miss, "winning"), [])
        self.assertTrue(checks.check_miss(self.miss, "losing"))
        self.assertTrue(checks.check_miss(serve_line(b"hit", self.payload), "winning"))


class Tail(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        samples = list(range(1, 101))
        value, percentile = run.tail(samples)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(percentile, 90.0)


if __name__ == "__main__":
    unittest.main()
