#!/usr/bin/env python3
"""Tests of the benchmark's own derivations (stdlib unittest).

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import derive
import fold_trace


def request(rid, outcome="completed", match=True, **kw):
    r = {
        "id": rid,
        "outcome": outcome,
        "match": match,
        "lateness_s": 0.0,
        "arrival_s": 0.0,
        "finish_s": 1.0,
        "queue_delay_s": 0.0,
        "prefill_s": 0.0,
        "resume_wait_s": 0.0,
        "prompt_len": 8,
        "gen_tokens": 2,
    }
    r.update(kw)
    return r


class RequestTimes(unittest.TestCase):
    def test_ttft_and_tpot_include_generator_lateness(self):
        r = request(0, lateness_s=0.01, arrival_s=1.0, queue_delay_s=0.02,
                    prefill_s=0.03, finish_s=1.5, gen_tokens=11)
        ttft, tpot = derive.request_times(r)
        self.assertAlmostEqual(ttft, 0.06)
        # Latency is 0.01 + 0.5; lateness is in both it and TTFT, so it
        # cancels out of TPOT.
        self.assertAlmostEqual(tpot, (0.51 - 0.06) / 10)

    def test_single_token_request_has_no_tpot(self):
        _, tpot = derive.request_times(request(0, gen_tokens=1))
        self.assertIsNone(tpot)

    def test_output_rate_spans_first_due_to_last_finish(self):
        reqs = [
            request(0, lateness_s=0.5, arrival_s=1.5, finish_s=3.0, gen_tokens=10),
            request(1, arrival_s=2.0, finish_s=5.0, gen_tokens=30),
            request(2, outcome="rejected", arrival_s=2.5, finish_s=9.0, gen_tokens=99),
        ]
        # First due = 1.5 - 0.5; the rejected request adds no tokens and
        # does not stretch the window.
        self.assertAlmostEqual(derive.output_tok_s(reqs), 40 / 4.0)


class Percentiles(unittest.TestCase):
    def test_p90_refused_below_100_samples(self):
        with self.assertRaises(ValueError):
            derive.tail(list(range(99)), 0.9)

    def test_p90_nearest_rank_at_100_samples(self):
        self.assertEqual(derive.tail(list(range(100)), 0.9), 89)

    def test_end_to_end_refuses_short_runs(self):
        reqs = [request(i) for i in range(50)]
        raw = {
            "workload": "chat",
            "setup": {"weights_s": [1.0], "engine_s": [0.0], "warmup_s": [0.0]},
            "plan": {"plan_s": [1.0], "plan_tok_s": [1.0]},
            "serve": {"submitted": 50, "requests": reqs, "peak_rss_kb": 1024},
        }
        with self.assertRaises(ValueError):
            derive.end_to_end(raw)


class DecisionLog(unittest.TestCase):
    def setUp(self):
        self.prompt_len = {0: 10, 1: 12}
        self.log = [
            {"ids": [0, 1], "contexts": [10, 12], "joins": 2, "preempted": []},
            {"ids": [0, 1], "contexts": [11, 13], "joins": 0, "preempted": []},
            {"ids": [0], "contexts": [12], "joins": 0, "preempted": [1]},
            # Request 1 resumes: its join re-prefills all 14 tokens.
            {"ids": [0, 1], "contexts": [13, 14], "joins": 1, "preempted": []},
        ]

    def test_recompute_counts_only_resumed_joins(self):
        self.assertAlmostEqual(derive.recompute_frac(self.log, self.prompt_len, 28), 14 / 28)

    def test_recompute_is_zero_without_preemption(self):
        self.assertEqual(derive.recompute_frac(self.log[:2], self.prompt_len, 28), 0.0)

    def test_kv_peak_in_pages(self):
        # Largest round: contexts 13 and 14 at 4 tokens per page -> 8 pages.
        self.assertEqual(derive.kv_used_peak_bytes(self.log, 4, 100), 800)

    def test_dispatch_shape(self):
        self.assertEqual(derive.dispatch_shape(self.log), (4, 7 / 4, 3 / 4))


class Failures(unittest.TestCase):
    def test_failed_frac_counts_rejected_timed_out_mismatched_and_missing(self):
        reqs = [
            request(0),
            request(1, match=False),
            request(2, outcome="rejected", match=False),
            request(3, outcome="timed_out", match=False),
            request(4, outcome="failed", match=False),
        ]
        # Six submitted, five reported: one request was never finished.
        self.assertEqual(derive.failed_count(6, reqs), 5)
        self.assertAlmostEqual(derive.failed_frac(6, reqs), 5 / 6)

    def test_slo_misses_failed_and_slow_requests(self):
        reqs = [
            request(0, prefill_s=0.01, finish_s=0.1, gen_tokens=10),  # meets
            request(1, prefill_s=0.5, finish_s=0.6, gen_tokens=10),  # TTFT over
            request(2, prefill_s=0.01, finish_s=9.0, gen_tokens=10),  # TPOT over
            request(3, match=False, prefill_s=0.01, finish_s=0.1, gen_tokens=10),
            request(4, outcome="rejected", match=False),
        ]
        self.assertAlmostEqual(derive.slo_attainment(5, reqs, 0.1, 0.05), 1 / 5)


class Fold(unittest.TestCase):
    def test_self_time_subtracts_child_args(self):
        doc = {
            "traceEvents": [
                {"name": "layer", "ph": "X", "ts": 0, "dur": 10, "args": {"qgemm_us": 6, "rows": 2}},
                {"name": "layer", "ph": "X", "ts": 10, "dur": 20, "args": {"qgemm_us": 8, "rows": 4}},
                {"name": "meta", "ph": "M", "ts": 0},
            ]
        }
        row = fold_trace.fold(doc)["layer"]
        self.assertEqual(row["count"], 2)
        self.assertEqual(row["sum_us"], 30)
        self.assertEqual(row["args"]["rows"]["sum"], 6)
        self.assertEqual(sorted([row["self"]["qgemm_us"]["p50"], row["self"]["qgemm_us"]["p90"]]), [4, 12])


if __name__ == "__main__":
    unittest.main()
