#!/usr/bin/env python3
"""Tests of the repository benchmark, on its tiny inputs.

    python3 perfbench/test_perfbench.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both the timed and the traced run; that every output check
passes; that each workload's own metric names are printed with their units;
that a corrupted output fingerprint fails every operation; and that the
benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Metric names printed for people (name -> unit), per workload.
NAMED = {
    "batch-ocr": {"thumbnails_per_s": "1/s"},
    "serve-read": {"query_kqps": "kqps", "query_p50_us": "us",
                   "query_p99_us": "us"},
    "stream-serve": {"events_per_s": "1/s", "query_kqps": "kqps",
                     "query_p50_us": "us", "query_p99_us": "us",
                     "ingest_to_publish_p50_ms": "ms",
                     "ingest_to_publish_p95_ms": "ms"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}


def run(workload, trace, *extra, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    named = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            named[parts[1]] = (float(parts[2]), parts[3])
    return result, named


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result, named = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-4000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in wanted])
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        for name, unit in {**COMMON, **NAMED[workload]}.items():
            self.assertIn(name, named)
            self.assertEqual(named[name][1], unit, name)
        self.assertEqual(named["fail_frac"][0], 0.0)
        return result

    def test_batch_ocr(self):
        self.check_run("batch-ocr", 0)
        layers = self.check_run("batch-ocr", 1)["metrics"]
        for name in ("extract.busy_ms", "serve.query_ns_4c", "trace.spans"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_serve_read(self):
        self.check_run("serve-read", 0)
        layers = self.check_run("serve-read", 1)["metrics"]
        for name in ("serve.compute_ns", "tsdb.range_us",
                     "serve.cache_hit_ratio"):
            self.assertGreater(layers[name]["value"], 0, name)
        self.assertLess(layers["serve.cache_hit_ratio"]["value"], 1)

    def test_stream_serve(self):
        self.check_run("stream-serve", 0)
        layers = self.check_run("stream-serve", 1)["metrics"]
        for name in ("stream.windows_closed", "stream.epochs",
                     "stream.late_events", "serve.epochs_seen",
                     "stream.clean_us_per_event", "tsdb.appends"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_corrupted_output_fails_every_operation(self):
        for workload in NAMED:
            done = run(workload, 0, "--corrupt-output")
            self.assertEqual(done.returncode, 0, done.stderr[-4000:])
            result, named = result_of(done)
            self.assertFalse(result["correct"], workload)
            self.assertEqual(result["failed"], result["attempted"], workload)
            self.assertEqual(named["fail_frac"][0], 1.0, workload)


class StandaloneTest(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(lone, path))
            done = run("batch-ocr", 0, cwd=lone,
                       runner=os.path.join(lone, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
