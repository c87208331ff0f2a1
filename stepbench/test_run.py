"""Tests of run.py's result stamping and comparison refusal.

    python3 -m unittest discover -s stepbench -p 'test_*.py'
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "stepbench_run", Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

STAMP = {"host": "a", "nproc": 4, "build_type": "Release",
         "cpu_model": "x", "compiler": "g++", "dctrain_native": "OFF",
         "commit": "c", "workload": "w", "seed": 1, "trace": 0}
RESULT = {"correct": True, "attempted": 10, "failed": 0,
          "metrics": {"step_ms_p50": {"value": 2.0, "unit": "ms"}}}


def saved(tmp, name, **stamp_changes):
    path = Path(tmp) / name
    path.write_text(json.dumps(
        {"stamp": {**STAMP, **stamp_changes}, "result": RESULT}))
    return str(path)


class CompareTest(unittest.TestCase):
    def test_same_host_and_build_compare(self):
        self.assertEqual(run.comparable(STAMP, {**STAMP, "seed": 2}), "")
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(
                run.main(["compare", saved(tmp, "a"), saved(tmp, "b")]), 0)

    def test_different_host_cores_or_build_type_are_refused(self):
        for change in ({"host": "b"}, {"nproc": 8},
                       {"build_type": "Debug"}):
            with self.subTest(change=change):
                why = run.comparable(STAMP, {**STAMP, **change})
                self.assertIn(next(iter(change)), why)
                with tempfile.TemporaryDirectory() as tmp:
                    self.assertEqual(run.main(
                        ["compare", saved(tmp, "a"),
                         saved(tmp, "b", **change)]), 2)

    def test_stamp_records_what_a_result_needs(self):
        stamp = run.stamp("grad_allreduce", 7, 1)
        for key in ("host", "nproc", "cpu_model", "build_type", "compiler",
                    "dctrain_native", "commit", "seed"):
            self.assertIn(key, stamp)
        self.assertEqual(stamp["seed"], 7)


if __name__ == "__main__":
    unittest.main()
