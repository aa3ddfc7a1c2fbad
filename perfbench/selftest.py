"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Each test runs a small region-map session (64 x 64 grid) through the CLI in
this process, confirms the untouched outputs pass, then breaks one thing and
confirms the checks fail: a corrupted CSV row, a wrong exit code, and a
`calibration.json` leaked into the session directory or the source tree.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from session import run_inprocess_session, tree_changes, tree_snapshot  # noqa: E402
from workloads import RegionMap  # noqa: E402

WORK = HERE / ".work"


def small_region_map() -> RegionMap:
    workload = RegionMap()
    workload.points = 64
    return workload


class RegionChecks(unittest.TestCase):
    def setUp(self):
        from delaymac import cli

        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        self.workload = small_region_map()
        self.plan = self.workload.plan(seed=7)
        self.main = cli.main

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_session(self, before=None):
        session_dir = self.tmp / "session"
        if before is not None:
            before(session_dir / "run")
        _, results = run_inprocess_session(self.plan, session_dir, self.main)
        return session_dir / "run", results

    def failures(self, run_dir, results):
        errors, _ = self.workload.check(self.plan, run_dir, results)
        return [e for errs in errors for e in errs]

    def test_clean_session_passes(self):
        run_dir, results = self.run_session()
        self.assertEqual([r.returncode for r in results], [0, 2])
        self.assertEqual(self.failures(run_dir, results), [])

    def test_corrupted_feasible_flag_fails(self):
        run_dir, results = self.run_session()
        csv_path = run_dir / self.plan.commands[0].outputs[0]
        lines = csv_path.read_text().splitlines(keepends=True)
        row = next(k for k, line in enumerate(lines) if line.endswith(",1\n"))
        lines[row] = lines[row][:-2] + "0\n"
        csv_path.write_text("".join(lines))
        self.assertTrue(any("feasible" in e for e in self.failures(run_dir, results)))

    def test_corrupted_grid_value_fails(self):
        run_dir, results = self.run_session()
        csv_path = run_dir / self.plan.commands[0].outputs[0]
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[100] = "1" + lines[100][1:]
        csv_path.write_text("".join(lines))
        self.assertTrue(any("row 100" in e for e in self.failures(run_dir, results)))

    def test_wrong_exit_code_fails(self):
        run_dir, results = self.run_session()
        results[1].returncode = 0
        failures = self.failures(run_dir, results)
        self.assertTrue(any("exit code 0, expected 2" in e for e in failures))
        self.assertTrue(any("exit 0 with 0 feasible points" in e for e in failures))

    def test_leaked_calibration_in_session_fails(self):
        def leak(run_dir):
            run_dir.mkdir(parents=True)
            (run_dir / "calibration.json").write_text(json.dumps({"unit_scale": [3e-12, 0.3]}))

        run_dir, results = self.run_session(before=leak)
        failures = self.failures(run_dir, results)
        self.assertTrue(any("config_hash" in e for e in failures))
        self.assertTrue(any("unexpected files ['calibration.json']" in e for e in failures))

    def test_leaked_calibration_in_tree_is_seen(self):
        tree = self.tmp / "tree"
        (tree / "src").mkdir(parents=True)
        (tree / "src" / "module.py").write_text("")
        before = tree_snapshot(tree, skip=[])
        (tree / "calibration.json").write_text("{}")
        self.assertEqual(tree_changes(before, tree_snapshot(tree, skip=[])), ["created calibration.json"])


if __name__ == "__main__":
    unittest.main()
