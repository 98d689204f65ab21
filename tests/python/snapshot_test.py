"""Unit tests for bench/snapshot.py (duplicate-label handling,
--force replacement, compare mode, metrics-JSONL ingestion, host
fingerprint).

Run via ctest (snapshot_py) or directly:
    python3 -m unittest tests/python/snapshot_test.py
The benchmark binary is stubbed with a script that prints canned
google-benchmark JSON, so the test needs no built tree.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SNAPSHOT_PY = REPO_ROOT / "bench" / "snapshot.py"


def load_snapshot_module():
    spec = importlib.util.spec_from_file_location("snapshot", SNAPSHOT_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FAKE_REPORT = {
    "benchmarks": [
        {
            "name": "BM_Fast_median",
            "run_type": "aggregate",
            "aggregate_name": "median",
            "real_time": 100.0,
        },
        {
            "name": "BM_Slow_median",
            "run_type": "aggregate",
            "aggregate_name": "median",
            "real_time": 2000.0,
        },
    ]
}


class SnapshotToolTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.json_path = self.dir / "bench.json"
        self.binary = self.dir / "fake_micro_ops.py"
        self.write_binary(FAKE_REPORT)
        self.write_doc({
            "unit": "ns_per_iteration",
            "snapshots": [
                {
                    "label": "base",
                    "description": "seed",
                    "micro_ops": {"BM_Fast": 100.0, "BM_Slow": 2000.0},
                },
            ],
        })

    def tearDown(self):
        self.tmp.cleanup()

    def write_binary(self, report):
        self.binary.write_text(
            "#!%s\nimport json\nprint(json.dumps(%r))\n"
            % (sys.executable, report))
        self.binary.chmod(0o755)

    def write_doc(self, doc):
        self.json_path.write_text(json.dumps(doc, indent=2) + "\n")

    def read_doc(self):
        return json.loads(self.json_path.read_text())

    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(SNAPSHOT_PY), "--binary",
             str(self.binary), "--json", str(self.json_path),
             "--repetitions", "1", *args],
            capture_output=True, text=True)

    def test_appends_new_label(self):
        res = self.run_tool("--label", "next", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual([s["label"] for s in snaps], ["base", "next"])
        # Snapshots record the host they were taken on (detected, not
        # the file-level hardcoded block).
        self.assertEqual(snaps[-1]["host"]["cpus"], os.cpu_count() or 1)

    def test_duplicate_label_errors_without_force(self):
        res = self.run_tool("--label", "base", "--description", "d")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("--force", res.stderr)
        # The file must be untouched.
        self.assertEqual(
            self.read_doc()["snapshots"][0]["description"], "seed")

    def test_force_replaces_in_place(self):
        self.run_tool("--label", "tail", "--description", "t")
        res = self.run_tool("--label", "base", "--description",
                            "redone", "--force")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual([s["label"] for s in snaps], ["base", "tail"])
        self.assertEqual(snaps[0]["description"], "redone")

    def test_compare_passes_within_threshold(self):
        res = self.run_tool("--compare-vs", "base",
                            "--max-regression", "0.25")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("no regressions", res.stdout)

    def test_compare_fails_on_regression(self):
        regressed = {
            "benchmarks": [
                {
                    "name": "BM_Fast_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 140.0,
                },
            ]
        }
        self.write_binary(regressed)
        res = self.run_tool("--compare-vs", "base",
                            "--max-regression", "0.25")
        self.assertEqual(res.returncode, 1)
        self.assertIn("REGRESSED", res.stdout)

    def test_compare_lists_benchmarks_on_one_side_only(self):
        # A deleted benchmark (snapshot only) or a new one (fresh run
        # only) has no ratio; it is named, and the exit code still
        # reflects regressions only.
        self.write_binary({
            "benchmarks": [
                {
                    "name": "BM_Fast_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 100.0,
                },
                {
                    "name": "BM_New_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 50.0,
                },
            ]
        })
        res = self.run_tool("--compare-vs", "base")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("only in 'base': BM_Slow\n", res.stdout)
        self.assertIn("not in 'base': BM_New\n", res.stdout)
        self.write_binary(FAKE_REPORT)
        res = self.run_tool("--compare-vs", "base")
        self.assertNotIn("only in", res.stdout)
        self.assertNotIn("not in", res.stdout)

    def test_compare_and_label_are_exclusive(self):
        res = self.run_tool("--compare-vs", "base", "--label", "x",
                            "--description", "d")
        self.assertNotEqual(res.returncode, 0)

    def test_metrics_jsonl_summary(self):
        jsonl = self.dir / "metrics.jsonl"
        lines = [
            {
                "schema": "proram-metrics-v1",
                "scheme": "oram_dynamic",
                "histograms": {
                    "requestLatency": {"mean": 1000.0},
                },
            },
            {
                "schema": "proram-metrics-v1",
                "scheme": "oram_dynamic",
                "histograms": {
                    "requestLatency": {"mean": 3000.0},
                },
            },
        ]
        jsonl.write_text(
            "\n".join(json.dumps(l) for l in lines) + "\n")
        res = self.run_tool("--label", "m", "--description", "d",
                            "--metrics-jsonl", str(jsonl))
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        metrics = snaps[-1]["metrics"]
        self.assertEqual(metrics["runs"], 2)
        self.assertEqual(
            metrics["schemes"]["oram_dynamic"]["histMeans"]
            ["requestLatency"], 2000.0)

    def test_memory_section_records_rss_and_counters(self):
        report = {
            "benchmarks": [
                {
                    "name": "BM_LargeTreeDrive_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 500.0,
                    "arenaBytesResident": 4096.0,
                    "chunksMaterialized": 2.0,
                },
                {
                    "name": "BM_Fast_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 100.0,
                },
            ]
        }
        self.write_binary(report)
        res = self.run_tool("--label", "mem", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        memory = self.read_doc()["snapshots"][-1]["memory"]
        self.assertGreaterEqual(memory["peakRssBytes"], 0)
        self.assertEqual(
            memory["benchCounters"]["BM_LargeTreeDrive"],
            {"arenaBytesResident": 4096.0, "chunksMaterialized": 2.0})
        # Benchmarks without counters stay out of the section.
        self.assertNotIn("BM_Fast", memory["benchCounters"])

    def test_snapshot_records_scheme_tag(self):
        res = self.run_tool("--label", "ringy", "--description", "d",
                            "--scheme", "ring")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual(snaps[-1]["scheme"], "ring")
        # Default runs are tagged path.
        self.run_tool("--label", "pathy", "--description", "d")
        self.assertEqual(
            self.read_doc()["snapshots"][-1]["scheme"], "path")

    def test_scheme_exported_to_benchmark_env(self):
        # The stub binary echoes $PRORAM_SCHEME as a benchmark name so
        # the test can see what the subprocess actually ran with.
        self.binary.write_text(
            "#!%s\nimport json, os\n"
            "name = 'BM_' + os.environ.get('PRORAM_SCHEME', 'unset')\n"
            "print(json.dumps({'benchmarks': [{'name': name + '_median',"
            " 'run_type': 'aggregate', 'aggregate_name': 'median',"
            " 'real_time': 1.0}]}))\n" % sys.executable)
        self.binary.chmod(0o755)
        res = self.run_tool("--label", "env", "--description", "d",
                            "--scheme", "ring")
        self.assertEqual(res.returncode, 0, res.stderr)
        micro = self.read_doc()["snapshots"][-1]["micro_ops"]
        self.assertIn("BM_ring", micro)

    def test_compare_refuses_mixed_scheme_labels(self):
        # 'base' predates the tag -> counts as path; a ring compare
        # against it must error out, not silently pass.
        res = self.run_tool("--compare-vs", "base", "--scheme", "ring")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("same-scheme", res.stderr)
        # Same scheme still compares fine.
        res = self.run_tool("--compare-vs", "base", "--scheme", "path")
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_compare_matches_same_scheme_ring_label(self):
        self.run_tool("--label", "ring_base", "--description", "d",
                      "--scheme", "ring")
        res = self.run_tool("--compare-vs", "ring_base",
                            "--scheme", "ring")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("no regressions", res.stdout)

    def test_speedup_vs_refuses_mixed_scheme_labels(self):
        res = self.run_tool("--label", "ringy", "--description", "d",
                            "--scheme", "ring", "--speedup-vs", "base")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("same-scheme", res.stderr)

    def test_snapshot_records_host_fingerprint(self):
        # The stub binary sits in a fake build tree.
        (self.dir / "CMakeCache.txt").write_text(
            "# comment\n"
            "CMAKE_CXX_COMPILER:FILEPATH=/usr/local/bin/fake-c++\n"
            "CMAKE_BUILD_TYPE:STRING=Release\n")
        probe = self.dir / "CMakeFiles" / "3.25.1"
        probe.mkdir(parents=True)
        (probe / "CMakeCXXCompiler.cmake").write_text(
            'set(CMAKE_CXX_COMPILER "/usr/local/bin/fake-c++")\n'
            'set(CMAKE_CXX_COMPILER_ID "GNU")\n'
            'set(CMAKE_CXX_COMPILER_VERSION "12.2.0")\n')
        res = self.run_tool("--label", "fp", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        host = self.read_doc()["snapshots"][-1]["host"]
        self.assertEqual(set(host), set(load_snapshot_module().HOST_FIELDS))
        self.assertEqual(host["compiler"],
                         "/usr/local/bin/fake-c++ (GNU 12.2.0)")
        self.assertEqual(host["build_type"], "Release")

    def test_compare_prints_host_blocks_and_flags_cross_host(self):
        # 'base' predates the fingerprint: its fields print as unknown
        # and the comparison still runs.
        res = self.run_tool("--compare-vs", "base")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("base host:    cpus=unknown, cpu_model=unknown",
                      res.stdout)
        self.assertIn("current host: cpus=", res.stdout)
        self.assertIn("cross-host:", res.stdout)
        self.assertIn("no regressions", res.stdout)

    def test_compare_on_the_recording_host_is_not_cross_host(self):
        self.run_tool("--label", "here", "--description", "d")
        res = self.run_tool("--compare-vs", "here")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("base host:", res.stdout)
        self.assertNotIn("cross-host", res.stdout)

    def test_metrics_jsonl_rejects_bad_schema(self):
        jsonl = self.dir / "metrics.jsonl"
        jsonl.write_text(json.dumps({"schema": "other"}) + "\n")
        res = self.run_tool("--label", "m", "--description", "d",
                            "--metrics-jsonl", str(jsonl))
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("schema", res.stderr)


class HostFingerprintTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.mod = load_snapshot_module()

    def tearDown(self):
        self.tmp.cleanup()

    def test_thp_modes_pick_the_bracketed_word(self):
        (self.dir / "enabled").write_text("always [madvise] never\n")
        (self.dir / "defrag").write_text(
            "always defer defer+madvise [madvise] never\n")
        self.assertEqual(self.mod.thp_modes(self.dir),
                         {"thp_enabled": "madvise",
                          "thp_defrag": "madvise"})
        # A host without THP reports nothing, not an error.
        self.assertEqual(self.mod.thp_modes(self.dir / "absent"),
                         {"thp_enabled": None, "thp_defrag": None})

    def test_cpu_fingerprint_reads_the_first_processor(self):
        cpuinfo = self.dir / "cpuinfo"
        cpuinfo.write_text(
            "processor\t: 0\nmodel name\t: Some CPU @ 2.00GHz\n"
            "cpu MHz\t\t: 2000.000\n\nprocessor\t: 1\n"
            "model name\t: Other\ncpu MHz\t\t: 1200.000\n")
        self.assertEqual(self.mod.cpu_fingerprint(cpuinfo),
                         {"cpu_model": "Some CPU @ 2.00GHz",
                          "cpu_mhz": "2000.000"})

    def test_cross_host_ignores_mhz_and_flags_unknowns(self):
        a = {k: "x" for k in self.mod.HOST_FIELDS}
        b = dict(a, cpu_mhz="y")
        self.assertEqual(self.mod.cross_host(a, b), [])
        self.assertEqual(self.mod.cross_host(a, dict(a, thp_enabled="z")),
                         ["thp_enabled"])
        self.assertEqual(self.mod.cross_host({"cpus": "x"}, a),
                         [k for k in self.mod.HOST_FIELDS
                          if k not in ("cpus", "cpu_mhz")])


if __name__ == "__main__":
    unittest.main()
