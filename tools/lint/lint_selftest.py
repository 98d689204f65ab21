#!/usr/bin/env python3
"""Self-tests for oblivious_lint.py against the committed fixtures.

Run directly (python3 tools/lint/lint_selftest.py) or through ctest
(registered as lint_selftest next to snapshot_py). The fixtures are
copied into a scratch tree under src/oram/ so the path-scoped rules
(unordered_map ban, clock ban) apply exactly as they do to the real
ORAM core.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oblivious_lint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def lint_fixture(name, subdir="src/oram"):
    """Copy fixture @p name into <tmp>/<subdir>/ and lint it there
    with the text engine. Returns the list of diagnostics."""
    with tempfile.TemporaryDirectory() as tmp:
        dest_dir = os.path.join(tmp, subdir)
        os.makedirs(dest_dir)
        dest = os.path.join(dest_dir, name)
        shutil.copy(os.path.join(FIXTURES, name), dest)
        rel = os.path.relpath(dest, tmp)
        report = oblivious_lint.lint_file_text(dest, rel)
        return report.diagnostics, report.suppressed


class BadFixture(unittest.TestCase):
    """True-positive direction: every rule catches >= 1 violation."""

    @classmethod
    def setUpClass(cls):
        cls.diags, cls.suppressed = lint_fixture("bad.cc")
        cls.by_rule = {}
        for d in cls.diags:
            cls.by_rule.setdefault(d.rule, []).append(d)

    def test_secret_branch_caught(self):
        hits = self.by_rule.get("secret-branch", [])
        self.assertGreaterEqual(len(hits), 2)  # if + for-loop bound
        messages = " ".join(d.message for d in hits)
        self.assertIn("'a'", messages)   # leakyCompare's condition
        self.assertIn("'id'", messages)  # leakyLoop's bound

    def test_hot_alloc_caught(self):
        hits = self.by_rule.get("hot-alloc", [])
        self.assertGreaterEqual(len(hits), 2)  # push_back + new
        messages = " ".join(d.message for d in hits)
        self.assertIn("push_back", messages)
        self.assertIn("`new`", messages)

    def test_banned_api_caught(self):
        hits = self.by_rule.get("banned-api", [])
        messages = " ".join(d.message for d in hits)
        self.assertIn("std::rand", messages)
        self.assertIn("wall-clock", messages)
        self.assertIn("unordered_map", messages)
        self.assertIn("getenv", messages)

    def test_diagnostics_carry_location(self):
        for d in self.diags:
            self.assertTrue(d.path.endswith("bad.cc"))
            self.assertGreater(d.line, 0)
            # Every intended violation line is marked in the fixture.
            self.assertIn(str(d.line), str(d))

    def test_nothing_suppressed_in_bad(self):
        self.assertEqual(self.suppressed, 0)


class GoodFixture(unittest.TestCase):
    """False-positive direction: allowlisted sentinel comparisons,
    suppressed growth, and unannotated code yield no diagnostics."""

    @classmethod
    def setUpClass(cls):
        cls.diags, cls.suppressed = lint_fixture("good.cc")

    def test_clean(self):
        self.assertEqual(
            [], [str(d) for d in self.diags],
            "good.cc must lint clean")

    def test_suppression_counted(self):
        # reservedAppend's growth allow + materializeChunk's
        # demand-materialization allow.
        self.assertEqual(self.suppressed, 2)


class ClockScope(unittest.TestCase):
    """The clock ban is path-scoped: src/obs/ may read steady_clock."""

    def test_obs_exempt(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/obs")
        clock = [d for d in diags if "wall-clock" in d.message]
        self.assertEqual(clock, [])
        # unordered_map ban is also scoped to hot-path dirs.
        um = [d for d in diags if "unordered_map" in d.message]
        self.assertEqual(um, [])
        # But std::rand stays banned everywhere.
        rand = [d for d in diags if "std::rand" in d.message]
        self.assertEqual(len(rand), 1)


def lint_stage_stub(filename, text):
    """Lint @p text as src/oram/<filename> with the text engine."""
    with tempfile.TemporaryDirectory() as tmp:
        dest_dir = os.path.join(tmp, "src", "oram")
        os.makedirs(dest_dir)
        dest = os.path.join(dest_dir, filename)
        with open(dest, "w") as f:
            f.write(text)
        rel = os.path.relpath(dest, tmp)
        return oblivious_lint.lint_file_text(dest, rel).diagnostics


class StageAnnotations(unittest.TestCase):
    """stage-annotation rule: the access stages of path_oram.cc must
    keep both macros on their definitions."""

    FILE = "path_oram.cc"
    STUB = """\
PRORAM_OBLIVIOUS PRORAM_HOT void
PathOram::readPath(Leaf leaf)
{
}
%s
PathOram::writePath(Leaf leaf)
{
}
"""

    def lint_stub(self, write_head, stub=None):
        return lint_stage_stub(self.FILE, (stub or self.STUB) % write_head)

    def test_fully_annotated_is_clean(self):
        diags = self.lint_stub("PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = self.lint_stub("void")
        rules = [d.rule for d in diags]
        self.assertEqual(rules.count("stage-annotation"), 2)
        messages = " ".join(d.message for d in diags)
        self.assertIn("writePath", messages)
        self.assertIn("PRORAM_OBLIVIOUS", messages)
        self.assertIn("PRORAM_HOT", messages)

    def test_renamed_stage_caught(self):
        renamed = self.STUB.replace("writePath", "pushPath")
        diags = self.lint_stub("PRORAM_OBLIVIOUS PRORAM_HOT void", renamed)
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("writePath", messages)

    def test_other_files_unaffected(self):
        # The rule is keyed to path_oram.cc; the same content under a
        # different name must not fire.
        diags = lint_stage_stub("other.cc", self.STUB % "void")
        self.assertEqual([], [str(d) for d in diags])


class RingStageAnnotations(unittest.TestCase):
    """stage-annotation covers ring_oram.cc's stage set too: both
    engines carry the same two access stages."""

    STUB = StageAnnotations.STUB.replace("PathOram", "RingOram")

    def test_fully_annotated_is_clean(self):
        diags = lint_stage_stub(
            "ring_oram.cc", self.STUB % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = lint_stage_stub("ring_oram.cc", self.STUB % "void")
        rules = [d.rule for d in diags]
        self.assertEqual(rules.count("stage-annotation"), 2)
        messages = " ".join(d.message for d in diags)
        self.assertIn("RingOram::writePath", messages)

    def test_missing_stage_caught(self):
        stub = self.STUB.replace("RingOram::readPath", "RingOram::other")
        diags = lint_stage_stub(
            "ring_oram.cc", stub % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("readPath", messages)


class SharedEvictionAnnotations(unittest.TestCase):
    """scheme.cc's whole-path read and greedy eviction, shared by both
    engines, are stages too."""

    STUB = """\
PRORAM_OBLIVIOUS PRORAM_HOT void
OramScheme::drainPath(Leaf leaf)
{
}
%s
OramScheme::evictGreedy(Leaf leaf)
{
}
"""

    def test_fully_annotated_is_clean(self):
        diags = lint_stage_stub(
            "scheme.cc", self.STUB % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = lint_stage_stub("scheme.cc", self.STUB % "PRORAM_HOT void")
        self.assertEqual([d.rule for d in diags], ["stage-annotation"])
        self.assertIn("OramScheme::evictGreedy", diags[0].message)
        self.assertIn("PRORAM_OBLIVIOUS", diags[0].message)

    def test_missing_drain_caught(self):
        stub = self.STUB.replace("OramScheme::drainPath",
                                 "OramScheme::other")
        diags = lint_stage_stub(
            "scheme.cc", stub % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("drainPath", messages)


class SchemeIncludeBan(unittest.TestCase):
    """Concrete scheme headers (path_oram.hh / ring_oram.hh) may only
    be included from src/oram/; the controller and policy layers must
    program against oram/scheme.hh."""

    def test_fires_outside_engine_layer(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/core")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].rule, "banned-api")
        self.assertIn("path_oram.hh", hits[0].message)
        self.assertIn("oram/scheme.hh", hits[0].message)

    def test_fires_anywhere_outside_src_oram(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/sim")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(len(hits), 1)

    def test_allowed_inside_engine_layer(self):
        # BadFixture lints bad.cc under src/oram/: the include there
        # is legal, so the only banned-api hits are
        # rand/clock/map/getenv.
        diags, _ = lint_fixture("bad.cc")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(hits, [])

    def test_good_fixture_include_is_engine_layer(self):
        # good.cc carries a ring_oram.hh include and still lints
        # clean because fixtures land in src/oram/.
        diags, _ = lint_fixture("good.cc")
        self.assertEqual([], [str(d) for d in diags])


class EnvReaderScope(unittest.TestCase):
    """getenv is banned everywhere in src/ but src/util/env.cc, the
    one reader of the PRORAM_* knobs; tests may read the environment
    themselves."""

    STUB = """\
#include <cstdlib>
const char *
knob()
{
    return std::getenv("PRORAM_SCHEME");
}
"""

    def lint_as(self, subdir, filename):
        with tempfile.TemporaryDirectory() as tmp:
            dest_dir = os.path.join(tmp, subdir)
            os.makedirs(dest_dir)
            dest = os.path.join(dest_dir, filename)
            with open(dest, "w") as f:
                f.write(self.STUB)
            rel = os.path.relpath(dest, tmp)
            return oblivious_lint.lint_file_text(dest, rel).diagnostics

    def test_fires_outside_the_reader(self):
        for subdir, filename in (("src/sim", "system.cc"),
                                 ("src/util", "logging.cc"),
                                 ("src/obs", "env.cc")):
            with self.subTest(path=f"{subdir}/{filename}"):
                diags = self.lint_as(subdir, filename)
                self.assertEqual([d.rule for d in diags], ["banned-api"])
                self.assertIn("util/env.hh", diags[0].message)
                self.assertEqual(diags[0].line, 5)

    def test_reader_and_tests_exempt(self):
        self.assertEqual([], self.lint_as("src/util", "env.cc"))
        self.assertEqual([], self.lint_as("tests/util", "env_test.cc"))


class ShippedTree(unittest.TestCase):
    """The shipped src/ tree lints clean (the CI hard gate)."""

    def test_src_clean(self):
        root = os.path.dirname(os.path.dirname(HERE))
        rc = oblivious_lint.main(["--root", root, "--engine", "text",
                                  "--quiet", "src"])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
