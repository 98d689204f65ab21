"""Unit tests for tools/lint/check_prefetch.py's disassembly parsing.

Run via ctest (snapshot_py, which discovers every *_test.py here) or
directly:
    python3 -m unittest tests/python/check_prefetch_test.py
The disassembly is canned `objdump -d -C` text, so the test needs no
built tree.
"""

import importlib.util
import pathlib
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
CHECK_PY = REPO_ROOT / "tools" / "lint" / "check_prefetch.py"


def load_check_module():
    spec = importlib.util.spec_from_file_location("check_prefetch",
                                                  CHECK_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DRAIN = "proram::OramScheme::drainPath(proram::util::Strong<unsigned int>)"
PLACE = ("proram::OramScheme::placeInitial(unsigned long, "
         "std::span<unsigned long const>)")


def disassembly(drain_body, place_body, place_clone=""):
    return "\n".join([
        "0000000000000630 <%s>:" % DRAIN,
        drain_body,
        "",
        "00000000000008b0 <%s>:" % PLACE,
        place_body,
        "",
        "0000000000000020 <%s [clone .cold]>:" % PLACE,
        place_clone,
        "",
        "0000000000001e50 <proram::OramScheme::evictGreedy(Leaf)>:",
        "     1e50:\tprefetcht0 (%rdx)",
        "",
    ])


class PrefetchCountsTest(unittest.TestCase):
    def setUp(self):
        self.check = load_check_module()

    def test_counts_prefetches_per_function(self):
        text = disassembly(
            "     6ed:\tprefetcht0 (%rdx)\n"
            "     6f0:\tprefetcht0 (%rdx,%r10,1)\n"
            "     772:\tprefetchw (%r11,%rax,4)",
            "     8c0:\tprefetcht0 0x8(%rax)")
        counts = self.check.prefetch_counts(text)
        self.assertEqual(counts["proram::OramScheme::drainPath("], 3)
        self.assertEqual(counts["proram::OramScheme::placeInitial("], 1)

    def test_a_function_without_prefetch_counts_zero(self):
        # evictGreedy's prefetch must not be credited to drainPath.
        text = disassembly("     6ed:\tmov (%rdx),%rax",
                           "     8c0:\tprefetcht0 0x8(%rax)")
        counts = self.check.prefetch_counts(text)
        self.assertEqual(counts["proram::OramScheme::drainPath("], 0)

    def test_a_clone_counts_for_its_function(self):
        text = disassembly("     6ed:\tprefetcht0 (%rdx)",
                           "     8c0:\tmov (%rax),%rbx",
                           "      24:\tprefetcht0 (%rbx)")
        counts = self.check.prefetch_counts(text)
        self.assertEqual(counts["proram::OramScheme::placeInitial("], 1)

    def test_a_missing_function_is_none(self):
        counts = self.check.prefetch_counts("")
        self.assertIsNone(counts["proram::OramScheme::drainPath("])


if __name__ == "__main__":
    unittest.main()
