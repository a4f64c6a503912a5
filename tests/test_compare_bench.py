#!/usr/bin/env python3
"""Checks for tools/compare_bench.py, run against the committed artifacts.

usage: test_compare_bench.py REPO_ROOT

- Malformed input (truncation, a wrong type or a deleted member at any
  path the tool reads, seeded random mutations) ends in exit 1 with a
  `compare_bench: error:` line, never a Python exception.
- `--same` passes an artifact against itself and against a copy whose
  `host` object alone was edited.
- A one-count edit anywhere in the body (results, cost, lineage, ras,
  options) fails `--same` and names the edited path.

Most cases call the tool's main() in-process (an uncaught exception is
what would print a Traceback); a few run it as a subprocess to cover
the command line end to end.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
import unittest

REPO = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
TOOL = os.path.join(REPO, "tools", "compare_bench.py")
ARTIFACTS = ("BENCH_e2e.json", "BENCH_overheads.json",
             "BENCH_table3_jobs1.json", "BENCH_table3_jobs8.json",
             "BENCH_table3_exhaustive.json")
ERROR = "compare_bench: error:"

sys.dont_write_bytecode = True  # no __pycache__ in the source tree
spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)

# One value of each JSON kind, for type swaps.
SAMPLES = {"object": {"x": 1}, "array": [1], "string": "x",
           "number": 7, "boolean": True, "null": None}

# Every path the baseline mode reads, with the kinds it accepts there;
# "*" matches any object member or array index.
READ_PATHS = [
    ((), {"object"}),
    (("schema_version",), {"number"}),
    (("bench",), {"string"}),
    (("options",), {"object"}),
    (("results",), {"object", "array"}),
    (("results", "accesses"), {"number"}),
    (("results", "cells"), {"array"}),
    (("results", "cells", "*"), {"object"}),
    (("results", "cells", "*", "exhaustive"), {"boolean"}),
    (("cost",), {"object"}),
    (("cost", "*"), {"object"}),
    (("cost", "*", "derived"), {"object"}),
    (("cost", "*", "derived", "storage_overhead_pct"), {"number"}),
    (("ras",), {"object"}),
    (("ras", "rank"), {"object"}),
    (("ras", "rank", "state"), {"string"}),
    (("ras", "topologies"), {"array"}),
    (("host",), {"object"}),
    (("host", "options"), {"object"}),
    (("host", "accesses_per_sec"), {"number"}),
    (("host", "alloc"), {"object"}),
    (("host", "alloc", "allocs_per_access"), {"number"}),
]
# Members that must exist; deleting any other read member is legal.
REQUIRED = {(), ("schema_version",), ("bench",), ("options",),
            ("results",), ("host",), ("host", "options")}


def load(name):
    with open(os.path.join(REPO, name), encoding="utf-8") as f:
        return json.load(f)


def dotted(path):
    out = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                  for k in path)
    return out.lstrip(".")


def nodes(doc, path=()):
    """Every (path, value) in @p doc, depth first."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from nodes(v, path + (i,))


def body(doc):
    """Canonical text of everything but "host"."""
    return json.dumps({k: v for k, v in doc.items() if k != "host"},
                      sort_keys=True)


def matches(path, pattern):
    return len(path) == len(pattern) and all(
        p == "*" or p == k for k, p in zip(path, pattern))


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


def without(doc, path):
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    del parent[path[-1]]
    return doc


def bumped(value):
    """A one-count edit of a scalar."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return 1  # null


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.count = 0
        self.docs = {name: load(name) for name in ARTIFACTS}

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, doc=None, text=None):
        self.count += 1
        path = os.path.join(self.tmp.name, f"a{self.count}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc) if text is None else text)
        return path

    def run_tool(self, *args):
        """main() in-process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        old = sys.argv
        sys.argv = [TOOL, *args]
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                compare_bench.main()
            code = 0
        except SystemExit as e:
            code = e.code
        except Exception:  # a Traceback on the command line
            self.fail(f"compare_bench {' '.join(args)} raised:\n"
                      f"{traceback.format_exc()}")
        finally:
            sys.argv = old
        return code, out.getvalue(), err.getvalue()

    def assert_error(self, args, what):
        code, _, err = self.run_tool(*args)
        self.assertEqual(code, 1, f"{what}: expected exit 1")
        self.assertIn(ERROR, err, f"{what}: no error line")

    def assert_rejected(self, name, bad, what):
        """Both modes refuse @p bad with an error line."""
        good = os.path.join(REPO, name)
        self.assert_error((good, bad), f"{name} {what} (baseline mode)")
        self.assert_error(("--same", good, bad), f"{name} {what} (--same)")

    def test_defect_seen_at_schema_v7(self):
        # A list where the tool expects an object used to end in
        # AttributeError: 'list' object has no attribute 'get'.
        doc = self.docs["BENCH_e2e.json"]
        for path, value in ((("options",), []),
                            (("host", "alloc"), [1])):
            bad = self.write(with_value(doc, path, value))
            self.assert_error((os.path.join(REPO, "BENCH_e2e.json"), bad),
                              dotted(path))

    def test_truncation_is_an_error(self):
        rnd = random.Random(27)
        for name in ARTIFACTS:
            with open(os.path.join(REPO, name), encoding="utf-8") as f:
                text = f.read().rstrip()
            for cut in [0, 1, len(text) - 1] + rnd.sample(
                    range(len(text)), 12):
                self.assert_rejected(name, self.write(text=text[:cut]),
                                     f"truncated at {cut}")

    def test_wrong_type_at_any_read_path_is_an_error(self):
        tried = 0
        for name, doc in self.docs.items():
            for path, value in list(nodes(doc)):
                kinds = next((k for p, k in READ_PATHS
                              if matches(path, p)), None)
                if kinds is None:
                    continue
                for kind, sample in SAMPLES.items():
                    if kind in kinds:
                        continue
                    bad = self.write(with_value(doc, path, sample))
                    what = f"{dotted(path) or 'document'} as {kind}"
                    self.assert_error((os.path.join(REPO, name), bad),
                                      f"{name} {what}")
                    tried += 1
        self.assertGreater(tried, 300)

    def test_deleted_required_member_is_an_error(self):
        for name, doc in self.docs.items():
            for path in sorted(REQUIRED - {()}):
                self.assert_rejected(name, self.write(without(doc, path)),
                                     f"without {dotted(path)}")

    def test_version_and_bench_mismatch_are_errors(self):
        for name, doc in self.docs.items():
            self.assert_rejected(
                name, self.write(with_value(doc, ("schema_version",), 7)),
                "at schema v7")
        e2e = os.path.join(REPO, "BENCH_e2e.json")
        t3 = os.path.join(REPO, "BENCH_table3_jobs1.json")
        self.assert_error((e2e, t3), "bench mismatch")

    def test_seeded_random_mutations_never_raise(self):
        rnd = random.Random(8)
        for name, doc in self.docs.items():
            good = os.path.join(REPO, name)
            paths = [p for p, _ in nodes(doc) if p]
            for _ in range(60):
                path = rnd.choice(paths)
                if rnd.random() < 0.3:
                    bad = without(doc, path)
                else:
                    bad = with_value(doc, path,
                                     rnd.choice(list(SAMPLES.values())))
                bad_path = self.write(bad)
                what = f"{name} {dotted(path)}"
                code, out, err = self.run_tool(good, bad_path)
                self.assertIn(code, (0, 1), what)
                if code and "::error" not in out:
                    self.assertIn(ERROR, err, what)
                host = bad.get("host")
                same_body = body(bad) == body(doc) and \
                    isinstance(host, dict) and \
                    isinstance(host.get("options"), dict)
                code, _, _ = self.run_tool("--same", good, bad_path)
                self.assertEqual(code, 0 if same_body else 1, what)

    def test_same_passes_an_artifact_and_itself(self):
        for name in ARTIFACTS:
            path = os.path.join(REPO, name)
            code, out, _ = self.run_tool("--same", path, path)
            self.assertEqual(code, 0, name)
            self.assertRegex(out, r"bodies identical: sha256 [0-9a-f]{64}")

    def test_same_ignores_host_only_edits(self):
        for name, doc in self.docs.items():
            edited = copy.deepcopy(doc)
            for path, value in list(nodes(doc["host"], ("host",))):
                if not isinstance(value, (dict, list)):
                    edited = with_value(edited, path, bumped(value))
            del edited["host"]["alloc"]
            edited["host"]["added"] = {"anything": [1, 2]}
            good = os.path.join(REPO, name)
            code, out, _ = self.run_tool("--same", good, self.write(edited))
            self.assertEqual(code, 0, f"{name}: {out}")

    def test_one_count_body_edit_fails_and_names_the_path(self):
        rnd = random.Random(12)
        covered = set()
        for name, doc in self.docs.items():
            good = os.path.join(REPO, name)
            leaves = [p for p, v in nodes(doc)
                      if p and p[0] != "host"
                      and not isinstance(v, (dict, list))]
            options = [p for p in leaves if p[0] == "options"]
            lineage = [p for p in leaves if p[:2] == ("results", "lineage")]
            picked = set(options)
            for group in ("results", "cost", "ras"):
                pool = [p for p in leaves if p[0] == group]
                picked |= set(rnd.sample(pool, min(12, len(pool))))
            picked |= set(rnd.sample(lineage, min(4, len(lineage))))
            values = dict(nodes(doc))
            for path in sorted(picked, key=str):
                value = values[path]
                bad = self.write(with_value(doc, path, bumped(value)))
                code, out, _ = self.run_tool("--same", good, bad)
                self.assertEqual(code, 1, f"{name} {dotted(path)}")
                self.assertIn(f"  {dotted(path)}: ", out)
                covered.add(path[0] if path[:2] != ("results", "lineage")
                            else "lineage")
        self.assertEqual(covered,
                         {"options", "results", "cost", "ras", "lineage"})

    def test_type_only_edit_fails_and_names_the_path(self):
        # JSON false and 0, or 4000 and 4000.0, are different bodies.
        doc = self.docs["BENCH_table3_jobs1.json"]
        good = os.path.join(REPO, "BENCH_table3_jobs1.json")
        for path, value in ((("options", "quick"), 0),
                            (("options", "trials"), 4000.0)):
            bad = self.write(with_value(doc, path, value))
            code, out, _ = self.run_tool("--same", good, bad)
            self.assertEqual(code, 1, dotted(path))
            self.assertIn(f"  {dotted(path)}: ", out)

    def test_command_line_end_to_end(self):
        e2e = os.path.join(REPO, "BENCH_e2e.json")
        doc = self.docs["BENCH_e2e.json"]
        cases = [
            (("--same", e2e, e2e), 0, "bodies identical"),
            ((e2e, e2e), 0, "alloc.allocs_per_access"),
            (("--same", e2e, self.write(with_value(
                doc, ("results", "reads"), doc["results"]["reads"] + 1))),
             1, "results.reads: "),
            ((e2e, self.write(with_value(doc, ("options",), []))),
             1, ERROR),
            ((e2e, self.write(text="{")), 1, ERROR),
        ]
        for args, want, text in cases:
            run = subprocess.run([sys.executable, TOOL, *args],
                                 capture_output=True, text=True)
            self.assertEqual(run.returncode, want, args)
            self.assertIn(text, run.stdout + run.stderr)
            self.assertNotIn("Traceback", run.stderr)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
