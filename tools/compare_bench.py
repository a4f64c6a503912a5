#!/usr/bin/env python3
"""Compare two bench artifacts written by bench_util's writeJsonArtifact.

Usage:
  compare_bench.py --same A.json B.json
  compare_bench.py BASELINE.json CURRENT.json [--threshold PCT]
                   [--cost-threshold PCT] [--alloc-threshold PCT]

A schema v8 artifact is a deterministic *body* (``schema_version``,
``bench``, the output-affecting ``options``, ``results``, ``cost`` and,
where the bench writes them, ``pareto`` and ``ras``) plus one ``host``
object holding every value that varies from run to run or host to
host: the ``jobs``/``checkpoint``/``resume``/``heartbeat`` options, wall
clock, resolved worker count, throughput, latency quantiles, timing
histograms and the ``alloc`` section.

``--same`` is the identity gate.  It exits 0 exactly when the two
bodies are equal; otherwise it exits 1 and names the first differing
JSON paths.  Either way it prints the sha256 of the canonical body
(sorted-key compact JSON), so a determinism claim can quote one
number.  It takes no field lists: a value that legitimately differs
between two runs of the same options belongs in ``host``.

The default mode diffs a fresh run against a committed baseline:

- ``host.accesses_per_sec``: a ``::warning::`` annotation when the
  current run is more than ``--threshold`` percent (default 20)
  slower.  CI machines are noisy, so this never fails the job.
- The derived metrics of every shared ``cost`` configuration: a
  warning on growth beyond ``--cost-threshold`` percent (default 2).
- Exhaustive result sections: a warning on any difference, since full
  enumeration is exact.  A sampled run has none; it skips with a note.
- The ``ras`` section's rank state, topology calls and prediction
  accuracy: warnings.  A run without ``--health`` skips with a note.
- ``host.alloc.allocs_per_access``: the one HARD gate.  Allocation
  counts move only when code changes what the hot path allocates, so
  growth beyond ``--alloc-threshold`` percent (default 0) prints an
  ``::error::`` annotation and exits 1.  Growth from a zero baseline
  is infinite, so against a zero baseline any allocation at all
  fails, whatever the threshold.

Exit status: 0 on success; 1 when an artifact is unreadable,
malformed or not schema v8, when the benches differ, when ``--same``
finds a difference, or when the allocation gate trips.  Every error
prints one ``compare_bench: error:`` line.

Standard library only; runs on any CI python3.
"""

import argparse
import hashlib
import itertools
import json
import sys

SCHEMA_VERSION = 8  # bench_util.hh artifactSchemaVersion
MAX_DIFFS = 10


def die(msg):
    print(f"compare_bench: error: {msg}", file=sys.stderr)
    sys.exit(1)


def kind_of(value):
    """JSON type name of a parsed value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


def dotted(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out.lstrip(".") or "the document"


class Artifact:
    """A loaded artifact whose every read is type-checked."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as f:
                self.doc = json.load(f)
        except OSError as e:
            die(f"cannot read {path}: {e}")
        except (ValueError, RecursionError) as e:
            die(f"{path} is not valid JSON: {e}")
        self.get((), "object")
        version = self.get(("schema_version",), "number")
        if version != SCHEMA_VERSION:
            die(f"{path} is schema v{version}; this tool reads "
                f"v{SCHEMA_VERSION} only")
        self.bench = self.get(("bench",), "string")
        self.get(("options",), "object")
        self.get(("results",), ("object", "array"))
        self.get(("host", "options"), "object")

    def get(self, path, kinds, required=True):
        """The value at @p path, which must be one of @p kinds.

        Keys are object members, ints array indices.  A missing member
        returns None unless @p required; any other mismatch is fatal.
        """
        node = self.doc
        for depth, key in enumerate(path):
            want = "array" if isinstance(key, int) else "object"
            if kind_of(node) != want:
                die(f"{self.path}: {dotted(path[:depth])} is "
                    f"{kind_of(node)}, not {want}")
            if key not in (range(len(node)) if want == "array" else node):
                if required:
                    die(f"{self.path}: missing {dotted(path[:depth + 1])}")
                return None
            node = node[key]
        kinds = (kinds,) if isinstance(kinds, str) else kinds
        if kind_of(node) not in kinds:
            die(f"{self.path}: {dotted(path)} is {kind_of(node)}, "
                f"expected {' or '.join(kinds)}")
        return node

    def body(self):
        return {k: v for k, v in self.doc.items() if k != "host"}


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(artifact):
    return hashlib.sha256(canonical(artifact.body()).encode()).hexdigest()


def differences(a, b, path=()):
    """Yield one line per JSON path where @p a and @p b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                yield f"{dotted(path + (key,))}: only in the first"
            elif key not in a:
                yield f"{dotted(path + (key,))}: only in the second"
            else:
                yield from differences(a[key], b[key], path + (key,))
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, path + (i,))
        if len(a) != len(b):
            yield f"{dotted(path)}: {len(a)} vs {len(b)} elements"
    elif canonical(a) != canonical(b):
        yield f"{dotted(path)}: {canonical(a)} vs {canonical(b)}"


def same(path_a, path_b):
    a, b = Artifact(path_a), Artifact(path_b)
    da, db = digest(a), digest(b)
    if da == db:
        print(f"bodies identical: sha256 {da} ({a.path}, {b.path})")
        return 0
    diffs = list(itertools.islice(
        differences(a.body(), b.body()), MAX_DIFFS))
    print(f"bodies differ: {a.path} sha256 {da}, {b.path} sha256 {db}; "
          f"first {len(diffs)} differing path(s):")
    for line in diffs:
        print(f"  {line}")
    return 1


def main():
    ap = argparse.ArgumentParser(
        description="Diff bench artifacts: identity (--same) or "
                    "regressions against a baseline")
    ap.add_argument("baseline", help="committed baseline artifact "
                                     "(--same: the first artifact)")
    ap.add_argument("current", help="freshly produced artifact "
                                    "(--same: the second artifact)")
    ap.add_argument("--same", action="store_true",
                    help="exit 0 exactly when the two bodies (all but "
                         "'host') are equal")
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="regression warning threshold in percent "
                         "(default: %(default)s)")
    ap.add_argument("--cost-threshold", type=float, default=2.0,
                    help="modeled-cost regression warning threshold "
                         "in percent (default: %(default)s)")
    ap.add_argument("--alloc-threshold", type=float, default=0.0,
                    help="allocs-per-access HARD regression gate in "
                         "percent; exceeding it exits 1.  A zero "
                         "baseline fails on any growth, whatever the "
                         "threshold (default: %(default)s)")
    args = ap.parse_args()
    if args.same:
        sys.exit(same(args.baseline, args.current))

    base = Artifact(args.baseline)
    cur = Artifact(args.current)
    if base.bench != cur.bench:
        die(f"bench mismatch: baseline '{base.bench}' "
            f"vs current '{cur.bench}'")
    compare_throughput(base, cur, args.threshold)
    compare_costs(base, cur, args.cost_threshold)
    compare_exhaustive(base, cur)
    compare_ras(base, cur)
    sys.exit(0 if compare_alloc(base, cur, args.alloc_threshold) else 1)


def compare_throughput(base, cur, threshold):
    """Soft-gate ``host.accesses_per_sec``."""
    metric = ("host", "accesses_per_sec")
    base_v = base.get(metric, "number", required=False)
    cur_v = cur.get(metric, "number", required=False)
    if base_v is None and cur_v is None:
        # Not a throughput bench (table2/table3/... artifacts share
        # the envelope but carry no rate): the deterministic sections
        # are still comparable.
        print(f"note: neither artifact carries {dotted(metric)}; "
              f"skipping the throughput comparison")
        return
    if base_v is None or cur_v is None:
        die(f"both artifacts must carry numeric {dotted(metric)}")
    if base_v <= 0:
        die(f"baseline {dotted(metric)} is not positive ({base_v})")
    delta_pct = (cur_v - base_v) / base_v * 100.0
    print(f"{dotted(metric)}: baseline {base_v:,.0f}  current "
          f"{cur_v:,.0f}  ({delta_pct:+.1f}%)")

    # Surface trial-size differences: a --quick CI run against a full
    # baseline measures the same code but with different noise floors.
    counts = [a.get(("results", "accesses"), "number", required=False)
              if isinstance(a.doc["results"], dict) else None
              for a in (base, cur)]
    if counts[0] != counts[1]:
        print(f"note: access counts differ (baseline {counts[0]}, "
              f"current {counts[1]}); treat small deltas as noise")

    if delta_pct < -threshold:
        print(f"::warning title=e2e throughput regression::"
              f"accesses_per_sec dropped {-delta_pct:.1f}% vs baseline "
              f"(threshold {threshold:.0f}%)")


def compare_costs(base, cur, threshold):
    """Soft-gate the derived metrics of the ``cost`` sections.

    Unlike wall-clock throughput, the cost model is deterministic:
    the derived metrics only move when the model parameters or the
    attribution points change.  Growth beyond the (small) threshold
    on any shared configuration is called out per metric.
    """
    base_cost = base.get(("cost",), "object", required=False) or {}
    cur_cost = cur.get(("cost",), "object", required=False) or {}
    shared = sorted(set(base_cost) & set(cur_cost))
    if not shared:
        if base_cost or cur_cost:
            print("note: no shared cost configurations; skipping the "
                  "cost comparison")
        return
    metrics = ("storage_overhead_pct", "bus_overhead_pct",
               "latency_ns_per_access")
    for config in shared:
        for m in metrics:
            path = ("cost", config, "derived", m)
            b = base.get(path, "number", required=False)
            c = cur.get(path, "number", required=False)
            if b is None or c is None or b <= 0:
                continue
            growth = (c - b) / b * 100.0
            print(f"cost[{config}].{m}: baseline {b:.4f}  "
                  f"current {c:.4f}  ({growth:+.2f}%)")
            if growth > threshold:
                print(f"::warning title=modeled cost regression::"
                      f"cost[{config}].{m} grew {growth:.2f}% vs "
                      f"baseline (threshold {threshold:.0f}%)")


def compare_alloc(base, cur, threshold):
    """HARD-gate ``host.alloc.allocs_per_access``.

    Allocation counts are a property of the code, not the machine:
    the same binary on the same inputs allocates the same number of
    times regardless of CPU load, so a regression here is a real
    hot-path change someone made, never noise.  That is why this is
    the one comparison allowed to fail the job.  Returns True when
    the gate passes (or does not apply).
    """
    path = ("host", "alloc", "allocs_per_access")
    b = base.get(path, "number", required=False)
    c = cur.get(path, "number", required=False)
    if b is None or c is None:
        if b is not None or c is not None:
            which = "baseline" if b is None else "current"
            print(f"note: {which} artifact carries no {dotted(path)}; "
                  f"skipping the allocation gate")
        return True
    if b <= 0:
        # A zero-allocation hot path can only stay at zero or regress;
        # treat any growth at all as a trip.
        growth = float("inf") if c > 0 else 0.0
        print(f"alloc.allocs_per_access: baseline {b:.4f}  "
              f"current {c:.4f}")
    else:
        growth = (c - b) / b * 100.0
        print(f"alloc.allocs_per_access: baseline {b:.4f}  "
              f"current {c:.4f}  ({growth:+.2f}%)")
    if growth > threshold:
        print(f"::error title=hot-path allocation regression::"
              f"alloc.allocs_per_access grew from {b:.4f} to {c:.4f} "
              f"({growth:+.2f}%, hard threshold {threshold:.0f}%); "
              f"something on the access hot path now allocates")
        return False
    return True


def topology_key(artifact, i):
    """Order-independent identity of topology call @p i."""
    artifact.get(("ras", "topologies", i), "object")
    call = artifact.doc["ras"]["topologies"][i]
    return tuple(canonical(call.get(k)) for k in
                 ("component", "kind", "bank", "row", "col", "chip",
                  "pin"))


def compare_ras(base, cur):
    """Soft-diff the ``ras`` health-telemetry sections.

    The monitor replays the same deterministic event stream the
    campaign produced, so between two artifacts of the same bench and
    options its conclusions (rank state, topology calls, inference
    accuracy) only move when behavior moved.  The section is opt-in
    (``--health``, or always-on for the e2e bench), so a side without
    one skips with a note rather than failing.
    """
    base_ras = base.get(("ras",), "object", required=False)
    cur_ras = cur.get(("ras",), "object", required=False)
    if base_ras is None and cur_ras is None:
        return
    if base_ras is None or cur_ras is None:
        which = "baseline" if base_ras is None else "current"
        print(f"note: {which} artifact carries no 'ras' section "
              f"(ran without --health); skipping the RAS comparison")
        return

    rank = ("ras", "rank", "state")
    base_rank = base.get(rank, "string", required=False)
    cur_rank = cur.get(rank, "string", required=False)
    print(f"ras.rank.state: baseline {base_rank}  current {cur_rank}")
    if base_rank != cur_rank:
        print(f"::warning title=RAS rank state change::rank health "
              f"changed from '{base_rank}' to '{cur_rank}'; the "
              f"monitor is deterministic, so the symptom stream "
              f"changed")

    tops = ("ras", "topologies")
    base_top = {topology_key(base, i) for i in
                range(len(base.get(tops, "array", required=False) or []))}
    cur_top = {topology_key(cur, i) for i in
               range(len(cur.get(tops, "array", required=False) or []))}
    print(f"ras.topologies: baseline {len(base_top)} call(s)  "
          f"current {len(cur_top)} call(s)")
    if base_top != cur_top:
        print(f"::warning title=RAS topology change::topology calls "
              f"differ from the baseline ({len(base_top - cur_top)} "
              f"disappeared, {len(cur_top - base_top)} new); "
              f"fault-topology inference reached different conclusions")

    pred = ("ras", "prediction")
    base_pred = base.get(pred, "object", required=False)
    cur_pred = cur.get(pred, "object", required=False)
    if base_pred is None or cur_pred is None:
        if base_pred is not None or cur_pred is not None:
            which = "baseline" if base_pred is None else "current"
            print(f"note: {which} artifact carries no ras.prediction "
                  f"(ran without aging sites); skipping the accuracy "
                  f"comparison")
        return
    b = base.get(pred + ("accuracy",), "number", required=False)
    c = cur.get(pred + ("accuracy",), "number", required=False)
    if b is None or c is None:
        return
    print(f"ras.prediction.accuracy: baseline {b:.2f}  current {c:.2f}")
    if c < b:
        print(f"::warning title=RAS inference accuracy drop::"
              f"topology-inference accuracy dropped from {b:.2f} to "
              f"{c:.2f} on the same aging plan")


def exhaustive_sections(artifact):
    """Map of exhaustive result sections present in an artifact.

    Benches mark full-enumeration results with an ``"exhaustive":
    true`` flag, either on a dedicated section (table2's
    ``results.two_pin`` and ``results.three_pin``) or per entry
    (table3's cells, gddr5's models).  Returns ``{label: section}``
    for each found.
    """
    if not isinstance(artifact.doc["results"], dict):
        return {}
    found = {}
    for name in ("two_pin", "three_pin"):
        if artifact.get(("results", name, "exhaustive"), "boolean",
                        required=False):
            found[name] = artifact.doc["results"][name]
    for key in ("cells", "models"):
        entries = artifact.get(("results", key), "array", required=False)
        exh = [artifact.get(("results", key, i), "object")
               for i in range(len(entries or []))
               if artifact.get(("results", key, i, "exhaustive"),
                               "boolean", required=False)]
        if exh:
            found[key] = exh
    return found


def compare_exhaustive(base, cur):
    """Diff exhaustive sections when both sides carry them.

    Exhaustive results are exact (the whole error space, visited
    once), so any difference between two artifacts of the same bench
    is a behavioral change, not noise.  A sampled run has nothing to
    diff: skip with a note rather than failing.
    """
    base_exh = exhaustive_sections(base)
    cur_exh = exhaustive_sections(cur)
    for label in sorted(set(base_exh) ^ set(cur_exh)):
        which = "baseline" if label in cur_exh else "current"
        print(f"note: {which} artifact lacks exhaustive section "
              f"'{label}' (ran sampled); skipping that comparison")
    for label in sorted(set(base_exh) & set(cur_exh)):
        if canonical(base_exh[label]) == canonical(cur_exh[label]):
            print(f"exhaustive[{label}]: identical to baseline")
        else:
            print(f"::warning title=exhaustive result change::"
                  f"exhaustive section '{label}' differs from the "
                  f"baseline; full-enumeration results are exact, so "
                  f"this is a behavioral change, not sampling noise")


if __name__ == "__main__":
    main()
