"""Benchmark for constacyclic: time to an exact, checked answer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree holding ``src/constacyclic``.  Each
pass runs the workload's ops once, single-threaded and closed-loop, in a
fresh worker process (``worker.py``).  With ``--trace 0`` the run makes
untraced passes, each after a few import-only set-up probes, until
``--seconds`` would be exceeded, and reports the end-to-end metrics as
medians.  With ``--trace 1`` it makes exactly three passes (untraced,
traced, and one counting ``FieldSpec.mul`` calls) and reports the
per-layer metrics.  Without ``--workload`` it runs every workload and
prefixes each metric with the workload's name.
Every op of every pass is checked against its golden exit code and
stdout digest (``goldens.json``) and against golden-free invariants.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 all ops correct, 1 some op
failed a check, 2 bad usage or no source tree, 3 a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RSS_SOURCE = "worker getrusage(RUSAGE_SELF).ru_maxrss at the end of the pass, KiB / 1024"
SETUP_PROBES = 5  # import-only spawns before each pass, spread over the run
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


class HarnessError(RuntimeError):
    """A worker could not produce a pass result."""


# ---------------------------------------------------------------------------
# statistics


def _rank(pct, n):
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, -(-round(pct * 10) * n // 1000))


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with >= 10 samples beyond it.

    Returns (percentile, samples beyond), or (None, 0) when even the
    median has fewer than ten samples above it.
    """
    for pct in TAIL_LADDER:
        beyond = n - _rank(pct, n)
        if beyond >= 10:
            return pct, beyond
    return None, 0


# ---------------------------------------------------------------------------
# workers


def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(mode, ops=()):
    """Run one worker to completion and return its pass result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            argv + [str(spawn_ns)],
            input=json.dumps(list(ops)),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=_worker_env(),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise HarnessError(f"{mode} worker failed ({exc}): {proc.stderr[-2000:]}") from exc
    if not os.path.abspath(result["package"]).startswith(SRC + os.sep):
        raise HarnessError(f"worker imported constacyclic from {result['package']}")
    return result


# ---------------------------------------------------------------------------
# checks


def load_goldens():
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def op_errors(record, golden):
    """Everything wrong with one op record, given its [exit code, sha256]."""
    errors = list(record["errors"])
    if golden is None:
        errors.append("no golden output for this op")
        return errors
    if record["rc"] != golden[0]:
        errors.append(f"exit code {record['rc']}, golden {golden[0]}")
    if record["sha256"] != golden[1]:
        errors.append("stdout differs from the golden output")
    return errors


def check_passes(passes, goldens):
    """(attempted, failed, notes) over every op of every pass.

    Ops whose stdout digest differs between passes (tracing on and off)
    fail as well.
    """
    attempted = failed = 0
    notes = []
    first = {rec["id"]: rec["sha256"] for rec in passes[0]["ops"]}
    for p in passes:
        for rec in p["ops"]:
            attempted += 1
            errors = op_errors(rec, goldens.get(rec["id"]))
            if rec["sha256"] != first[rec["id"]]:
                errors.append("stdout differs between passes")
            if errors:
                failed += 1
                notes.append(f"{rec['id']}: {'; '.join(errors)}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# metrics


def _pass_wall(p):
    return sum(rec["s"] for rec in p["ops"])


def end_to_end(passes, setups):
    """The --trace 0 metrics: medians over passes (set-up: over spawns)."""
    lat = [[rec["s"] for rec in p["ops"]] for p in passes]
    return {
        "wall_s": (statistics.median(_pass_wall(p) for p in passes), "s"),
        "op_p50_ms": (statistics.median(statistics.median(v) * 1e3 for v in lat), "ms"),
        "op_p99_ms": (statistics.median(percentile(v, 99) * 1e3 for v in lat), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kib"] / 1024 for p in passes), "MB"),
    }


def per_layer(plain, traced, counted, cli_ops):
    """The --trace 1 metrics from the untraced, traced and counting passes."""
    spans = traced["spans"]
    counts = defaultdict(int, traced["counts"])
    calls = Counter(span[0] for span in spans)
    selfs = tracing.self_times(spans)
    wall = tracing.inclusive_time(spans, {tracing.ROOT})
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        layer_self[tracing.layer_of(span[0])] += own
        name_self[span[0]] += own

    def incl(*names):
        return tracing.inclusive_time(spans, set(names))

    md_s = incl("codes.min_distance")
    m = {
        "arith.cosets_of.s": (incl("arith.cosets_of"), "s"),
        "arith.cosets_of.residues": (counts["arith.cosets_of.residues"], "count"),
        "arith.orbits_on_cosets.s": (incl("arith.orbits_on_cosets"), "s"),
        "gf.make_field.s": (incl("gf.make_field"), "s"),
        "gf.make_field.builds": (traced["make_field_builds"], "count"),
        "gf.build_tower.s": (incl("gf.build_tower"), "s"),
        "gf.build_tower.calls": (calls["gf.build_tower"], "count"),
        "gf.build_tower.too_large": (counts["gf.build_tower.too_large"], "count"),
        "gf.poly_from_root_set.s": (incl("gf.poly_from_root_set"), "s"),
        "gf.poly_from_root_set.roots": (counts["gf.poly_from_root_set.roots"], "count"),
        "gf.np_tables.s": (incl("gf.np_tables"), "s"),
        "gf.np_tables.cells": (counts["gf.np_tables.cells"], "count"),
        "gf.mul.calls": (counted["mul_calls"], "count"),
        "codes.min_distance.s": (md_s, "s"),
        "codes.min_distance.self_s": (name_self["codes.min_distance"], "s"),
        "codes.min_distance.calls": (calls["codes.min_distance"], "count"),
        "codes.min_distance.too_large": (counts["codes.min_distance.too_large"], "count"),
        "codes.min_distance.codewords": (counts["codes.min_distance.codewords"], "count"),
        "codes.min_distance.codewords_per_s": (
            counts["codes.min_distance.codewords"] / md_s if md_s > 0 else 0.0, "1/s"),
        "duadic.exists_type2.s": (incl("duadic.exists_type2"), "s"),
        "duadic.construct_type2.s": (incl("duadic.construct_type2"), "s"),
        "duadic.certificate.s": (incl("duadic.certificate"), "s"),
        "duadic.verify.s": (incl("duadic.verify_splitting", "duadic.verify_certificate"), "s"),
        "duadic.verify.passes": (
            calls["duadic.verify_splitting"] + calls["duadic.verify_certificate"], "count"),
        "duadic.verify.alg_skipped": (counts["duadic.verify.alg_skipped"], "count"),
        "mds.mds_report.s": (incl("mds.mds_report"), "s"),
        "mds.grs_splitting.s": (incl("mds.grs_splitting"), "s"),
        "cli.main.s": (incl("cli.main"), "s"),
        "cli.main.self_s": (layer_self["cli"], "s"),
        "cli.stdout_bytes": (
            sum(rec["bytes"] for rec in traced["ops"] if rec["id"] in cli_ops), "bytes"),
    }
    for layer in ("harness",) + tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        m[f"layer.{layer}.share"] = (layer_self[layer] / wall if wall > 0 else 0.0, "ratio")
    untraced = _pass_wall(plain)
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (wall - untraced, "s")
    m["trace.spans"] = (len(spans), "count")
    return m


# ---------------------------------------------------------------------------
# machine


def _git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None  # an exported tree, not a git checkout
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def machine_info():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit, dirty = _git_state()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": dirty,
        "thread_env": THREAD_ENV,
        "rss_source": RSS_SOURCE,
    }


# ---------------------------------------------------------------------------
# runs


def run_untraced(ops, seconds):
    """Set-up probes and a pass, repeated until the next would overrun."""
    deadline = time.monotonic() + seconds
    setups, passes = [], []
    while True:
        started = time.monotonic()
        setups += [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        passes.append(spawn("plain", ops))
        took = time.monotonic() - started
        if time.monotonic() + took > deadline:
            break
    setups += [p["setup_s"] for p in passes]
    return passes, setups


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16d}"
        print(f"  {name:<36} {shown} {unit}")


def run_workload(workload, args, goldens):
    """Run and check one workload, print its report; returns the tallies."""
    ops = workloads.op_list(workload, args.seed, smoke=args.smoke)
    detail = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "ops_per_pass": len(ops)}
    if args.trace:
        passes = [spawn("plain", ops), spawn("trace", ops), spawn("count", ops)]
        cli_ops = {op["id"] for op in ops if "argv" in op}
        metrics = per_layer(*passes, cli_ops)
    else:
        passes, setups = run_untraced(ops, 0 if args.smoke else args.seconds)
        metrics = end_to_end(passes, setups)
        pct, beyond = tail_percentile(len(ops))
        detail.update({
            "passes": len(passes),
            "setup_samples": len(setups),
            "pass_wall_s": [_pass_wall(p) for p in passes],
            "tail_rule": {"percentile": pct, "samples_beyond": beyond, "samples": len(ops)},
        })
    attempted, failed, notes = check_passes(passes, goldens)
    detail.update({"fail_ratio": failed / attempted, "failures": notes[:20],
                   "machine": machine_info()})

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes x {len(ops)} ops")
    _print_metrics(metrics)
    if not args.trace:
        if pct == 99.0:
            print(f"  op_p99_ms has {beyond} of {len(ops)} samples beyond it")
        else:
            print(f"  op_p99_ms: {len(ops)} ops per pass are too few for a p99 tail "
                  f"(highest with 10 beyond: {pct}); it is the slowest op")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    print(json.dumps({"detail": detail}))
    return attempted, failed, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="default: every workload, one after another")
    parser.add_argument("--seed", type=int, default=0, help="permutes op order only")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of each workload's cheapest op group")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "constacyclic", "__init__.py")):
        print(f"error: no constacyclic source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the sweep op list is built with the library
    goldens = load_goldens()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args, goldens[name])
            attempted, failed = attempted + a, failed + f
            prefix = "" if args.workload else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
