"""One benchmark pass in a fresh process, so every library cache starts cold.

    python3 perfbench/worker.py MODE SPAWN_NS < ops.json

MODE is ``setup`` (import the package and stop), ``plain`` (run the ops
untraced), ``trace`` (run them with spans around every layer) or
``count`` (run them counting ``FieldSpec.mul`` calls).  SPAWN_NS is the
parent's ``time.monotonic_ns()`` just before it started this process;
the set-up time is measured from it to the end of ``import constacyclic``.
The pass result is one JSON object on stdout.
"""

import sys
import time

_SPAWN_NS = int(sys.argv[2])
import constacyclic  # noqa: E402  (the import is what set-up time measures)

_SETUP_S = (time.monotonic_ns() - _SPAWN_NS) / 1e9

import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(ops, tracer):
    """Run the ops in order; returns per-op records (checks included)."""
    records, deferred, pending = [], [], {}
    for op in ops:
        stdin = pending.pop(op["stdin_from"], None) if "stdin_from" in op else None
        errors = []
        if tracer is not None:
            tracer.op = op["id"]
            root = tracer.open(tracing.ROOT)
        start = time.perf_counter()
        try:
            rc, result = workloads.execute(op, stdin)
        except (Exception, SystemExit) as exc:
            rc, result = None, None
            errors.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)

        text = "" if result is None else workloads.stdout_of(op, result)
        if "setting" in op:
            if result is not None:
                errors += workloads.sweep_errors(result)
        elif "stdin_from" in op:
            errors += workloads.verify_errors(stdin or "", text)
        elif op["argv"][0] == "split":
            pending[op["id"]] = text
        else:
            deferred.append((len(records), op, text))
        records.append({
            "id": op["id"],
            "rc": rc,
            "sha256": workloads.digest(text),
            "bytes": len(text.encode("utf-8")),
            "s": elapsed,
            "errors": errors,
        })
    return records, deferred


def main():
    mode = sys.argv[1]
    out = {"setup_s": _SETUP_S, "package": constacyclic.__file__}
    if mode != "setup":
        ops = json.load(sys.stdin)
        make_field = constacyclic.gf.make_field
        tracer = read_muls = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        elif mode == "count":
            read_muls = tracing.install_mul_counter()
        misses = make_field.cache_info().misses

        records, deferred = run_pass(ops, tracer)

        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["make_field_builds"] = make_field.cache_info().misses - misses
        if tracer is not None:
            tracer.enabled = False
            out["spans"] = tracer.spans
            out["counts"] = dict(tracer.counts)
        if read_muls is not None:
            out["mul_calls"] = read_muls()
        # these checks call the library again, so they run after the pass
        for index, op, text in deferred:
            records[index]["errors"] += workloads.report_errors(op, text)
        out["ops"] = records
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
