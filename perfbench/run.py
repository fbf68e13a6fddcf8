"""Benchmark of olmcheck: one workload per process.

    python3 perfbench/run.py --workload suite-fp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets the workload up several times (each set-up re-imports the
package), then runs whole rounds of the workload until the rounds have taken
``--seconds`` seconds, checking every round's outputs outside the timed part.
Times are rescaled to reference seconds by ``hostspeed``, which corrects for
how fast the shared host runs while they are measured.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Earlier lines name each metric with
its unit, and record the Python version, the processor count and the
commit.  Summaries and span files go to ``.perfbench/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import checks
import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "groebner.buchberger.s", "groebner.buchberger.calls", "groebner.spairs",
    "groebner.reduction_steps", "groebner.basis_elements",
    "groebner.normal_form.s", "groebner.normal_form.calls", "groebner.division.s",
    "rings.mono_lcm.s", "rings.mono_lcm.calls", "rings.exponents.calls",
    "rings.monomial.calls", "rings.cast.s", "rings.cast.calls",
    "rings.substitute.s", "rings.substitute.calls",
    "ideals.groebner.calls", "ideals.groebner.hits", "ideals.intersect.s",
    "ideals.intersect.calls", "ideals.quotient.s", "ideals.krull_dimension.s",
    "ideals.contains.calls",
    "matrices.matmul.s", "matrices.matmul.calls",
    "charts.build.s",
) + tuple("verify.check.%s.s" % nm for nm in checks.CHECK_NAMES) + ("cli.report_json.s",)


def per_layer_unit(name):
    return "s" if name.endswith(".s") else "count"


def load_program(tracer):
    """Import olmcheck afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "olmcheck" or n.startswith("olmcheck.")]:
        del sys.modules[name]
    olm = importlib.import_module("olmcheck")
    importlib.import_module("olmcheck.cli")
    if tracer is not None:
        spans.install(tracer)
    return olm


def measure(wl, seed, seconds, tracer, host):
    """Set up, run whole rounds for ``seconds``, check every round.

    Returns the end-to-end metrics in reference seconds (see hostspeed),
    the same figures in plain seconds, and the round verdicts.
    """
    phase = tracer.phase if tracer is not None else lambda kind: nullcontext()
    setups, rounds, verdicts = [], [], []   # (start, end) and (start, end, cpu)

    def setup():
        gc.collect()
        t0 = time.perf_counter()
        with phase("setup"):
            olm = load_program(tracer)
            state = wl.setup(olm, seed)
        setups.append((t0, time.perf_counter()))
        return olm, state

    olm = state = None
    for _ in range(wl.setup_repeats):
        olm = state = None
        olm, state = setup()
    while True:
        if rounds and not wl.reusable:
            olm = state = None
            olm, state = setup()
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        with phase("round"):
            out = wl.run_round(olm, state)
        rounds.append((w0, time.perf_counter(), time.process_time() - c0))
        verdicts.append(wl.check(olm, state, out))
        if len(rounds) == 1:
            # later rounds reuse freed memory unevenly; one round is the unit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sum(b - a for a, b, _ in rounds) >= seconds:
            break

    def cpu_ref(a, b, cpu):
        busy = b - a - host.probe_seconds(a, b)
        return (cpu - host.probe_seconds(a, b)) * host.reference_seconds(a, b) / busy

    median = statistics.median
    e2e = {
        "wall_s": median(host.reference_seconds(a, b) for a, b, _ in rounds),
        "cpu_s": median(cpu_ref(a, b, c) for a, b, c in rounds),
        "setup_s": median(host.reference_seconds(a, b) for a, b in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    plain = {
        "wall_s": median(b - a for a, b, _ in rounds),
        "cpu_s": median(c for _, _, c in rounds),
        "setup_s": median(b - a for a, b in setups),
    }
    return e2e, plain, len(setups), len(rounds), verdicts


def per_layer(tracer, verdicts):
    """Figures for one set-up plus one round: the median over the set-ups
    plus the median over the rounds, so counts do not depend on how many
    rounds fitted in the run."""
    by_kind = {"setup": [], "round": []}
    for kind, first, stop, before, after in tracer.phases:
        by_kind[kind].append(tracer.phase_metrics(first, stop, before, after))
    for phase_metrics, v in zip(by_kind["round"], verdicts):
        for nm, s in v.check_seconds.items():
            phase_metrics["verify.check.%s.s" % nm] = s
    out = {}
    for name in PER_LAYER:
        med = statistics.median if name.endswith(".s") else statistics.median_low
        out[name] = sum(med([m.get(name, 0) for m in phases])
                        for phases in by_kind.values())
    return out


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "olmcheck")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "olmcheck", "__init__.py")):
        sys.stderr.write("no olmcheck sources under %s; run from a checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload]

    with hostspeed.HostSpeed() as host:
        e2e, plain, n_setups, n_rounds, verdicts = measure(
            wl, args.seed, args.seconds, tracer, host)
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in per_layer(tracer, verdicts).items()}
    errors = [e for v in verdicts for e in v.errors]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(), "src_sha256": source_digest(),
            "setups": n_setups, "rounds": n_rounds}
    print("perfbench " + " ".join("%s=%s" % kv for kv in meta.items()))
    print("plain seconds, not rescaled: " + " ".join("%s=%.6g" % kv for kv in plain.items()))
    for e in errors[:20]:
        print("ERROR " + e)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-trace%d" % (args.workload, args.trace))
    if tracer is not None:
        tracer.write(stem + "-spans")
        print("spans: %d written to %s-spans.bin" % (len(tracer.name_of), stem))
        untraced = os.path.join(OUT, "%s-trace0.json" % args.workload)
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["end_to_end"]["wall_s"]
            print("tracing overhead: wall_s %.4f s traced - %.4f s untraced = %+.4f s (%+.1f%%)"
                  % (e2e["wall_s"], base, e2e["wall_s"] - base,
                     100.0 * (e2e["wall_s"] - base) / base))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "end_to_end": e2e, "plain_seconds": plain,
                   "probes": host.samples,
                   "metrics": {k: m["value"] for k, m in metrics.items()}}, fh, indent=1)
    for k, m in metrics.items():
        print("%-34s %14.6g %s" % (k, m["value"], m["unit"]))
    print("attempted=%d failed=%d correct=%s" % (attempted, failed, not errors))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
