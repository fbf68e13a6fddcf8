"""Command line front end.

Four subcommands:

* ``build``  print the chart ideals for one (d, l);
* ``gb``     reduced Groebner basis of a generator file;
* ``verify`` run one named check on one chart;
* ``suite``  run the applicable checks over a list of charts.

Exit codes: 0 success (for ``verify`` and ``suite``: every chart report
passes, that is no check failed or timed out and at least one passed), 1 a
check failed or a report has no passing check, 2 usage error, 3 a check
timed out, 4 output could not be written.  The environment
variable OLMCHECK_TIMEOUT sets the default per-check time budget (seconds);
it and ``--timeout`` take finite positive seconds, anything else is a usage
error.
"""

import argparse
import json
import math
import os
import re
import sys

from .charts import FIBER_PI, Chart, gram_matrices
from .errors import BudgetExceeded, InvalidChart, OlmError
from .fields import coefficient_field
from .groebner import Budget, buchberger
from .orders import order_from_name
from .rings import Ring
from .verify import (CHECK_NAMES, DEFAULT_SUITE, EngineConfig, chart_report,
                     run_suite, usable_seconds)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_IO = 4


def _seconds(text):
    """A time budget: finite positive seconds, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not usable_seconds(value):
        raise argparse.ArgumentTypeError(
            "expected finite positive seconds (--timeout or OLMCHECK_TIMEOUT),"
            " got %r" % (text,))
    return value


def _default_timeout():
    """OLMCHECK_TIMEOUT as a string; argparse checks it with ``_seconds``
    when no --timeout is given."""
    return os.environ.get("OLMCHECK_TIMEOUT") or None


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        return EXIT_PASS
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write("cannot write %s: %s\n" % (path, exc))
        return EXIT_IO
    return EXIT_PASS


def _check_json(result):
    body = {"name": result.name, "status": result.status}
    if result.witness is not None:
        body["witness"] = result.witness
    return body


def report_json(report):
    """Comparable body of a chart report; wall times live in ``timing``."""
    return {
        "chart": {"d": report.d, "l": report.l, "case": report.case},
        "engine": report.engine,
        "checks": [_check_json(c) for c in report.checks],
        "timing": {c.name: round(c.millis, 3) for c in report.checks},
    }


def report_text(report):
    lines = ["CHART d=%d l=%d case=%s" % (report.d, report.l, report.case)]
    for c in report.checks:
        tail = " (%s)" % json.dumps(c.witness, sort_keys=True) if c.witness else ""
        lines.append("CHECK %s: %s%s" % (c.name, c.status.upper(), tail))
    return "\n".join(lines) + "\n"


def report_emit(reports, fmt, path, aggregate_note=None):
    """Byte-stable serialization: keys sorted, timings in their own section."""
    if fmt == "json":
        payload = {"reports": [report_json(r) for r in reports]}
        if aggregate_note is not None:
            payload["note"] = aggregate_note
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(report_text(r) for r in reports)
        if aggregate_note:
            text += "NOTE %s\n" % aggregate_note
    return _emit(text, path)


def _exit_code(reports):
    """1 on any failed check, else 3 on any timeout, else 0 when every report
    passes (``ChartReport.passed``: at least one check passed), else 1."""
    statuses = {c.status for r in reports for c in r.checks}
    if "fail" in statuses:
        return EXIT_FAIL
    if "timeout" in statuses:
        return EXIT_TIMEOUT
    if reports and all(r.passed() for r in reports):
        return EXIT_PASS
    return EXIT_FAIL


def _parse_charts(text):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)\s*,\s*(\d+)", part)
        if not m:
            raise ValueError("bad chart %r, expected 'd,l'" % part)
        out.append((int(m.group(1)), int(m.group(2))))
    return out


def cmd_build(args):
    try:
        chart = Chart(args.d, args.l, coefficient_field(args.modulus))
    except (InvalidChart, ValueError) as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_USAGE
    fiber = args.fiber
    if args.format == "json":
        text = json.dumps(chart.to_json(fiber), sort_keys=True, indent=2) + "\n"
    else:
        lines = ["# chart d=%d l=%d case=%s fiber=%s"
                 % (chart.d, chart.l, chart.case, fiber)]
        lines += chart.render(chart.reduced_ideal(), fiber)
        text = "\n".join(lines) + "\n"
    return _emit(text, args.out)


def _infer_ring(names, modulus, order_name):
    def sort_key(nm):
        m = re.fullmatch(r"x\[(\d+)\]\[(\d+)\]", nm)
        if m:
            return (0, int(m.group(1)), int(m.group(2)), nm)
        if nm == "pi":
            return (2, 0, 0, nm)
        return (1, 0, 0, nm)
    ordered = sorted(set(names), key=sort_key)
    return Ring(ordered, coefficient_field(modulus), order_from_name(order_name))


def cmd_gb(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw_lines = [ln.strip() for ln in fh]
    except OSError as exc:
        sys.stderr.write("cannot read %s: %s\n" % (args.input, exc))
        return EXIT_USAGE
    lines = [ln for ln in raw_lines if ln and not ln.startswith("#")]
    names = set()
    for ln in lines:
        names.update(re.findall(r"x\[\d+\]\[\d+\]|pi\b|[A-Za-z_][A-Za-z0-9_]*", ln))
    try:
        ring = _infer_ring(names, args.modulus, args.order)
        gens = [ring.parse(ln) for ln in lines]
    except ValueError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_USAGE
    if all(g.is_zero() for g in gens):   # an empty file too
        sys.stderr.write("no nonzero generators in %s\n" % args.input)
        return EXIT_USAGE
    budget = Budget(seconds=args.timeout) if args.timeout else None
    try:
        gb = buchberger(gens, budget)
    except BudgetExceeded as exc:
        sys.stderr.write("timeout: %s\n" % exc)
        return EXIT_TIMEOUT
    except ValueError as exc:
        # an exponent past the packed field, met in an S-pair or reduction
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    if args.format == "json":
        payload = {"order": args.order, "modulus": args.modulus,
                   "variables": list(ring.names),
                   "basis": [str(p) for p in gb]}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(str(p) for p in gb) + "\n"
    return _emit(text, args.out)


def cmd_verify(args):
    cfg = EngineConfig(modulus=args.modulus, timeout=args.timeout)
    try:
        chart = Chart(args.d, args.l, cfg.field())
    except (InvalidChart, ValueError) as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_USAGE
    report = chart_report(chart, cfg, checks=[args.check])
    code = report_emit([report], args.format, args.out)
    if code:
        return code
    return _exit_code([report])


def cmd_suite(args):
    try:
        charts = (list(DEFAULT_SUITE) if args.charts is None
                  else _parse_charts(args.charts))
        cfg = EngineConfig(modulus=args.modulus, timeout=args.timeout)
        cfg.field()
        for d, l in charts:
            gram_matrices(d, l)  # validate the parameters up front
    except (ValueError, InvalidChart) as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_USAGE
    suite = run_suite(charts, cfg)
    code = report_emit(suite.reports, args.format, args.out,
                       aggregate_note=suite.note)
    if code:
        return code
    return _exit_code(suite.reports)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="olmcheck",
        description="chart ideals of orthogonal lattice models and their checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="print the ideals of one chart")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--fiber", choices=list(FIBER_PI), default="arithmetic")
    p.add_argument("--modulus", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("gb", help="reduced Groebner basis of a generator file")
    p.add_argument("--input", required=True)
    p.add_argument("--order", default="grlex")
    p.add_argument("--modulus", type=int, default=0)
    p.add_argument("--timeout", type=_seconds, default=_default_timeout())
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("verify", help="run one named check on one chart")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--check", required=True, choices=CHECK_NAMES, metavar="NAME")
    p.add_argument("--modulus", type=int, default=32003)
    p.add_argument("--timeout", type=_seconds, default=_default_timeout())
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the default or a custom chart suite")
    p.add_argument("--charts", default=None,
                   help="semicolon list like '6,2;5,3;6,3;5,2'")
    p.add_argument("--modulus", type=int, default=32003)
    p.add_argument("--timeout", type=_seconds, default=_default_timeout())
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except OlmError as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
