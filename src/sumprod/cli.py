"""Command-line entry point: classify, sigma, incidence, scan.

Exit codes: 0 success, 1 assertion or floor violation (including refused
hypotheses, and CertificationFailed when an exact certificate does not
check), 2 usage error, 3 from sigma, the one subcommand that factors fibers
(`incidence` only tests them): degree cap exceeded (DegreeCapExceeded) or an
integer in a divisor list of Kronecker's univariate factor search that
Brent's rho cannot split within its budget (FactorBudgetExceeded). Every
run given --out writes a manifest.json echoing the resolved configuration;
wall-clock timing lives only in the manifest so the data files stay
byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .classify import is_composite, is_degenerate, normalize_orientation
from .errors import DegreeCapExceeded, FactorBudgetExceeded, SumprodError
from .explorer import (
    ApSpec,
    GpSpec,
    RandomIntSpec,
    RatSet,
    generate_set,
    run_scan,
)
from .factor import DEFAULT_DEGREE_CAP, FiberPencil
from .geometry import check_class_bound, incidence_report
from .parsing import PolyParseError, format_bipoly, format_unipoly, load_poly
from .spectrum import DEFAULT_SWEEP_HEIGHT, rational_critical_values, sigma_candidates, sigma_scan

_SPEC_RE = re.compile(r"^(ap|gp|randomint|random)\(([^)]*)\)$", re.IGNORECASE)


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def parse_set_spec(text: str, default_seed: int):
    """Parse generator specs like AP(8,1,1), GP(8,1,2), RandomInt(8,1,100,7)."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"unrecognized set spec {text!r}")
    kind = m.group(1).lower()
    args = [a.strip() for a in m.group(2).split(",") if a.strip()]
    arity = (3,) if kind in ("ap", "gp") else (3, 4)
    if len(args) not in arity:
        raise ValueError(f"{m.group(1)} takes {' or '.join(map(str, arity))} arguments, got {len(args)}")
    if kind == "ap":
        n, start, step = int(args[0]), _parse_rat(args[1]), _parse_rat(args[2])
        return ApSpec(n, start, step)
    if kind == "gp":
        n, first, ratio = int(args[0]), _parse_rat(args[1]), _parse_rat(args[2])
        return GpSpec(n, first, ratio)
    n = int(args[0])
    lo, hi = int(args[1]), int(args[2])
    seed = int(args[3]) if len(args) > 3 else default_seed
    return RandomIntSpec(n, lo, hi, seed)


def load_set(source: str, default_seed: int) -> RatSet:
    """A set from a generator spec, or else from a file of one rational per
    line; a source that matches the spec syntax is never read as a path."""
    if _SPEC_RE.match(source.strip()) or not os.path.isfile(source):
        return generate_set(parse_set_spec(source, default_seed))
    elems = sorted({_parse_rat(line) for line in Path(source).read_text().splitlines() if line.strip()})
    return RatSet(tuple(elems), f"file({source})")


def _dumps(payload: dict) -> str:
    """JSON text of an output document; NaN and infinities are not JSON, so
    they raise here instead of being written."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write_manifest(outdir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    payload["version"] = __version__
    (outdir / "manifest.json").write_text(_dumps(payload))


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    payload = dict(payload)
    payload["config"] = _resolved_config(args)
    text = _dumps(payload) if args.json or args.out else None
    if args.json:
        print(text)
    else:
        for line in human_lines:
            print(line)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{args.command}.json").write_text(text)
        _write_manifest(outdir, {"argv_config": _resolved_config(args)})


def _resolved_config(args) -> dict:
    return {k: (str(v) if isinstance(v, Fraction) else v) for k, v in sorted(vars(args).items())}


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    f = load_poly(args.poly)
    oriented, swapped = normalize_orientation(f)
    # each polynomial is rendered once; an unswapped f is its own orientation
    text = format_bipoly(f)
    oriented_text = format_bipoly(oriented) if swapped else text
    payload: dict = {"input": text, "oriented": oriented_text, "swapped": swapped}
    lines = [f"polynomial: {text}"]
    if swapped:
        lines.append(f"oriented:   {oriented_text} (variables swapped)")
    # the verdict carries the decomposition, so is_degenerate runs once
    verdict = is_composite(oriented) if oriented.total_degree >= 2 else None
    dec = verdict.decomposition if verdict is not None else is_degenerate(oriented)
    if dec is not None and dec.degenerate:
        # a linear f is its own linear form
        form = oriented_text if dec.inner == oriented else format_bipoly(dec.inner)
        outer = format_unipoly(dec.outer, "t")
        payload["degenerate"] = {"outer": outer, "linear_form": form}
        lines.append(f"degenerate: yes, outer {outer} of linear form {form}")
    else:
        payload["degenerate"] = None
        lines.append("degenerate: no")
    if verdict is None:
        payload["composite"] = {"verdict": False, "reason": "degree below 2"}
        lines.append("composite:  no (degree below 2)")
    elif verdict.composite:
        lams = [str(v) for v in verdict.witness_lambdas]
        payload["composite"] = {"verdict": True, "witness_lambdas": lams, "univariate": verdict.univariate}
        lines.append(
            f"composite:  yes (all fibers at {', '.join(lams)} reducible)"
            if lams
            else "composite:  yes (single-variable polynomial)"
        )
    else:
        lam = str(verdict.certificate_lambda)
        payload["composite"] = {"verdict": False, "certificate_lambda": lam}
        lines.append(f"composite:  no (fiber at {lam} is absolutely irreducible)")
        # a non-composite f is its own core, with an empty chain
        payload["decomposition"] = {"core": oriented_text, "chain": []}
    if dec is not None and not dec.degenerate:
        chain = [format_unipoly(q, "t") for q in dec.chain]
        core = format_bipoly(dec.inner)
        payload["decomposition"] = {"core": core, "chain": chain}
        lines.append(f"chain:      {' o '.join(chain)} o ({core})")
    _emit(args, payload, lines)
    return 0


def _nonnegative(value: int, option: str) -> int:
    if value < 0:
        raise ValueError(f"{option} must be >= 0, got {value}")
    return value


def cmd_sigma(args) -> int:
    height = _nonnegative(args.sweep_height, "--sweep-height")
    _nonnegative(args.degree_cap, "--degree-cap")
    f = load_poly(args.poly)
    extra = tuple(_parse_rat(v) for v in args.extra_candidates.split(",") if v)
    pencil = FiberPencil(f)
    cands = sigma_candidates(pencil, extra=extra, sweep_height=height)
    report = sigma_scan(pencil, cands, cap=args.degree_cap)
    payload = report.to_dict()
    lines = [
        f"polynomial: {format_bipoly(f)} (degree {report.degree_k})",
        f"candidates tested: {report.candidate_count}"
        + (" (complete over Q)" if report.candidates_complete else ""),
        f"reducible fibers found: {len(report.found)}"
        + (f" at {', '.join(str(v) for v in report.found_values)}" if report.found else ""),
        f"Stein bound respected: {report.stein_bound_respected}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_incidence(args) -> int:
    height = _nonnegative(args.sweep_height, "--sweep-height")
    f = load_poly(args.poly)
    A = load_set(args.set, args.seed)
    pencil = FiberPencil(f)
    dec = pencil.decomposition
    # a composite or one-variable f has no spectrum (None)
    report, family = incidence_report(pencil, A.elements, rational_critical_values(pencil) or (), height)
    # a degenerate f is reported as degenerate only, not as composite
    degenerate = dec is not None and dec.degenerate
    composite = dec is not None and not dec.degenerate
    # the class-size ceiling only applies off the degenerate/composite cases
    bound = check_class_bound(family, dec is not None)
    histogram = sorted(family.histogram().items())
    text = format_bipoly(f)
    payload = {
        "polynomial": text,
        "set": A.provenance,
        "set_size": len(A),
        "removed_rows": [str(b) for b in family.removed_b],
        "degenerate": degenerate,
        "composite": composite,
        "incidence": dataclasses.asdict(report),
        "class_histogram": histogram,
        "max_class_size": bound.max_class_size,
        "class_count": bound.class_count,
    }
    lines = [
        f"polynomial: {text}",
        f"set: {A.provenance} (|A|={len(A)}, zero rows: {len(family.removed_b)},"
        f" removed points: {report.removed_points})",
        f"points: {report.point_count}  curves: {report.curve_count}  incidences: {report.incidences}",
        f"per-curve minimum: {report.per_curve_min}",
        f"szekely ratio: {report.szekely_ratio:.6f}",
        "class histogram (size,count): "
        + " ".join(f"{s},{c}" for s, c in histogram),
    ]
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "histogram.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["class_size", "count"])
            w.writerows(histogram)
    _emit(args, payload, lines)
    return 0


_FAMILIES = {"AP", "GP", "random"}


def cmd_scan(args) -> int:
    if not args.out:
        raise ValueError("scan writes csv/json artifacts and needs --out DIR")
    f = load_poly(args.poly)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise ValueError("need at least one size")
    if args.family not in _FAMILIES:
        raise ValueError(f"family must be one of {sorted(_FAMILIES)}")
    try:
        lo, hi = (int(v) for v in args.range.split(":"))
    except ValueError:
        raise ValueError(f"--range must be lo:hi with integers lo and hi, got {args.range!r}") from None
    specs = []
    for n in sizes:
        if args.family == "AP":
            specs.append(ApSpec(n, Fraction(1), Fraction(1)))
        elif args.family == "GP":
            specs.append(GpSpec(n, Fraction(1), Fraction(2)))
        else:
            specs.append(RandomIntSpec(n, lo, hi, args.seed))
    floor = _parse_rat(args.floor) if args.floor else None
    text = format_bipoly(f)
    result = run_scan(f, specs, floor_c=floor, poly_id=text)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "records.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "poly_id",
                "set_kind",
                "n",
                "sumset",
                "image",
                "product",
                "ratio_decimal",
                "removed_rows",
                "runtime_ms",
            ]
        )
        for r in result.records:
            # timing goes to the manifest; the csv stays byte-reproducible
            w.writerow(
                [
                    r.poly_id,
                    r.provenance,
                    r.n,
                    r.sumset_size,
                    r.image_size,
                    r.product,
                    r.ratio_decimal,
                    r.removed_rows,
                    "",
                ]
            )
    summary = {
        "poly": text,
        "family": args.family,
        "sizes": sizes,
        "min_ratio": result.summary.min_ratio_decimal,
        "max_ratio": result.summary.max_ratio_decimal,
        "min_ratio_squared": list(result.summary.min_ratio_squared),
        "max_ratio_squared": list(result.summary.max_ratio_squared),
        "slope": result.summary.slope,
        "violations": result.summary.violations,
    }
    summary_text = _dumps(summary)
    (outdir / "summary.json").write_text(summary_text)
    _write_manifest(
        outdir,
        {
            "argv_config": _resolved_config(args),
            "set_provenance": [r.provenance for r in result.records],
            "timings_ms": [r.runtime_ms for r in result.records],
            "count_routes": [dict(zip(("sumset", "image"), r.count_routes)) for r in result.records],
        },
    )
    lines = [
        f"scan of {text} over {args.family} at sizes {sizes}",
        f"min ratio {result.summary.min_ratio_decimal}, "
        f"max ratio {result.summary.max_ratio_decimal}, slope "
        + ("n/a" if result.summary.slope is None else f"{result.summary.slope:.4f}"),
        f"records written to {outdir / 'records.csv'}",
    ]
    if not args.json:
        for line in lines:
            print(line)
    else:
        print(summary_text)
    if result.summary.violations:
        print(
            f"floor violation in {result.summary.violations} record(s)", file=sys.stderr
        )
        return 1
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It names no handler:
    `main` looks `cmd_<command>` up in this module at call time, so a handler
    replaced after the first call (by a tracer, say) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="sumprod",
        description="Exact toolkit for polynomial sum-product growth experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON to stdout")
        p.add_argument("--out", default=None, help="directory for output artifacts")
        p.add_argument("--seed", type=int, default=0, help="seed for random generators")
        p.add_argument(
            "--degree-cap",
            type=int,
            default=DEFAULT_DEGREE_CAP,
            help="total-degree cap for the factorization oracle (read by sigma)",
        )

    p = sub.add_parser("classify", help="degeneracy / compositeness with certificates")
    p.add_argument("--poly", required=True, help="polynomial text, JSON, or file")
    common(p)

    p = sub.add_parser("sigma", help="scan for reducible fibers f - lambda")
    p.add_argument("--poly", required=True)
    p.add_argument("--extra-candidates", default="", help="comma-separated rationals")
    p.add_argument("--sweep-height", type=int, default=DEFAULT_SWEEP_HEIGHT)
    common(p)

    p = sub.add_parser("incidence", help="translated-curve incidence statistics")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", required=True, help="generator spec like AP(8,1,1) or a file")
    p.add_argument("--sweep-height", type=int, default=DEFAULT_SWEEP_HEIGHT)
    common(p)

    p = sub.add_parser("scan", help="sum-product growth scan over a set family")
    p.add_argument("--poly", required=True)
    p.add_argument("--family", required=True, help="AP, GP, or random")
    p.add_argument("--sizes", default="8,16,32,64", help="comma-separated set sizes")
    p.add_argument("--floor", default=None, help="regression floor c (rational)")
    p.add_argument("--range", default="1:10000", help="lo:hi for the random family")
    common(p)
    return parser


# a value such as -x^2+y, -50:50, -1/2 or -1,2 starts with "-", and
# argparse reads a token like that as an option
_NEGATIVE_VALUE = re.compile(r"^-[^-]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with `--opt V` written `--opt=V` where --opt, of any subcommand,
    takes one value and V starts with a single "-", so that argparse takes V
    as the value."""
    sub = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    one_value = {s for p in sub.choices.values() for a in p._actions if a.nargs is None for s in a.option_strings}
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] in one_value and _NEGATIVE_VALUE.match(out[i + 1]):
            out[i : i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return globals()[f"cmd_{args.command}"](args)
    except DegreeCapExceeded as exc:
        print(f"degree cap exceeded: {exc}", file=sys.stderr)
        return 3
    except FactorBudgetExceeded as exc:
        print(f"factor budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SumprodError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (PolyParseError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
