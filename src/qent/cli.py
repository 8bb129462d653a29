"""Command-line front end.

Subcommands: measure, invariants, family, verify, random.  Exit codes:
0 on success, 1 when a verification suite reports failures, 2 on
malformed input or configuration.  Values print with 12 significant
digits; CSV output keeps full precision (17 significant digits).

Each measure is called with the state as it was loaded: the library
decides which kinds it takes, so a pure-state measure given a mixed
state raises IncompatibleInput (exit 2), and a density-matrix measure
given a pure state builds its projector.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import InputError, QentError, brief
from .families import FAMILY_LABELS, FamilyParams, family_closed_forms, slocc_family
from .invariants import invariants3, invariants4
from .measures import (
    kme_concurrence_pure,
    negativity_profile,
    nme_lower_bound,
    one_tangle,
    three_tangle,
    two_tangle,
    wootters_concurrence,
)
from .qstate import PureState, load_state, save_state, state_to_json
from .verify import (CSV_PRECISION, SUITE_MAX_COUNT, SuiteConfig, _csv_text, random_mixed,
                     random_pure, run_suite)

DISPLAY = ".12g"


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex literal {text!r}") from exc


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse k list {text!r}") from exc
    if not ks:
        raise InputError("empty k list")
    return ks


def _family_from_args(args) -> FamilyParams:
    return FamilyParams(args.family, *(_parse_complex(getattr(args, p)) for p in "abcd"))


def _resolve_state(args):
    """(state, descriptor) from --state FILE or --family ID [--a ...]."""
    if args.state is not None:
        return load_state(args.state), str(args.state)
    if args.family is not None:
        params = _family_from_args(args)
        return slocc_family(params), params.describe()
    raise InputError("one of --state or --family is required")


def _fmt(x: float) -> str:
    return format(float(x), DISPLAY)


# A measure's rows are (display label, value, CSV name or None, argmin
# partition or None); only k-ME has an argmin.


def _kme_rows(psi: PureState, ks):
    for k in ks or range(2, max(psi.num_sites, 2) + 1):
        rep = kme_concurrence_pure(psi, k)
        yield f"C_{k}-ME", rep.value, f"C_{k}-ME", rep.optimal_partition


def _negativity_rows(state, ks):
    for p, v in enumerate(negativity_profile(state).per_site):
        yield f"N^{p}", v, f"N^{p}", None


def _one_tangle_rows(psi: PureState, ks):
    for p in range(psi.num_sites):
        yield f"one-tangle site {p}", one_tangle(psi, p), f"one_tangle_{p}", None


def _single(label: str, csv_name: str, fn):
    return lambda state, ks: [(label, fn(state), csv_name, None)]


def _invariant_rows(fn):
    def rows(psi: PureState, ks):
        inv = fn(psi)
        yield "I2", inv.i2, None, None
        for idx, v in enumerate(inv.i4, start=1):
            yield f"I4({idx})", v, f"I4({idx})", None
    return rows


# measure -> its rows
_MEASURES = {
    "kme": _kme_rows,
    "negativity": _negativity_rows,
    "nme-bound": _single("n-ME lower bound", "nme_lower_bound", nme_lower_bound),
    "one-tangle": _one_tangle_rows,
    "two-tangle": _single("two-tangle", "two_tangle", two_tangle),
    "three-tangle": _single("three-tangle", "three_tangle", three_tangle),
    "wootters": _single("wootters concurrence", "wootters_concurrence", wootters_concurrence),
    "invariants3": _invariant_rows(invariants3),
    "invariants4": _invariant_rows(invariants4),
}


def _report(state, descriptor: str, measures: list[str], ks, csv_path) -> int:
    """Print each measure's rows of the state and write them to csv_path if given."""
    print(f"state: {descriptor} ({state.num_sites} qubits)")
    rows = []
    for m in measures:
        for label, value, csv_name, partition in _MEASURES[m](state, ks):
            if partition is None:
                print(f"{label} = {_fmt(value)}")
            else:
                print(f"{label} = {_fmt(value)}   (argmin partition {partition})")
            if csv_name is not None:
                note = "" if partition is None else f"argmin {partition}"
                rows.append([csv_name, descriptor, format(float(value), CSV_PRECISION),
                             "", "", "", "computed", note])
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(rows))
    return 0


def _cmd_measure(args) -> int:
    state, descriptor = _resolve_state(args)
    wanted = [m.strip() for m in args.measures.split(",")] if args.measures else ["kme"]
    for m in wanted:
        if m not in _MEASURES:
            raise InputError(f"unknown measure {m!r}; choose from {tuple(_MEASURES)}")
    ks = _parse_k_list(args.k) if args.k else None
    return _report(state, descriptor, wanted, ks, args.csv)


def _cmd_invariants(args) -> int:
    state, descriptor = _resolve_state(args)
    if state.num_sites not in (3, 4):
        raise InputError("invariants are defined for 3- or 4-qubit pure states")
    return _report(state, descriptor, [f"invariants{state.num_sites}"], None, args.csv)


def _cmd_family(args) -> int:
    params = _family_from_args(args)
    psi = slocc_family(params)
    print(f"family {params.family_id}: {params.describe()}")
    for idx, amp in enumerate(psi.amplitudes):
        if abs(amp) > 1e-12:
            bits = format(idx, f"0{psi.num_sites}b")
            print(f"  |{bits}> {_fmt(amp.real)} {'+' if amp.imag >= 0 else '-'} "
                  f"{_fmt(abs(amp.imag))}j")
    pred = family_closed_forms(params)
    print(f"closed forms: C2 = {_fmt(pred.c2)}, C3 = {_fmt(pred.c3)}, "
          f"C4 = {_fmt(pred.c4)}")
    print("negativities: " + ", ".join(_fmt(v) for v in pred.negativities))
    if pred.condition_margin is None:
        print("C2 = min N: holds unconditionally")
    else:
        print(f"C2 = min N: {pred.c2_min_negativity} "
              f"(condition margin {_fmt(pred.condition_margin)})")
    if args.out:
        save_state(psi, args.out)
        print(f"state written to {args.out}")
    return 0


def _cmd_random(args) -> int:
    if args.kind == "pure":
        state = random_pure(args.sites, args.seed)
    else:
        rank = args.rank if args.rank is not None else 2
        state = random_mixed(args.sites, rank, args.seed)
    if args.out:
        save_state(state, args.out)
        print(f"{args.kind} state on {args.sites} qubits written to {args.out}")
    else:
        print(state_to_json(state))
    return 0


def _parse_grid_spec(text: str) -> list[list[float]]:
    """Parse 're:lo:hi:steps,im:lo:hi:steps' into [re, im] grid values, at
    most SUITE_MAX_COUNT of them, counted before any is formed."""
    axes = {"re": [0.0], "im": [0.0]}
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 4 or fields[0] not in ("re", "im"):
            raise InputError(
                f"grid spec {brief(text)} must look like re:lo:hi:steps[,im:lo:hi:steps]"
            )
        axis, lo, hi, steps = fields
        try:
            lo_f, hi_f, n = float(lo), float(hi), int(steps)
        except ValueError as exc:
            raise InputError(f"bad grid numbers in {brief(part)}") from exc
        if not 1 <= n <= SUITE_MAX_COUNT:
            raise InputError(f"grid steps must be in [1, {SUITE_MAX_COUNT}] in {brief(part)}")
        axes[axis] = [lo_f + (hi_f - lo_f) * i / max(n - 1, 1) for i in range(n)]
    if len(axes["re"]) * len(axes["im"]) > SUITE_MAX_COUNT:
        raise InputError(f"grid spec {brief(text)} has more than {SUITE_MAX_COUNT} values")
    return [[re, im] for re in axes["re"] for im in axes["im"]]


def _cmd_verify(args) -> int:
    if args.suite:
        with open(args.suite, "r", encoding="utf-8") as fh:
            config = SuiteConfig.from_json(fh.read())
    else:
        config = SuiteConfig()
    if args.seed is not None:
        config = SuiteConfig(args.seed, config.relations)
    if args.grid:
        if args.grid_family is None:
            raise InputError("--grid requires --grid-family")
        fam = args.grid_family
        r7 = config.relations.get("R7", {"families": [], "grids": None})
        families = r7["families"] if fam in r7["families"] else r7["families"] + [fam]
        grids = {**(r7["grids"] or {}), str(fam): [_parse_grid_spec(g) for g in args.grid]}
        override = {**r7, "families": families, "grids": grids}
        config = SuiteConfig(config.seed, {**config.relations, "R7": override})
    report = run_suite(config)
    print(report.to_text(), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return report.exit_code


def _add_state_args(parser: argparse.ArgumentParser, state_file: bool = True):
    """--state FILE (if state_file) and the --family/--a..--d flags;
    without --state, --family is required."""
    if state_file:
        parser.add_argument("--state", help="path to a state JSON file")
    parser.add_argument("--family", type=int, choices=sorted(FAMILY_LABELS),
                        required=not state_file, help="SLOCC family id 1..9")
    parser.add_argument("--a", default="0", help="family parameter a (complex literal)")
    for p in "bcd":
        parser.add_argument(f"--{p}", default="0", help=f"family parameter {p}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qent",
        description="Multipartite entanglement measures for qubit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute measures of one state")
    _add_state_args(p_measure)
    p_measure.add_argument("--k", help="comma-separated k values for k-ME concurrence")
    p_measure.add_argument(
        "--measures",
        help="comma-separated list from: " + ", ".join(_MEASURES),
    )
    p_measure.add_argument("--csv", help="also write values to this CSV path")
    p_measure.set_defaults(func=_cmd_measure)

    p_inv = sub.add_parser("invariants", help="polynomial invariants of one state")
    _add_state_args(p_inv)
    p_inv.add_argument("--csv", help="also write values to this CSV path")
    p_inv.set_defaults(func=_cmd_invariants)

    p_family = sub.add_parser("family", help="construct a SLOCC family state")
    _add_state_args(p_family, state_file=False)
    p_family.add_argument("--out", help="write the state JSON here")
    p_family.set_defaults(func=_cmd_family)

    p_random = sub.add_parser("random", help="generate a random state")
    p_random.add_argument("--kind", choices=("pure", "mixed"), default="pure")
    p_random.add_argument("--sites", type=int, required=True)
    p_random.add_argument("--rank", type=int, help="mixture rank (mixed only)")
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--out", help="write the state JSON here")
    p_random.set_defaults(func=_cmd_random)

    p_verify = sub.add_parser("verify", help="run the relation-verification suite")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--default", action="store_true",
                       help="run the built-in default suite")
    group.add_argument("--suite", help="path to a suite config JSON")
    p_verify.add_argument("--csv", help="write the full report CSV here")
    p_verify.add_argument("--seed", type=int, help="override the suite seed")
    p_verify.add_argument(
        "--grid-family", type=int, choices=sorted(FAMILY_LABELS),
        help="family whose parameter grid the --grid flags replace",
    )
    p_verify.add_argument(
        "--grid", action="append", metavar="re:lo:hi:steps[,im:lo:hi:steps]",
        help="per-parameter grid for --grid-family; repeat once per parameter (a, b, ...)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
