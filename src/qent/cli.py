"""Command-line front end.

Subcommands: measure, invariants, family, verify, random.  Exit codes:
0 on success, 1 when a verification suite reports failures, 2 on
malformed input or configuration.  Values print with 12 significant
digits; CSV output keeps full precision (17 significant digits).
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Optional, Sequence

from .errors import InputError, QentError
from .families import (
    FAMILY_LABELS,
    FamilyParams,
    family_closed_forms,
    slocc_family,
)
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
from .qstate import (
    DensityMatrix,
    PureState,
    density_of,
    load_state,
    save_state,
    state_to_json,
)
from .verify import CSV_HEADER, SuiteConfig, random_mixed, random_pure, run_suite

DISPLAY = ".12g"
CSV_PRECISION = ".17g"

MEASURE_CHOICES = (
    "kme",
    "negativity",
    "nme-bound",
    "one-tangle",
    "two-tangle",
    "three-tangle",
    "wootters",
    "invariants3",
    "invariants4",
)


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
    return FamilyParams(
        family_id=args.family,
        a=_parse_complex(args.a),
        b=_parse_complex(args.b),
        c=_parse_complex(args.c),
        d=_parse_complex(args.d),
    )


def _resolve_state(args):
    """(state, descriptor) from --state FILE or --family ID [--a ...]."""
    if args.state is not None:
        return load_state(args.state), str(args.state)
    if args.family is not None:
        params = _family_from_args(args)
        return slocc_family(params), params.describe()
    raise InputError("one of --state or --family is required")


def _as_density(state) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    return density_of(state)


def _require_pure(state, what: str) -> PureState:
    if not isinstance(state, PureState):
        raise InputError(f"{what} needs a pure state input")
    return state


def _fmt(x: float) -> str:
    return format(float(x), DISPLAY)


class _CsvRows:
    """Collects rows in the verify-report column schema."""

    def __init__(self):
        self.rows: list[list[str]] = []

    def add(self, name: str, descriptor: str, value: float, note: str = ""):
        self.rows.append(
            [name, descriptor, format(float(value), CSV_PRECISION), "", "", "",
             "computed", note]
        )

    def dump(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(self.rows)
        return buf.getvalue()


def _cmd_measure(args) -> int:
    state, descriptor = _resolve_state(args)
    wanted = [m.strip() for m in args.measures.split(",")] if args.measures else ["kme"]
    for m in wanted:
        if m not in MEASURE_CHOICES:
            raise InputError(f"unknown measure {m!r}; choose from {MEASURE_CHOICES}")
    ks = _parse_k_list(args.k) if args.k else None
    out = _CsvRows()
    print(f"state: {descriptor} ({state.num_sites} qubits)")

    for m in wanted:
        if m == "kme":
            psi = _require_pure(state, "k-ME concurrence")
            for k in ks or list(range(2, psi.num_sites + 1)):
                rep = kme_concurrence_pure(psi, k)
                print(
                    f"C_{k}-ME = {_fmt(rep.value)}   "
                    f"(argmin partition {rep.optimal_partition})"
                )
                out.add(f"C_{k}-ME", descriptor, rep.value,
                        note=f"argmin {rep.optimal_partition}")
        elif m == "negativity":
            prof = negativity_profile(_as_density(state))
            for p, v in enumerate(prof.per_site):
                print(f"N^{p} = {_fmt(v)}")
                out.add(f"N^{p}", descriptor, v)
        elif m == "nme-bound":
            v = nme_lower_bound(_as_density(state))
            print(f"n-ME lower bound = {_fmt(v)}")
            out.add("nme_lower_bound", descriptor, v)
        elif m == "one-tangle":
            psi = _require_pure(state, "one-tangle")
            for p in range(psi.num_sites):
                v = one_tangle(psi, p)
                print(f"one-tangle site {p} = {_fmt(v)}")
                out.add(f"one_tangle_{p}", descriptor, v)
        elif m == "two-tangle":
            v = two_tangle(_as_density(state))
            print(f"two-tangle = {_fmt(v)}")
            out.add("two_tangle", descriptor, v)
        elif m == "three-tangle":
            psi = _require_pure(state, "three-tangle")
            v = three_tangle(psi)
            print(f"three-tangle = {_fmt(v)}")
            out.add("three_tangle", descriptor, v)
        elif m == "wootters":
            v = wootters_concurrence(_as_density(state))
            print(f"wootters concurrence = {_fmt(v)}")
            out.add("wootters_concurrence", descriptor, v)
        elif m == "invariants3":
            inv = invariants3(_require_pure(state, "invariants3"))
            print(f"I2 = {_fmt(inv.i2)}")
            for idx, v in enumerate(inv.i4, start=1):
                print(f"I4({idx}) = {_fmt(v)}")
                out.add(f"I4({idx})", descriptor, v)
        elif m == "invariants4":
            inv = invariants4(_require_pure(state, "invariants4"))
            print(f"I2 = {_fmt(inv.i2)}")
            for idx, v in enumerate(inv.i4, start=1):
                print(f"I4({idx}) = {_fmt(v)}")
                out.add(f"I4({idx})", descriptor, v)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(out.dump())
    return 0


def _cmd_invariants(args) -> int:
    state, descriptor = _resolve_state(args)
    psi = _require_pure(state, "invariants")
    if psi.num_sites == 3:
        args.measures = "invariants3"
    elif psi.num_sites == 4:
        args.measures = "invariants4"
    else:
        raise InputError("invariants are defined for 3- or 4-qubit pure states")
    args.k = None
    return _cmd_measure(args)


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
    text = state_to_json(state)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.kind} state on {args.sites} qubits written to {args.out}")
    else:
        print(text)
    return 0


def _parse_grid_spec(text: str) -> list[list[float]]:
    """Parse 're:lo:hi:steps,im:lo:hi:steps' into [re, im] grid values."""
    axes = {"re": [0.0], "im": [0.0]}
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 4 or fields[0] not in ("re", "im"):
            raise InputError(
                f"grid spec {text!r} must look like re:lo:hi:steps[,im:lo:hi:steps]"
            )
        axis, lo, hi, steps = fields
        try:
            lo_f, hi_f, n = float(lo), float(hi), int(steps)
        except ValueError as exc:
            raise InputError(f"bad grid numbers in {part!r}") from exc
        if n < 1:
            raise InputError(f"grid steps must be >= 1 in {part!r}")
        axes[axis] = [lo_f + (hi_f - lo_f) * i / max(n - 1, 1) for i in range(n)]
    return [[re, im] for re in axes["re"] for im in axes["im"]]


def _cmd_verify(args) -> int:
    if args.suite:
        with open(args.suite, "r", encoding="utf-8") as fh:
            config = SuiteConfig.from_json(fh.read())
        if args.seed is not None:
            config = SuiteConfig(seed=args.seed, relations=config.relations)
    else:
        config = SuiteConfig.default(seed=args.seed if args.seed is not None else 7)
    if args.grid:
        if args.grid_family is None:
            raise InputError("--grid requires --grid-family")
        relations = {k: dict(v) for k, v in config.relations.items()}
        r7 = relations.setdefault("R7", {})
        grids = dict(r7.get("grids") or {})
        grids[str(args.grid_family)] = [_parse_grid_spec(spec) for spec in args.grid]
        r7["grids"] = grids
        families = list(r7.get("families", []))
        if args.grid_family not in families:
            families.append(args.grid_family)
            r7["families"] = families
        config = SuiteConfig(seed=config.seed, relations=relations)
    report = run_suite(config)
    print(report.to_text(), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return report.exit_code


def _add_state_args(parser: argparse.ArgumentParser):
    parser.add_argument("--state", help="path to a state JSON file")
    parser.add_argument("--family", type=int, choices=sorted(FAMILY_LABELS),
                        help="SLOCC family id 1..9")
    parser.add_argument("--a", default="0", help="family parameter a (complex literal)")
    parser.add_argument("--b", default="0", help="family parameter b")
    parser.add_argument("--c", default="0", help="family parameter c")
    parser.add_argument("--d", default="0", help="family parameter d")


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
        help="comma-separated list from: " + ", ".join(MEASURE_CHOICES),
    )
    p_measure.add_argument("--csv", help="also write values to this CSV path")
    p_measure.set_defaults(func=_cmd_measure)

    p_inv = sub.add_parser("invariants", help="polynomial invariants of one state")
    _add_state_args(p_inv)
    p_inv.add_argument("--csv", help="also write values to this CSV path")
    p_inv.set_defaults(func=_cmd_invariants)

    p_family = sub.add_parser("family", help="construct a SLOCC family state")
    p_family.add_argument("--family", type=int, required=True,
                          choices=sorted(FAMILY_LABELS))
    p_family.add_argument("--a", default="0")
    p_family.add_argument("--b", default="0")
    p_family.add_argument("--c", default="0")
    p_family.add_argument("--d", default="0")
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
