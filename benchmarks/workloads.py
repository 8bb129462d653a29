"""The three workloads: input generation, the timed op, and output checks.

A workload turns (seed, pass number) into a list of op inputs.  The
worker times `run` on each input and calls `check` afterwards, outside
the timed phase.  Checks compute the expected value by their own route
in plain numpy, so a change inside `qent` cannot make an op agree with
itself.  `reference_ops` are the inputs of the default seed, whose
outputs are committed under `reference/` and compared on every run.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from itertools import combinations

import numpy as np

from qent import measures, qstate, verify

DEFAULT_SEED = 7
# rng stream of the untimed warm-up input; no pass number reaches it
WARMUP_PASS = 999_999
CHECK_TOL = 1e-10
SUITE_REFERENCE_TOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SUITE_REFERENCE = os.path.join(REFERENCE_DIR, "suite_seed7.csv")
MEASURE_REFERENCE = os.path.join(REFERENCE_DIR, "measures_seed7.json")
# sha256 of `qent verify --default --seed 7 --csv` when the reference was
# recorded; reported for information, the row comparison is the gate
SUITE_SEED7_SHA256 = "298cb552dc7c4759e76c3843e5d1fc113ff883f9037c75ee35fb87566cdc6897"

RELATIONS = tuple(f"R{j}" for j in range(1, 10))


# -- independent numpy routes ----------------------------------------------

def _random_amplitudes(rng, n: int) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def _random_mixture(rng, n: int, rank: int) -> np.ndarray:
    """Rank-`rank` density matrix, exactly Hermitian, unit trace."""
    vecs = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    vecs /= np.linalg.norm(vecs, axis=0)
    m = (vecs * rng.dirichlet(np.ones(rank))) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _purity(amps: np.ndarray, n: int, block) -> float:
    """Tr(rho_block^2) of a pure state, from the smaller Gram matrix."""
    block = tuple(block)
    t = np.moveaxis(amps.reshape((2,) * n), block, tuple(range(len(block))))
    m = t.reshape(2 ** len(block), -1)
    g = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    return float(np.sum(np.abs(g) ** 2))


def _kme_of_partition(amps: np.ndarray, n: int, blocks) -> float:
    s = sum(1.0 - _purity(amps, n, b) for b in blocks)
    return math.sqrt(max(0.0, 2.0 / len(blocks) * s))


def _kme2_bruteforce(amps: np.ndarray, n: int) -> float:
    """min over all cuts A|B of sqrt(2/2 * (S(A) + S(B)))."""
    rest = range(1, n)
    best = math.inf
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            a = (0,) + extra
            b = tuple(s for s in range(n) if s not in a)
            best = min(best, _kme_of_partition(amps, n, (a, b)))
    return best


def _trace_norm_negativity(m: np.ndarray, n: int, site: int) -> float:
    t = m.reshape((2,) * (2 * n)).swapaxes(site, site + n).reshape(2**n, 2**n)
    return float(np.linalg.svd(t, compute_uv=False).sum() - 1.0)


def _pure_json(amps: np.ndarray, n: int) -> str:
    return json.dumps(
        {"kind": "pure", "num_sites": n,
         "amplitudes": [[z.real, z.imag] for z in amps.tolist()]}
    )


def _density_json(m: np.ndarray, n: int) -> str:
    return json.dumps(
        {"kind": "density", "num_sites": n,
         "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]}
    )


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _off(a: float, b: float, tol: float) -> bool:
    """True unless |a - b| <= tol; NaN is always off."""
    return not abs(a - b) <= tol


def _load_measure_reference(name: str):
    with open(MEASURE_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[name]


# -- verify_suite -------------------------------------------------------------

class VerifySuite:
    """One op: one relation of the default suite at one seed, run
    through run_suite and rendered with to_csv."""

    name = "verify_suite"
    seeds_per_pass = 6
    ops_per_pass = seeds_per_pass * len(RELATIONS)
    _reference = None

    def inputs(self, seed: int, pass_no: int):
        first = seed + self.seeds_per_pass * pass_no
        return [
            (rel, verify.SuiteConfig(seed=s, relations={rel: {}}))
            for s in range(first, first + self.seeds_per_pass)
            for rel in RELATIONS
        ]

    def warmup(self, seed: int):
        return ("R1", verify.SuiteConfig(seed=seed + 10**9, relations={"R1": {}}))

    def reference_ops(self):
        return [
            (rel, verify.SuiteConfig(seed=DEFAULT_SEED, relations={rel: {}}))
            for rel in RELATIONS
        ]

    @staticmethod
    def label(op) -> str:
        return op[0]

    @staticmethod
    def run(op):
        report = verify.run_suite(op[1])
        return report.results, report.to_csv()

    def reference_rows(self) -> dict[str, list[tuple]]:
        """relation -> [(descriptor, verdict, lhs, rhs)] of the committed seed-7 suite."""
        if self._reference is None:
            self._reference = {rel: [] for rel in RELATIONS}
            with open(SUITE_REFERENCE, encoding="utf-8") as fh:
                reader = csv.reader(fh)
                next(reader)
                for rel, desc, verdict, lhs, rhs in reader:
                    self._reference[rel].append((desc, verdict, float(lhs), float(rhs)))
        return self._reference

    def check(self, op, out):
        rel, results = op[0], out[0]
        if len(results) != len(self.reference_rows()[rel]):
            return "row_count"
        if any(r.verdict == "fail" for r in results):
            return "fail_verdict"
        if not _finite(*(v for r in results for v in (r.lhs, r.rhs))):
            return "non_finite"
        return None

    def check_reference(self, index: int, op, out):
        expected = self.reference_rows()[op[0]]
        results = out[0]
        if len(results) != len(expected):
            return "reference_row_count"
        for r, (desc, verdict, lhs, rhs) in zip(results, expected):
            if r.state_descriptor != desc or r.verdict != verdict:
                return "reference_row"
            if _off(r.lhs, lhs, SUITE_REFERENCE_TOL) or _off(r.rhs, rhs, SUITE_REFERENCE_TOL):
                return "reference_value"
        return None

    @staticmethod
    def suite_csv(outs) -> str:
        """The nine per-relation CSVs of one seed joined under one header."""
        texts = [o[1] for o in outs]
        header = texts[0].split("\n", 1)[0] + "\n"
        return header + "".join(t.split("\n", 1)[1] for t in texts)

    def reference_info(self, outs) -> dict:
        digest = hashlib.sha256(self.suite_csv(outs).encode()).hexdigest()
        return {"suite_seed7_sha256": digest,
                "suite_seed7_sha256_as_recorded": digest == SUITE_SEED7_SHA256}

    def cli_case(self, seed: int, ops, workdir: str):
        """`qent verify --default --seed <seed>` must print the rows of the
        nine ops at that seed."""
        output = os.path.join(workdir, "cli.csv")
        return {
            "argv": ["-m", "qent", "verify", "--default", "--seed", str(seed), "--csv", output],
            "output": output,
            "picked": list(range(len(RELATIONS))),
        }

    def cli_expect(self, ops, outs, picked, workdir: str):
        expect = os.path.join(workdir, "expected.csv")
        with open(expect, "w", encoding="utf-8") as fh:
            fh.write(self.suite_csv([outs[i] for i in picked]))
        return {"expect_csv": expect}


# -- pure_kme -------------------------------------------------------------------

KME_PLAN = ((8, tuple(range(2, 9))), (9, (2, 3, 7, 8, 9)), (10, (2, 8, 9, 10)))
KME_STATES_PER_SIZE = 2
CLI_KS = (2, 3, 4)


class PureKme:
    """One op: kme_concurrence_pure(psi, k) on a random pure state."""

    name = "pure_kme"
    ops_per_pass = KME_STATES_PER_SIZE * sum(len(ks) for _, ks in KME_PLAN)
    _reference = None

    def inputs(self, seed: int, pass_no: int):
        rng = np.random.default_rng([seed, pass_no])
        ops = []
        for n, ks in KME_PLAN:
            for _ in range(KME_STATES_PER_SIZE):
                amps = _random_amplitudes(rng, n)
                psi = qstate.PureState(amps, n)
                ops.extend((psi, k, amps) for k in ks)
        return ops

    def warmup(self, seed: int):
        amps = _random_amplitudes(np.random.default_rng([seed, WARMUP_PASS]), 8)
        return (qstate.PureState(amps, 8), 2, amps)

    def reference_ops(self):
        """The ops on the first state of each size at the default seed."""
        ops = self.inputs(DEFAULT_SEED, 0)
        firsts = {op[0].num_sites: op[0] for op in reversed(ops)}
        return [op for op in ops if op[0] is firsts[op[0].num_sites]]

    @staticmethod
    def label(op) -> str:
        return f"n={op[0].num_sites} k={op[1]}"

    @staticmethod
    def run(op):
        rep = measures.kme_concurrence_pure(op[0], op[1])
        return rep.value, rep.optimal_partition.blocks

    @staticmethod
    def check(op, out):
        psi, k, amps = op
        n = psi.num_sites
        value, blocks = out
        if not _finite(value):
            return "non_finite"
        if len(blocks) != k or sorted(s for b in blocks for s in b) != list(range(n)):
            return "argmin_partition"
        if _off(value, _kme_of_partition(amps, n, blocks), CHECK_TOL):
            return "argmin_value"
        singles = [(p,) for p in range(n)]
        if k == n and _off(value, _kme_of_partition(amps, n, singles), CHECK_TOL):
            return "kn_one_site_purities"
        if k == 2 and _off(value, _kme2_bruteforce(amps, n), CHECK_TOL):
            return "k2_bruteforce"
        return None

    def check_reference(self, index: int, op, out):
        if self._reference is None:
            self._reference = _load_measure_reference(self.name)
        value, blocks = self._reference[index]
        if _off(out[0], value, CHECK_TOL):
            return "reference_value"
        if [list(b) for b in out[1]] != blocks:
            return "reference_partition"
        return None

    @staticmethod
    def reference_entry(out):
        return [out[0], [list(b) for b in out[1]]]

    def cli_case(self, seed: int, ops, workdir: str):
        """`qent measure --state <first n=8 state> --k 2,3,4` must print
        the values of the matching ops."""
        psi, _, amps = ops[0]
        state = os.path.join(workdir, "state.json")
        with open(state, "w", encoding="utf-8") as fh:
            fh.write(_pure_json(amps, psi.num_sites))
        output = os.path.join(workdir, "cli.csv")
        return {
            "argv": ["-m", "qent", "measure", "--state", state,
                     "--k", ",".join(map(str, CLI_KS)), "--csv", output],
            "output": output,
            "picked": [i for i, op in enumerate(ops) if op[0] is psi and op[1] in CLI_KS],
        }

    @staticmethod
    def cli_expect(ops, outs, picked, workdir: str):
        return {"expect_values": {f"C_{ops[i][1]}-ME": outs[i][0] for i in picked}}


# -- density_neg ------------------------------------------------------------------

NEG_PLAN = ((6, 12), (7, 12), (8, 8))  # (sites, ops); even ops pure, odd ops mixed
MIX_RANK = 3
_STARTS = [sum(count for _, count in NEG_PLAN[:j]) for j in range(len(NEG_PLAN))]
REFERENCE_POSITIONS = {start + i for start in _STARTS for i in (0, 1)}
CLI_MIXED_SITES = 7


class DensityNeg:
    """One op: what `qent measure --state F --measures negativity,nme-bound`
    computes, called through the library on a generated JSON text."""

    name = "density_neg"
    ops_per_pass = sum(count for _, count in NEG_PLAN)
    _reference = None

    def inputs(self, seed: int, pass_no: int):
        rng = np.random.default_rng([seed, pass_no])
        ops = []
        for n, count in NEG_PLAN:
            for i in range(count):
                if i % 2 == 0:
                    amps = _random_amplitudes(rng, n)
                    ops.append(("pure", n, _pure_json(amps, n), amps))
                else:
                    m = _random_mixture(rng, n, MIX_RANK)
                    ops.append(("mixed", n, _density_json(m, n), m))
        return ops

    def warmup(self, seed: int):
        amps = _random_amplitudes(np.random.default_rng([seed, WARMUP_PASS]), 6)
        return ("pure", 6, _pure_json(amps, 6), amps)

    def reference_ops(self):
        """The first pure and the first mixed op of each size at the default seed."""
        ops = self.inputs(DEFAULT_SEED, 0)
        return [op for i, op in enumerate(ops) if i in REFERENCE_POSITIONS]

    @staticmethod
    def label(op) -> str:
        return f"n={op[1]} {op[0]}"

    @staticmethod
    def run(op):
        state = qstate.state_from_json(op[2])
        rho = qstate.density_of(state) if isinstance(state, qstate.PureState) else state
        prof = measures.negativity_profile(rho)
        return prof.per_site, measures.nme_lower_bound(rho)

    @staticmethod
    def check(op, out):
        kind, n, _, data = op
        per_site, bound = out
        if not _finite(bound, *per_site):
            return "non_finite"
        if len(per_site) != n:
            return "site_count"
        if kind == "pure":
            # for a pure state N^p is the concurrence of p against the rest
            entropies = [1.0 - _purity(data, n, (p,)) for p in range(n)]
            if any(_off(v, math.sqrt(2.0 * s), CHECK_TOL) for v, s in zip(per_site, entropies)):
                return "pure_site_concurrence"
            if _off(bound, math.sqrt(2.0 / n * sum(entropies)), CHECK_TOL):
                return "r1_identity"
            return None
        expected = [_trace_norm_negativity(data, n, p) for p in range(n)]
        if any(_off(v, e, CHECK_TOL) for v, e in zip(per_site, expected)):
            return "trace_norm"
        if _off(bound, math.sqrt(sum(e * e for e in expected) / n), CHECK_TOL):
            return "nme_quadratic_mean"
        return None

    def check_reference(self, index: int, op, out):
        if self._reference is None:
            self._reference = _load_measure_reference(self.name)
        per_site, bound = self._reference[index]
        if len(out[0]) != len(per_site) or _off(out[1], bound, CHECK_TOL) or any(
            _off(a, b, CHECK_TOL) for a, b in zip(out[0], per_site)
        ):
            return "reference_value"
        return None

    @staticmethod
    def reference_entry(out):
        return [list(out[0]), out[1]]

    def cli_case(self, seed: int, ops, workdir: str):
        """`qent measure --state <first n=7 mixture> --measures
        negativity,nme-bound` must print the values of that op."""
        i = next(j for j, op in enumerate(ops) if op[0] == "mixed" and op[1] == CLI_MIXED_SITES)
        state = os.path.join(workdir, "state.json")
        with open(state, "w", encoding="utf-8") as fh:
            fh.write(ops[i][2])
        output = os.path.join(workdir, "cli.csv")
        return {
            "argv": ["-m", "qent", "measure", "--state", state,
                     "--measures", "negativity,nme-bound", "--csv", output],
            "output": output,
            "picked": [i],
        }

    @staticmethod
    def cli_expect(ops, outs, picked, workdir: str):
        per_site, bound = outs[picked[0]]
        expect = {f"N^{p}": v for p, v in enumerate(per_site)}
        expect["nme_lower_bound"] = bound
        return {"expect_values": expect}


WORKLOADS = {wl.name: wl for wl in (VerifySuite, PureKme, DensityNeg)}


def write_suite_reference(outs, path: str = SUITE_REFERENCE) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["relation", "state_descriptor", "verdict", "lhs", "rhs"])
    for results, _ in outs:
        for r in results:
            writer.writerow([r.relation.value, r.state_descriptor, r.verdict,
                             format(r.lhs, ".17g"), format(r.rhs, ".17g")])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
