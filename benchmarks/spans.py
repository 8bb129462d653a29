"""In-memory span tracer for the benchmark's traced run.

The tracer replaces functions of the `qent` modules, as they are bound
where they are called (``qent.verify.kme_concurrence_pure`` and
``qent.measures.kme_concurrence_pure`` are two bindings of one function),
plus ``numpy.linalg.svd``/``eigvalsh``/``eigh``, with wrappers that
record one span per call: name, start, end and parent.  Spans live in
flat arrays until the run ends; ``per_layer`` then turns them into the
per-layer metrics named in ``BENCHMARK.json``.

Nothing inside ``src/`` changes: the wrappers sit at the module
boundaries, so a span covers everything a call does, including calls
it makes into other wrapped functions (its children).
"""
from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array
from collections import Counter

import numpy as np

import qent
from qent import families, invariants, measures, partitions, qstate, verify

# Scalar helpers called once per block or per partition: a span would
# cost more than the call it measures.
UNTRACED = {"clamped_sqrt", "sites_tuple"}

# Private functions that mark a layer boundary the metrics need.
PRIVATE_TRACED = {"_run_case"}

TRACED_MODULES = (qent, qstate, partitions, measures, invariants, families, verify)

TRACED_METHODS = (
    (qstate.PureState, "__post_init__"),
    (qstate.DensityMatrix, "__post_init__"),
    (qstate.SchmidtSpectrum, "__post_init__"),
    (verify.SuiteReport, "to_csv"),
)

TRACED_LINALG = ("svd", "eigvalsh", "eigh")

# Time metrics: the union of the spans whose name is in the group, so a
# traced function calling another one of its group is not counted twice.
TIME_GROUPS = {
    "partitions.ms": ("partitions.k_partitions", "partitions.bipartitions"),
    "measures.kme_ms": ("measures.kme_concurrence_pure",),
    "qstate.schmidt_ms": ("qstate.schmidt_weights", "qstate.schmidt_spectrum"),
    "linalg.svd_ms": ("linalg.svd",),
    "qstate.validate_ms": (
        "qstate.PureState.__post_init__",
        "qstate.DensityMatrix.__post_init__",
        "qstate.SchmidtSpectrum.__post_init__",
    ),
    "qstate.density_of_ms": ("qstate.density_of",),
    "qstate.partial_transpose_ms": (
        "qstate.partial_transpose",
        "qstate.partial_transpose_sites",
    ),
    "qstate.reduced_ms": ("qstate.reduced_density_pure", "qstate.partial_trace"),
    "linalg.eigvalsh_ms": ("linalg.eigvalsh",),
    "measures.negativity_ms": ("measures.negativity", "measures.negativity_profile"),
    "measures.nme_bound_ms": ("measures.nme_lower_bound",),
    "measures.tangle_ms": (
        "measures.one_tangle",
        "measures.two_tangle",
        "measures.three_tangle",
        "measures.three_tangle_raw",
        "measures.wootters_concurrence",
    ),
    "qstate.json_parse_ms": ("qstate.state_from_json", "qstate.load_state"),
    "verify.csv_ms": ("verify.SuiteReport.to_csv",),
    "families.state_ms": (
        "families.ghz",
        "families.w",
        "families.w_class",
        "families.ghz_noise",
        "families.slocc_family",
    ),
    "families.closed_form_ms": (
        "families.family_closed_forms",
        "families.ghz_noise_negativity",
        "families.ghz_noise_nme_exact",
        "families.ghz_noise_threshold",
        "families.w_two_tangle",
        "families.w_kme_closed_form",
        "families.default_parameter_grid",
    ),
}

CALL_COUNTS = {
    "partitions.calls": "partitions.k_partitions",
    "measures.kme_calls": "measures.kme_concurrence_pure",
    "measures.entropy_calls": "measures.linear_entropy_pure",
    "qstate.schmidt_calls": "qstate.schmidt_weights",
    "linalg.svd_calls": "linalg.svd",
    "qstate.pure_new_calls": "qstate.PureState.__post_init__",
    "qstate.density_new_calls": "qstate.DensityMatrix.__post_init__",
    "linalg.eigvalsh_calls": "linalg.eigvalsh",
    "linalg.eigh_calls": "linalg.eigh",
    "measures.negativity_calls": "measures.negativity",
    "verify.cases": "verify._run_case",
}

RELATIONS = tuple(f"R{j}" for j in range(1, 10))


def _short_module(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans of wrapped calls; install() before, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._cuts: set = set()
        self._state_keys: dict[int, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one op."""
        idx = self._enter(self._nid(name))
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name: str, after=None):
        nid, enter, leave = self._nid(name), self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- work counters -----------------------------------------------------

    def _count_bytes(self, key: str):
        def after(args, _result):
            self.counters[key] += int(np.asarray(args[0]).nbytes)

        return after

    def _count_partitions(self, _args, result) -> None:
        self.counters["partitions.visited"] += len(result)

    def _count_rows(self, _args, result) -> None:
        self.counters["verify.rows"] += len(result.results)

    def _record_cut(self, args, _result) -> None:
        psi, block = args[0], args[1]
        key = self._state_keys.get(id(psi))
        if key is None:
            # keep psi referenced so its id is not reused within the run
            key = self._state_keys[id(psi)] = (psi, hash(psi.amplitudes.tobytes()))
        side = {int(block)} if isinstance(block, (int, np.integer)) else set(block)
        if 0 not in side:  # S(A) = S(complement) for a pure state
            side = set(range(psi.num_sites)) - side
        self._cuts.add((key[1], frozenset(side)))

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        hooks = {
            "partitions.k_partitions": self._count_partitions,
            "measures.linear_entropy_pure": self._record_cut,
            "verify.run_suite": self._count_rows,
        }
        for module in TRACED_MODULES:
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("qent.") or fn.__name__ != attr:
                    continue
                if attr in UNTRACED or (attr.startswith("_") and attr not in PRIVATE_TRACED):
                    continue
                name = f"{_short_module(fn)}.{attr}"
                self._patch(module, attr, self._wrap(fn, name, hooks.get(name)))
        for cls, attr in TRACED_METHODS:
            fn = vars(cls)[attr]
            name = f"{_short_module(fn)}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._wrap(fn, name))
        for attr in TRACED_LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(
                np.linalg, attr, self._wrap(fn, f"linalg.{attr}", self._count_bytes(f"linalg.{attr}_bytes"))
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def _arrays(self):
        nid = np.array(self.name_id, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        return nid, dur, parent

    def _union_ms(self, nid, dur, parent, names) -> float:
        """Summed duration of the spans named in `names` that have no
        ancestor named in `names`."""
        member = np.zeros(len(self.names) + 1, dtype=bool)
        for name in names:
            if name in self._name_ids:
                member[self._name_ids[name]] = True
        own = member[nid]
        if not own.any():
            return 0.0
        # inside[i]: span i or one of its ancestors is a member.  Parents
        # precede children, so repeated propagation converges in depth steps.
        inside = own.copy()
        safe_parent = np.where(parent < 0, len(inside), parent)
        while True:
            padded = np.append(inside, False)
            nxt = own | padded[safe_parent]
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        outer = own & ~np.append(inside, False)[safe_parent]
        return float(dur[outer].sum() * 1e3)

    def span_table(self) -> dict:
        """calls, total_ms and self_ms per span name."""
        nid, dur, parent = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        table = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            table[name] = {
                "calls": int(mask.sum()),
                "total_ms": float(dur[mask].sum() * 1e3),
                "self_ms": float(selft[mask].sum() * 1e3),
            }
        return table

    def per_layer(self) -> dict[str, float]:
        nid, dur, parent = self._arrays()
        table = self.span_table()
        out: dict[str, float] = {}
        for metric, name in CALL_COUNTS.items():
            out[metric] = table.get(name, {"calls": 0})["calls"]
        for metric in ("partitions.visited", "verify.rows",
                       "linalg.svd_bytes", "linalg.eigvalsh_bytes"):
            out[metric] = self.counters[metric]
        calls = out["measures.entropy_calls"]
        out["measures.entropy_useful_ratio"] = len(self._cuts) / calls if calls else 0.0
        for metric, names in TIME_GROUPS.items():
            out[metric] = self._union_ms(nid, dur, parent, names)
        out["invariants.ms"] = self._union_ms(
            nid, dur, parent, [n for n in self.names if n.startswith("invariants.")]
        )
        for rel in RELATIONS:
            out[f"verify.{rel}_ms"] = table.get(f"op.{rel}", {"total_ms": 0.0})["total_ms"]
        out["verify.self_ms"] = sum(
            row["self_ms"] for name, row in table.items()
            if name.startswith("verify.") and name != "verify.SuiteReport.to_csv"
        )
        return out
