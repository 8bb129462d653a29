"""Set partitions of site indices {0..n-1} into k non-empty blocks.

Enumeration walks restricted-growth strings in lexicographic order, so
the output order is deterministic and duplicate-free.  A restricted
growth string a[0..n-1] has a[0] = 0 and a[i] <= max(a[:i]) + 1; block j
collects the positions labelled j, which automatically orders blocks by
their smallest element.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IndexOutOfRange, _integer, brief
from .qstate import _trusted

# largest n that k_partitions enumerates: S(10, 5) = 42,525 partitions take
# about 1.3 s, and the largest S(n, k) grows about sixfold per site
MAX_PARTITION_SITES = 10


@dataclass(frozen=True)
class Partition:
    """Blocks of a set partition, each sorted, ordered by smallest element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = _site_blocks(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        # non-empty ascending blocks in order, holding each of 0..n-1 once
        sites = sorted(s for b in blocks for s in b)
        if not (all(b and list(b) == sorted(b) for b in blocks) and list(blocks) == sorted(blocks)
                and sites == list(range(len(sites)))):
            raise IndexOutOfRange(f"blocks {brief(blocks)} are not a canonical partition")

    @property
    def num_sites(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize arbitrary block order into a Partition."""
        return cls(tuple(sorted(tuple(sorted(b)) for b in _site_blocks(blocks))))

    def __str__(self) -> str:
        sep = "," if self.num_sites > 10 else ""
        return "|".join(sep.join(str(s) for s in b) for b in self.blocks)


def _site_blocks(value) -> tuple[tuple[int, ...], ...]:
    """value as tuples of Python ints; IndexOutOfRange unless its blocks hold site indices."""
    try:
        return tuple(tuple(_integer(s, "site", 0, error=IndexOutOfRange) for s in b) for b in value)
    except TypeError as exc:  # value, or one of its blocks, is not a collection
        raise IndexOutOfRange(f"blocks must be lists of site indices, got {brief(value)}") from exc


def _rgs_blocks(labels: list[int], k: int) -> Partition:
    blocks: list[list[int]] = [[] for _ in range(k)]
    for site, lab in enumerate(labels):
        blocks[lab].append(site)
    return _trusted(Partition, tuple(tuple(b) for b in blocks))


def _iter_rgs(n: int, k: int) -> Iterator[Partition]:
    labels = [0] * n

    def rec(pos: int, used: int):
        if pos == n:
            if used == k:
                yield _rgs_blocks(labels, k)
            return
        # prune: remaining positions cannot raise the label count to k
        if used + (n - pos) < k:
            return
        top = min(used, k - 1)
        for v in range(top + 1):
            labels[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(0, 0)


def k_partitions(n: int, k: int) -> list[Partition]:
    """All partitions of {0..n-1} into exactly k blocks.

    Returns S(n, k) partitions (Stirling numbers of the second kind) in
    lexicographic order of their restricted-growth strings.  Raises
    OutOfRange, before listing any, unless n is an integer in
    [1, MAX_PARTITION_SITES] and k one in [1, n].
    """
    n = _integer(n, "n", 1, MAX_PARTITION_SITES)
    return list(_iter_rgs(n, _integer(k, "k", 1, n)))
