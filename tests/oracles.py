"""Independent brute-force oracles for cross-checking the library.

These deliberately use different algorithms from the package: element
recursion instead of restricted-growth strings, explicit bit-index
summation instead of tensor reshapes, the trace-norm route for
negativity instead of the negative-eigenvalue sum, and an exhaustive
partition scan instead of the subset DP behind the k-ME concurrence.
"""
import numpy as np

from qent import linear_entropy_pure
from qent.qstate import clamped_sqrt


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def all_partitions_brute(n: int):
    """Every set partition of range(n), built by inserting elements into
    existing blocks one at a time."""
    if n == 0:
        yield []
        return
    for part in all_partitions_brute(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def k_partitions_brute(n: int, k: int):
    return [p for p in all_partitions_brute(n) if len(p) == k]


def partial_trace_brute(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced matrix by direct index summation over the traced bits."""
    keep = sorted(keep)
    drop = [s for s in range(n) if s not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits: int, drop_bits: int) -> int:
        idx = 0
        for pos, site in enumerate(keep):
            bit = (keep_bits >> (len(keep) - 1 - pos)) & 1
            idx |= bit << (n - 1 - site)
        for pos, site in enumerate(drop):
            bit = (drop_bits >> (len(drop) - 1 - pos)) & 1
            idx |= bit << (n - 1 - site)
        return idx

    for a in range(dk):
        for b in range(dk):
            acc = 0j
            for z in range(2 ** len(drop)):
                acc += rho[full_index(a, z), full_index(b, z)]
            out[a, b] = acc
    return out


def purity_brute(m: np.ndarray) -> float:
    return float(np.real(np.trace(m @ m)))


def negativity_trace_norm(rho: np.ndarray, site: int, n: int) -> float:
    """Trace-norm route: ||rho^{T_site}||_1 - 1 from summed absolute eigenvalues."""
    t = rho.reshape((2,) * (2 * n))
    pt = np.ascontiguousarray(t.swapaxes(site, site + n)).reshape(2**n, 2**n)
    ev = np.linalg.eigvalsh(pt)
    return float(np.abs(ev).sum() - 1.0)


def kme_brute(psi: np.ndarray, n: int, k: int) -> float:
    """k-ME concurrence by scanning the brute-force partition list with
    purity taken from the index-summation partial trace."""
    rho = np.outer(psi, psi.conj())
    best = None
    for part in k_partitions_brute(n, k):
        s = sum(1.0 - purity_brute(partial_trace_brute(rho, b, n)) for b in part)
        val = np.sqrt(max(0.0, 2.0 * s / k))
        if best is None or val < best:
            best = val
    return best


def kme_scan(psi, k: int):
    """(value, blocks) of the k-ME concurrence by scanning every k-partition.

    Each partition from k_partitions_brute is put in canonical form
    (sorted blocks ordered by their smallest site), its block linear
    entropies are summed right-nested, S(B_1) + (S(B_2) + (... + S(B_k))),
    and the sum goes through clamped_sqrt(2 s / k).  Among exactly equal
    values the smallest blocks tuple wins.
    """
    scan = []
    for part in k_partitions_brute(psi.num_sites, k):
        blocks = tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0]))
        s = 0.0
        for b in reversed(blocks):  # not sum(): Python 3.12+ compensates float sums
            s = linear_entropy_pure(psi, b) + s
        scan.append((clamped_sqrt(2.0 * s / k), blocks))
    return min(scan)


def wootters_brute(rho: np.ndarray) -> float:
    """Concurrence from the (non-Hermitian) spectrum of rho * rho_tilde."""
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    mu = np.linalg.eigvals(rho @ syy @ rho.conj() @ syy)
    lam = np.sqrt(np.clip(np.real(mu), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def random_state_vector(n: int, rng) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)
