import time

import pytest
from oracles import bell_number, k_partitions_brute, stirling2

from qent import IndexOutOfRange, OutOfRange, Partition, k_partitions


class TestKPartitions:
    def test_four_qubits_seven_bipartitions(self):
        assert len(k_partitions(4, 2)) == 7

    def test_singleton_partition(self):
        parts = k_partitions(3, 3)
        assert parts == [Partition(((0,), (1,), (2,)))]

    def test_four_choose_three(self):
        got = k_partitions(4, 3)
        assert len(got) == 6 == stirling2(4, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_stirling_recurrence(self, n):
        for k in range(1, n + 1):
            assert len(k_partitions(n, k)) == stirling2(n, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bell_totals(self, n):
        total = sum(len(k_partitions(n, k)) for k in range(1, n + 1))
        assert total == bell_number(n)

    def test_matches_brute_force_sets(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                got = {p.blocks for p in k_partitions(n, k)}
                want = {
                    tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0]))
                    for p in k_partitions_brute(n, k)
                }
                assert got == want

    def test_no_duplicates_and_canonical(self):
        for n in range(2, 8):
            for k in range(1, n + 1):
                parts = k_partitions(n, k)
                assert len({p.blocks for p in parts}) == len(parts)
                for p in parts:
                    assert Partition.from_blocks(p.blocks) == p

    def test_deterministic_order(self):
        assert k_partitions(5, 3) == k_partitions(5, 3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            k_partitions(4, 0)
        with pytest.raises(OutOfRange):
            k_partitions(4, 5)
        with pytest.raises(OutOfRange):
            k_partitions(15, 2)

    def test_sizes_that_cannot_finish_refused_at_once(self):
        """S(14, 7) = 49,329,280 partitions would take about half an hour."""
        start = time.perf_counter()
        for n, k in [(14, 7), (11, 2), (11, 1)]:
            with pytest.raises(OutOfRange):
                k_partitions(n, k)
        assert time.perf_counter() - start < 0.1
        assert len(k_partitions(10, 2)) == 2**9 - 1


class TestBipartitions:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_counts(self, n, count):
        assert len(k_partitions(n, 2)) == count == 2 ** (n - 1) - 1


class TestPartitionType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition(((0, 1), (1, 2)))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition(((0,), (2,)))

    def test_rejects_wrong_block_order(self):
        with pytest.raises(ValueError):
            Partition(((1,), (0, 2)))

    def test_str(self):
        assert str(Partition(((0, 2), (1,)))) == "02|1"

    @pytest.mark.parametrize("build", [
        lambda: Partition(None),
        lambda: Partition(3),
        lambda: Partition([1, 2]),
        lambda: Partition(((0,), 1)),
        lambda: Partition.from_blocks(None),
        lambda: Partition.from_blocks([[1], 0]),
        lambda: Partition.from_blocks([[]]),
    ], ids=["None", "int", "ints", "int block", "from None", "from int block", "from empty"])
    def test_what_is_not_blocks_of_sites_is_refused(self, build):
        with pytest.raises(IndexOutOfRange) as info:
            build()
        assert len(str(info.value)) < 80
