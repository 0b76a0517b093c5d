"""Pattern construction: golden layouts, block structure, padding."""

import pytest

from synthcat.model import DependenceTarget, GroupStructure, SpecError
from helpers import pad_groups
from synthcat.patterns import balanced_pattern, grouped_pattern

EIGHT_BY_SIXTEEN = (
    "LLLLLLLLLLLLLLLL",
    "HHHHHHHHHHHHHHHH",
    "LLLLLLLLHHHHHHHH",
    "HHHHHHHHLLLLLLLL",
    "LLLLHHHHLLLLHHHH",
    "HHHHLLLLHHHHLLLL",
    "LLHHLLHHLLHHLLHH",
    "HHLLHHLLHHLLHHLL",
)

FIVE_BY_TWELVE = (
    "LLLLLLLLLLLL",
    "HHHHHHHHHHHH",
    "LLLLLLHHHHHH",
    "HHHHHHLLLLLL",
    "LLLHHHLLLHHH",
)


class TestBalancedPattern:
    def test_eight_cluster_sixteen_column_golden(self):
        pattern = balanced_pattern(8, 16)
        assert tuple("".join(row) for row in pattern.symbols) == EIGHT_BY_SIXTEEN
        # 8 blocks of 2 identical adjacent columns
        assert pattern.column_groups == (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8)

    def test_five_cluster_twelve_column_golden(self):
        pattern = balanced_pattern(5, 12)
        assert tuple("".join(row) for row in pattern.symbols) == FIVE_BY_TWELVE
        assert pattern.column_groups == (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)

    def test_odd_row_count_is_prefix_of_the_next_even_one(self):
        five = balanced_pattern(5, 12)
        six = balanced_pattern(6, 12)
        assert six.symbols[:5] == five.symbols

    def test_consecutive_rows_are_complements(self):
        pattern = balanced_pattern(8, 16)
        flip = {"L": "H", "H": "L"}
        for odd in range(0, 8, 2):
            mirrored = tuple(flip[s] for s in pattern.symbols[odd])
            assert mirrored == pattern.symbols[odd + 1]

    def test_every_column_splits_even_clusters_in_half(self):
        for c_count, p_count in ((2, 4), (4, 8), (6, 8), (8, 16), (10, 32), (12, 32)):
            pattern = balanced_pattern(c_count, p_count)
            for p in range(p_count):
                assert pattern.column(p).count("H") == c_count // 2
        # Rows beyond the first complementary pair are half-and-half too.
        pattern = balanced_pattern(8, 16)
        for row in pattern.symbols[2:]:
            assert row.count("H") == 8

    def test_distinct_cluster_rows(self):
        pattern = balanced_pattern(12, 32)
        assert len(set(pattern.symbols)) == 12

    def test_columns_identical_exactly_within_blocks(self):
        pattern = balanced_pattern(8, 16)
        columns = [pattern.column(p) for p in range(16)]
        for p in range(16):
            for q in range(16):
                same_block = pattern.column_groups[p] == pattern.column_groups[q]
                assert (columns[p] == columns[q]) == same_block

    def test_width_divisibility_enforced(self):
        with pytest.raises(SpecError, match="divisible"):
            balanced_pattern(8, 12)
        with pytest.raises(SpecError, match="divisible"):
            balanced_pattern(5, 10)

    def test_minimum_dimensions(self):
        with pytest.raises(SpecError):
            balanced_pattern(1, 4)
        with pytest.raises(SpecError):
            balanced_pattern(4, 0)


class TestGroupedPattern:
    def test_unequal_groups_expand_the_core_columns(self):
        groups = GroupStructure((2, 2, 5, 3))
        pattern, c_count = grouped_pattern(groups)
        assert c_count == 6
        assert pattern.variable_count == 12
        # Deepest row alternates group-wise: L,H,L,H expanded by sizes.
        assert "".join(pattern.symbols[4]) == "LL" + "HH" + "LLLLL" + "HHH"
        assert "".join(pattern.symbols[0]) == "L" * 12
        assert pattern.column_groups == (1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4)

    def test_equal_groups_reduce_to_the_balanced_design(self):
        pattern, c_count = grouped_pattern(GroupStructure((3, 3, 3, 3)))
        assert c_count == 6
        direct = balanced_pattern(6, 12)
        assert pattern.symbols == direct.symbols

    def test_noise_columns_stay_out_of_the_pattern(self):
        pattern, _ = grouped_pattern(GroupStructure((3, 3, 3, 3), noise_count=2))
        assert pattern == grouped_pattern(GroupStructure((3, 3, 3, 3)))[0]
        assert pattern.variable_count == 12
        assert all(set(row) <= {"H", "L"} for row in pattern.symbols)
        assert 0 not in pattern.column_groups

    def test_cluster_count_scales_with_group_count(self):
        for k, expected_c in ((1, 2), (2, 4), (4, 6), (8, 8), (16, 10), (32, 12)):
            _, c_count = grouped_pattern(GroupStructure((2,) * k))
            assert c_count == expected_c

    def test_group_count_must_be_a_power_of_two(self):
        with pytest.raises(SpecError, match="power of 2"):
            grouped_pattern(GroupStructure((2, 2, 2)))

    def test_distinct_groups_have_distinct_patterns(self):
        pattern, _ = grouped_pattern(GroupStructure((2, 2, 5, 3)))
        seen = {}
        for p in range(pattern.variable_count):
            seen.setdefault(pattern.column(p), set()).add(pattern.column_groups[p])
        for members in seen.values():
            assert len(members) == 1


class TestPadGroups:
    def test_pads_to_the_next_power_of_two(self):
        pairs = tuple((2, 0.9) for _ in range(27))
        padded = pad_groups(pairs)
        assert len(padded) == 32
        assert padded[:27] == pairs
        assert padded[27:] == ((2, 0.01),) * 5

    def test_power_of_two_input_is_unchanged(self):
        pairs = ((3, 0.5), (4, 0.6))
        assert pad_groups(pairs) == pairs

    def test_custom_pad(self):
        padded = pad_groups(((2, 0.5),) * 3, pad_size=3, pad_correlation=0.05)
        assert padded[3] == (3, 0.05)

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            pad_groups(())

    def test_padded_sizes_fit_group_structure(self):
        real = ((2, 0.68), (3, 0.62), (21, 0.59))
        padded = pad_groups(real)
        structure = GroupStructure(
            sizes=tuple(s for s, _ in padded),
            targets=tuple(DependenceTarget("correlation", c) for _, c in padded),
        )
        assert structure.violations() == []
