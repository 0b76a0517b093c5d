"""High/low pattern matrices tying clusters to variables.

A pattern is a C x P grid over the two symbols H and L.  Row c says which
of two probability vectors variable p uses inside cluster c; columns whose
H/L patterns differ across clusters are what make clusters separable, and
columns sharing a pattern are what produce marginal dependence.

The balanced design alternates H and L runs whose length halves every two
rows, so that every pair of distinct clusters disagrees on exactly half of
the columns and every column splits the clusters into two halves of equal
total weight.  The grouped design repeats each column of a balanced core
to form blocks of pattern-identical columns.  Noise columns are not part
of a pattern: ``generator.bind_pattern`` appends them after its columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import GroupStructure, SpecError

HIGH = "H"
LOW = "L"


@dataclass(frozen=True)
class PatternMatrix:
    """C x P grid of 'H'/'L' symbols.

    ``column_groups[p]`` is the 1-based id of the block of identical columns
    that column p belongs to.
    """

    symbols: tuple[tuple[str, ...], ...]
    column_groups: tuple[int, ...]

    @property
    def cluster_count(self) -> int:
        return len(self.symbols)

    @property
    def variable_count(self) -> int:
        return len(self.symbols[0]) if self.symbols else 0

    def column(self, p: int) -> tuple[str, ...]:
        return tuple(row[p] for row in self.symbols)


def _run_length(cluster: int, variables: int) -> tuple[int, str]:
    """Run length and starting symbol for 1-based cluster row ``cluster``.

    Odd rows start at L, even rows at H; the run length halves every two
    rows, so rows 2j-1 and 2j are mirror images of each other.
    """
    return variables >> ((cluster - 1) // 2), LOW if cluster % 2 else HIGH


def balanced_pattern(cluster_count: int, variable_count: int) -> PatternMatrix:
    """The alternating-run design on C clusters and P columns.

    P must be divisible by 2**(depth) where depth is the number of run-length
    halvings the last cluster row needs, so every run has integer length.
    Columns fall into P >> depth blocks of identical columns, reported as
    1-based ids in ``column_groups``.
    """
    if cluster_count < 2:
        raise SpecError("pattern: need at least 2 clusters")
    if variable_count < 1:
        raise SpecError("pattern: need at least 1 column")
    # The number of halvings the deepest row performs.
    depth = (cluster_count - 1) // 2
    divisor = 1 << depth
    if variable_count % divisor:
        raise SpecError(
            f"pattern: {variable_count} columns not divisible by {divisor} "
            f"(required for C={cluster_count})"
        )
    rows = []
    for c in range(1, cluster_count + 1):
        run, start = _run_length(c, variable_count)
        other = HIGH if start == LOW else LOW
        rows.append(tuple(start if (p // run) % 2 == 0 else other for p in range(variable_count)))
    block = variable_count >> depth
    groups = tuple(p // block + 1 for p in range(variable_count))
    return PatternMatrix(tuple(rows), groups)


def grouped_pattern(groups: GroupStructure) -> tuple[PatternMatrix, int]:
    """Expand a balanced core so block v has ``sizes[v]`` identical columns.

    The group count k must be a power of 2; the matching cluster count is
    C = 2 * (1 + log2 k), the smallest C whose balanced design on k columns
    exists and leaves distinct groups with distinct patterns.
    """
    problems = groups.violations()
    if problems:
        raise SpecError("; ".join(problems))
    k = groups.group_count
    cluster_count = 2 * k.bit_length()
    core = balanced_pattern(cluster_count, k)
    columns = groups.column_groups()
    rows = tuple(tuple(core_row[v - 1] for v in columns) for core_row in core.symbols)
    return PatternMatrix(rows, columns), cluster_count
