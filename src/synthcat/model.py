"""Domain types shared across the package, plus spec validation and config IO.

The data model mirrors the generative story: subjects fall into C clusters
with weights ``psi_c``, and within a cluster every variable is drawn
independently from a per-(cluster, variable) categorical distribution.  A
complete specification is therefore a ClusterSpec (weights and subject
counts) plus a ProfileMatrix (the C x P grid of probability vectors).  Group
structure and dependence targets enter through GroupStructure, consumed by
the patterns and calibration modules.

Validation is report-style: component types are plain immutable holders
that report through ``violations()`` instead of raising in ``__init__``, so
a caller can collect every problem at once; ``validate_spec`` aggregates
them.  An assembled ``GeneratorSpec`` cannot exist in an invalid state: it
runs ``validate_spec`` on construction and raises on any violation.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KINDS = ("nominal", "ordinal", "interval")
TARGET_KINDS = ("covariance", "correlation")
FAMILIES = ("binary", "snp", "explicit")

# Probability vectors and cluster weights must sum to 1 within this slack.
SUM_TOLERANCE = 1e-9

# Most columns a group structure may lay out, noise included: far past any
# table the generator can hold, and small enough to expand without overflow.
MAX_COLUMNS = 2**24

# A bad value or a name in an error message, one level deep: nested containers show as
# [...] and long strings and numbers are cut, so a message stays a few hundred characters long.
_short = reprlib.Repr()
_short.maxlevel = 1


class SpecError(ValueError):
    """A specification cannot be generated as declared."""


class InfeasibleTargetError(ValueError):
    """A dependence target cannot be met by any admissible profile."""


class ReproductionError(ValueError):
    """A re-run does not reproduce the run its manifest records."""


@dataclass(frozen=True)
class VariableDomain:
    """A categorical variable: ordered numeric level codes and a kind.

    Level codes are used verbatim by the moment formulas, so 0-based and
    1-based codings give different means on purpose.  ``kind`` gates which
    computations are meaningful: interval variables support moments, ordinal
    ones support rank concordance, nominal ones only chi-square style
    measures.
    """

    name: str
    levels: tuple[int, ...]
    kind: str = "interval"

    @property
    def size(self) -> int:
        return len(self.levels)

    def violations(self) -> list[str]:
        out = []
        name = _short.repr(self.name)
        if len(self.levels) < 2:
            out.append(f"variable {name}: needs at least 2 levels")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            out.append(f"variable {name}: level codes must be strictly increasing")
        # Level tables, and so Dataset.values, hold the codes as int64.
        if not all(-(2**63) <= code < 2**63 for code in self.levels):
            out.append(f"variable {name}: level codes must lie in [-2**63, 2**63)")
        if self.kind not in KINDS:
            out.append(f"variable {name}: unknown kind {_short.repr(self.kind)}")
        if any(c in self.name for c in ",\n\r"):
            out.append(f"variable {name}: name must not contain a comma or a line break")
        return out


@dataclass(frozen=True)
class ProbabilityVector:
    """A categorical distribution over the owning variable's levels."""

    probs: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def violations(self, context: str = "probability vector") -> list[str]:
        # Each test is written to fail on NaN, which compares false to everything.
        out = []
        if not all(0.0 <= p <= 1.0 for p in self.probs):
            out.append(f"{context}: entries must lie in [0, 1]")
        total = sum(self.probs)
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            out.append(f"{context}: probability sum != 1 (got {total!r})")
        return out


def largest_remainder(weights: tuple[float, ...], total: int) -> tuple[int, ...]:
    """Round ``weights * total`` to integers that sum to ``total`` exactly.

    Floors every quota first, then hands the remaining units to the largest
    fractional parts (ties broken by lower index, so the result is
    deterministic).
    """
    quotas = [w * total for w in weights]
    counts = [int(np.floor(q)) for q in quotas]
    short = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda c: (counts[c] - quotas[c], c))
    for c in order[:short]:
        counts[c] += 1
    return tuple(counts)


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster weights psi_c and per-cluster subject counts n_c."""

    weights: tuple[float, ...]
    counts: tuple[int, ...]

    @classmethod
    def uniform(cls, clusters: int, subjects: int) -> "ClusterSpec":
        # C < 1 gives no clusters, which violations() reports, not a division by zero.
        return cls.from_weights((1.0 / max(clusters, 1),) * clusters, subjects)

    @classmethod
    def from_weights(cls, weights: tuple[float, ...], subjects: int) -> "ClusterSpec":
        return cls(tuple(weights), largest_remainder(tuple(weights), subjects))

    @classmethod
    def from_counts(cls, counts: tuple[int, ...]) -> "ClusterSpec":
        total = sum(counts)
        if total <= 0:
            raise SpecError("cluster counts must sum to a positive subject total")
        return cls(tuple(c / total for c in counts), tuple(counts))

    @property
    def cluster_count(self) -> int:
        return len(self.weights)

    @property
    def subjects(self) -> int:
        return sum(self.counts)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def violations(self) -> list[str]:
        out = []
        if len(self.weights) == 0:
            out.append("clusters: at least one cluster required")
            return out
        if len(self.counts) != len(self.weights):
            out.append("clusters: weights and counts disagree in length")
        # As in ProbabilityVector.violations, NaN fails each test.
        if not all(w >= 0.0 for w in self.weights):
            out.append("clusters: weights must be non-negative")
        total = sum(self.weights)
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            out.append(f"clusters: weight sum != 1 (got {total!r})")
        if any(c < 0 for c in self.counts):
            out.append("clusters: counts must be non-negative")
        elif self.subjects == 0:
            out.append("clusters: at least one subject required")
        return out


@dataclass(frozen=True)
class DependenceTarget:
    """A within-group target, either a covariance or a correlation."""

    kind: str
    value: float

    def violations(self, context: str = "target") -> list[str]:
        out = []
        if self.kind not in TARGET_KINDS:
            out.append(f"{context}: unknown target kind {self.kind!r}")
            return out
        if self.kind == "correlation" and not 0.0 < self.value < 1.0:
            out.append(f"{context}: correlation target must lie in (0, 1), got {self.value!r}")
        if self.kind == "covariance" and not self.value > 0.0:
            out.append(f"{context}: covariance target must be positive, got {self.value!r}")
        return out


@dataclass(frozen=True)
class GroupStructure:
    """Ordered homogenous groups of variables, with optional targets.

    ``sizes[v]`` is the number of variables in group v; contributing columns
    are laid out group by group, followed by ``noise_count`` columns that
    carry no clustering signal.
    """

    sizes: tuple[int, ...]
    targets: tuple[DependenceTarget, ...] | None = None
    noise_count: int = 0

    @property
    def group_count(self) -> int:
        return len(self.sizes)

    @property
    def variable_count(self) -> int:
        return sum(self.sizes)

    def column_groups(self) -> tuple[int, ...]:
        """1-based group id per contributing column, in declaration order."""
        out: list[int] = []
        for v, size in enumerate(self.sizes, start=1):
            out.extend([v] * size)
        return tuple(out)

    def violations(self) -> list[str]:
        out = []
        k = len(self.sizes)
        if k == 0:
            out.append("groups: at least one group required")
            return out
        if k & (k - 1):
            out.append(f"groups: group count must be a power of 2, got {k}")
        if any(size < 1 for size in self.sizes):
            out.append("groups: every group needs at least one variable")
        if self.noise_count < 0:
            out.append("groups: noise count must be non-negative")
        total = self.variable_count + self.noise_count
        if total > MAX_COLUMNS:
            out.append(f"groups: {total} columns in all, more than the {MAX_COLUMNS} allowed")
        if self.targets is not None:
            if len(self.targets) != k:
                out.append("groups: one target per group required when targets are given")
            for v, target in enumerate(self.targets, start=1):
                out.extend(target.violations(f"group {v}"))
        return out


@dataclass(frozen=True)
class ProfileMatrix:
    """The full per-(cluster, variable) table of probability vectors.

    ``rows[c][p]`` is the distribution of variable p inside cluster c (both
    0-indexed).  Noise variables appear as columns whose vector is identical
    in every row.
    """

    variables: tuple[VariableDomain, ...]
    rows: tuple[tuple[ProbabilityVector, ...], ...]

    @property
    def cluster_count(self) -> int:
        return len(self.rows)

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    def cell(self, cluster: int, variable: int) -> ProbabilityVector:
        return self.rows[cluster][variable]

    def violations(self) -> list[str]:
        out = []
        for domain in self.variables:
            out.extend(domain.violations())
        if not self.variables:
            out.append("profile: at least one variable required")
        names = Counter(domain.name for domain in self.variables)
        out.extend(
            f"profile: variable name {_short.repr(name)} is used {count} times"
            for name, count in names.items()
            if count > 1
        )
        if not self.rows:
            out.append("profile: at least one cluster row required")
        for c, row in enumerate(self.rows, start=1):
            if len(row) != self.variable_count:
                out.append(f"profile: cluster {c} row has {len(row)} cells, expected {self.variable_count}")
                continue
            for p, (cell, domain) in enumerate(zip(row, self.variables), start=1):
                if len(cell.probs) != domain.size:
                    out.append(
                        f"profile: cell (cluster {c}, variable {p}) has {len(cell.probs)} "
                        f"entries for {domain.size} levels"
                    )
                else:
                    out.extend(cell.violations(f"profile cell (cluster {c}, variable {p})"))
        return out


def minimum_identifiable_variables(cluster_count: int, min_levels: int) -> int:
    """Smallest variable count satisfying P >= 2*ceil(log_M(C)) + 1.

    The ceiling is computed with integer arithmetic so exact powers do not
    fall prey to floating point log.
    """
    ceil_log = 0
    power = 1
    while power < cluster_count:
        power *= min_levels
        ceil_log += 1
    return 2 * ceil_log + 1


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_spec(profile: ProfileMatrix, clusters: ClusterSpec) -> ValidationReport:
    """Collect every hard error and warning for a would-be generator spec.

    Hard errors block generation.  The only warning is the identifiability
    guideline P >= 2*ceil(log_M(C)) + 1, which flags specs whose clustering
    may not be recoverable, not specs that cannot be sampled.
    """
    violations = list(profile.violations())
    violations.extend(clusters.violations())
    if profile.rows and clusters.cluster_count != profile.cluster_count:
        violations.append(
            f"spec: profile has {profile.cluster_count} cluster rows but "
            f"clusters declare {clusters.cluster_count}"
        )

    warnings = []
    # Below 2 levels the guideline's log has no base (its loop would not end).
    min_levels = min((domain.size for domain in profile.variables), default=0)
    if min_levels >= 2:
        need = minimum_identifiable_variables(clusters.cluster_count, min_levels)
        if profile.variable_count < need:
            warnings.append(
                f"identifiability: P={profile.variable_count} < {need} for "
                f"C={clusters.cluster_count}, M={min_levels}"
            )
    return ValidationReport(tuple(violations), tuple(warnings))


def level_table(variables) -> np.ndarray:
    """P x M int64 level codes: row p holds variable p's levels, zero-padded to the widest."""
    table = np.zeros((len(variables), max(domain.size for domain in variables)), dtype=np.int64)
    for p, domain in enumerate(variables):
        table[p, : domain.size] = domain.levels
    return table


def probability_table(profile: ProfileMatrix) -> np.ndarray:
    """C x P x M probabilities: cell (c, p) in row [c, p], zero-padded to the widest variable."""
    sizes = np.array([domain.size for domain in profile.variables])
    declared = np.arange(sizes.max()) < sizes[:, None]
    probs = np.zeros((profile.cluster_count, *declared.shape))
    probs[:, declared] = [[x for cell in row for x in cell.probs] for row in profile.rows]
    return probs


@dataclass(frozen=True, eq=False)
class Dataset:
    """Generated cells plus the true allocation and the generating spec.

    ``positions`` is n x (P + noise): each cell's 0-based position among its
    column's levels.  ``assignments`` holds the 1-based true cluster of each
    subject.  Both arrays are read-only.  Construction raises SpecError unless
    positions is n x P, each column's positions lie in [0, size) and each
    assignment in 1..C, so every consumer can trust them.
    """

    positions: np.ndarray
    assignments: np.ndarray
    profile: ProfileMatrix
    clusters: ClusterSpec
    seed: int
    shuffled: bool = False

    def __post_init__(self) -> None:
        variables, n = self.profile.variables, len(self.assignments)
        expected = (n, len(variables))
        if self.assignments.shape != (n,) or self.positions.shape != expected:
            raise SpecError(f"dataset: positions are {self.positions.shape}, expected {expected}")
        if n == 0:
            return
        # Per-column reductions, so no n x P temporary is made.
        lows, highs = self.positions.min(axis=0), self.positions.max(axis=0)
        for domain, low, high in zip(variables, lows, highs):
            if low < 0 or high >= domain.size:
                raise SpecError(f"dataset: column {_short.repr(domain.name)} has values outside its levels")
        c_count = self.clusters.cluster_count
        if not 1 <= self.assignments.min() <= self.assignments.max() <= c_count:
            raise SpecError(f"dataset: assignments outside the clusters 1..{c_count}")

    @property
    def values(self) -> np.ndarray:
        """The n x (P + noise) int64 level codes, gathered anew on every call."""
        table = level_table(self.profile.variables)
        return table[np.arange(len(table)), self.positions]

    @property
    def subjects(self) -> int:
        return self.positions.shape[0]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(domain.name for domain in self.profile.variables)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------
#
# JSON schema, top level keys:
#   seed      required integer
#   clusters  {"C"?: int, "n"?: int, "weights"?: [...] | "counts"?: [...]}
#   variables [{"name": str, "levels": [...], "kind"?: str}]   (profile only)
#   profile   C x P x M nested lists of probabilities            } exactly one of
#   groups    {"k"?, "sizes", "family", "targets"?, "pH"?, "H"?, "L"?}  } these two
#   noise     [{"name": str, "levels": [...], "probs": [...]}]   (groups only)
#
# Targets are single-key objects, {"covariance": 0.45} or {"correlation": 0.4}.
# Families binary and snp take pH and targets, explicit takes H and L only.
# A profile config without C takes it from the profile's row count.
# Column names (generated x1, x2, ... included) are unique, and level codes
# lie in [-2**63, 2**63).
#
# load_config returns a config in canonical form, which is what manifest.json
# embeds: the keys given and no others, integers as int, other numbers as
# float, lists as tuples.  "clusters" (possibly empty), groups.k and each
# variable's kind are filled in, and an empty noise list is dropped.  The
# canonical form loads to itself.


def _each(convert):
    """A parser for a list whose items ``convert`` parses, each under its index."""

    def parse(obj: object, context: str) -> tuple:
        if not isinstance(obj, (list, tuple)):
            raise SpecError(f"{context}: expected a list, got {_short.repr(obj)}")
        return tuple(convert(item, f"{context}[{i}]") for i, item in enumerate(obj))

    return parse


def _number(obj: object, context: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise SpecError(f"{context}: expected a number, got {_short.repr(obj)}")
    try:
        value = float(obj)
    except OverflowError:
        raise SpecError(f"{context}: number too large for a float") from None
    # json reads NaN and Infinity; no config number may be either.
    if not np.isfinite(value):
        raise SpecError(f"{context}: expected a finite number, got {_short.repr(obj)}")
    return value


def _integer(obj: object, context: str) -> int:
    """An integer, or a float with an integral value, as an int."""
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise SpecError(f"{context}: expected an integer, got {_short.repr(obj)}")
    if not isinstance(obj, numbers.Integral) and not float(obj).is_integer():
        raise SpecError(f"{context}: expected an integer, got {_short.repr(obj)}")
    return int(obj)


def checked_seed(obj: object, context: str) -> int:
    """``obj`` as a run seed: an integer with 0 <= seed < 2**64, else SpecError."""
    seed = _integer(obj, context)
    if not 0 <= seed < 2**64:
        raise SpecError(f"{context} must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _text(obj: object, context: str) -> str:
    if not isinstance(obj, str):
        raise SpecError(f"{context}: expected a string, got {_short.repr(obj)}")
    return obj


_numbers = _each(_number)
_integers = _each(_integer)


def _fields(obj: object, context: str, required: tuple[str, ...] = (), **fields) -> dict:
    """The keys ``obj`` gives, each read by its parser in ``fields``, in ``fields`` order.

    An ``obj`` that is not an object, a key outside ``fields``, or a missing
    ``required`` one is a SpecError.
    """
    if not isinstance(obj, dict):
        raise SpecError(f"{context}: expected an object, got {_short.repr(obj)}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise SpecError(f"{context}: unknown keys {_short.repr(sorted(unknown))}")
    out = {}
    for key, convert in fields.items():
        if key in obj:
            out[key] = convert(obj[key], f"{context}.{key}")
        elif key in required:
            raise SpecError(f"{context}.{key} is required")
    return out


def _target(obj: object, context: str) -> dict:
    target = _fields(obj, context, **dict.fromkeys(TARGET_KINDS, _number))
    if len(target) != 1:
        raise SpecError(f"{context}: targets must be single-key objects like {{'correlation': 0.4}}")
    return target


def _variable(obj: object, context: str) -> dict:
    variable = _fields(
        obj, context, ("name", "levels"), name=_text, levels=_integers, kind=lambda kind, _: str(kind)
    )
    return {"kind": "interval", **variable}


def _noise(obj: object, context: str) -> dict:
    return _fields(
        obj, context, ("name", "levels", "probs"), name=_text, levels=_integers, probs=_numbers
    )


def _groups(obj: object, context: str) -> dict:
    def family(name: object, key: str) -> str:
        if _text(name, key) not in FAMILIES:
            raise SpecError(f"{context}: unknown family {_short.repr(name)}")
        return name

    groups = _fields(
        obj, context, ("sizes", "family"), sizes=_integers, k=_integer, family=family,
        targets=_each(_target), pH=_number, H=_numbers, L=_numbers,
    )
    if groups.setdefault("k", len(groups["sizes"])) != len(groups["sizes"]):
        raise SpecError(f"{context}: k does not match the number of sizes")
    return groups


def load_config(source: str | Path | dict) -> dict:
    """Read a config dict or JSON file into its canonical form (see the schema above).

    Structural problems (unknown or missing keys, values of the wrong type,
    both or neither of profile/groups, noise with a profile, variables with
    groups) raise a SpecError naming the key; semantic problems such as bad
    probability sums surface later through validate_spec.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            raise SpecError(f"config: {source} is not UTF-8 ({err})") from None
    else:
        raw = source
    config = _fields(
        raw, "config", ("seed",), seed=checked_seed,
        clusters=lambda obj, context: _fields(
            obj, context, C=_integer, n=_integer, weights=_numbers, counts=_integers
        ),
        variables=_each(_variable), profile=_each(_each(_numbers)), groups=_groups, noise=_each(_noise),
    )
    if ("profile" in config) == ("groups" in config):
        raise SpecError("config: exactly one of 'profile' or 'groups' is required")
    if "profile" in config and "variables" not in config:
        raise SpecError("config: 'profile' requires 'variables'")
    if "profile" in config and "noise" in config:
        raise SpecError("config: 'noise' needs 'groups'; list a profile's columns in 'variables'")
    if "groups" in config and "variables" in config:
        raise SpecError(
            "config: 'variables' needs 'profile'; a grouped config adds columns through 'noise'"
        )
    config.setdefault("clusters", {})
    if config.get("noise") == ():
        del config["noise"]
    return config


def resolve_clusters(block: dict, derived_count: int | None = None) -> ClusterSpec:
    """Build a ClusterSpec from a canonical clusters object, deriving what is absent.

    ``derived_count`` is the cluster count implied by a group structure; an
    explicit C must agree with it.
    """
    count, subjects = block.get("C"), block.get("n")
    weights, counts = block.get("weights"), block.get("counts")
    if derived_count is not None:
        if count is not None and count != derived_count:
            raise SpecError(
                f"clusters: C={count} disagrees with the group structure, which needs C={derived_count}"
            )
        count = derived_count

    if counts is not None:
        if weights is not None:
            raise SpecError("clusters: give weights or counts, not both")
        if count is not None and len(counts) != count:
            raise SpecError(f"clusters: {len(counts)} counts given for C={count}")
        if subjects is not None and sum(counts) != subjects:
            raise SpecError("clusters: counts do not sum to n")
        return ClusterSpec.from_counts(counts)

    if subjects is None:
        raise SpecError("clusters: need either counts or n")
    if weights is not None:
        if count is not None and len(weights) != count:
            raise SpecError(f"clusters: {len(weights)} weights given for C={count}")
        return ClusterSpec.from_weights(weights, subjects)
    if count is None:
        raise SpecError("clusters: cluster count is neither given nor derivable")
    return ClusterSpec.uniform(count, subjects)
