"""The combinatorial model of a finite cover f : Y -> X.

A cover of degree d over a genus-g base with r branch points is a tuple of
handle generator pairs (a_i, b_i) and branch cycles c_1..c_r in S_d subject
to the surface relation

    [a_1,b_1] ... [a_g,b_g] . c_1 ... c_r  =  identity

(commutator [a,b] = a*b*a^-1*b^-1, right factor acting first throughout),
with the whole tuple generating a transitive group and every c_j nontrivial.
Cycle lengths of c_j are the ramification indices over the j-th branch point
(tame model).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .perm import (GeneratedGroup, Permutation, _orbits, format_cycles,
                   parse_cycles)


class InvalidCoverError(ValueError):
    """Raised when an operation requires a valid cover and gets an invalid one."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid cover: " + "; ".join(violations))
        self.violations = tuple(violations)


class ModelInconsistencyError(RuntimeError):
    """The genus formula produced a negative or non-integral value; the input
    data cannot come from a cover under the fixed conventions."""


class CoverFormatError(ValueError):
    """Malformed cover file."""


@dataclass(frozen=True)
class BranchedCover:
    degree: int
    base_genus: int
    handles: tuple = ()
    branch_cycles: tuple = ()
    labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "handles",
                           tuple((a, b) for a, b in self.handles))
        object.__setattr__(self, "branch_cycles", tuple(self.branch_cycles))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def branch_count(self) -> int:
        return len(self.branch_cycles)

    def all_generators(self) -> tuple:
        gens = []
        for a, b in self.handles:
            gens.append(a)
            gens.append(b)
        gens.extend(self.branch_cycles)
        return tuple(gens)


@dataclass(frozen=True)
class CoverReport:
    valid: bool
    violations: tuple
    degree: int
    base_genus: int
    branch_count: int
    is_connected: bool | None = None
    total_space_genus: int | None = None
    monodromy_order: int | None = None
    is_morse: bool | None = None
    is_galois: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": "cover-report/1",
            "valid": self.valid,
            "violations": list(self.violations),
            "degree": self.degree,
            "base_genus": self.base_genus,
            "branch_count": self.branch_count,
            "is_connected": self.is_connected,
            "total_space_genus": self.total_space_genus,
            "monodromy_order": self.monodromy_order,
            "is_morse": self.is_morse,
            "is_galois": self.is_galois,
        }


def _structural_violations(c: BranchedCover) -> list:
    out = []
    if c.degree < 1:
        out.append(f"degree must be positive, got {c.degree}")
    if c.base_genus < 0:
        out.append(f"base genus must be non-negative, got {c.base_genus}")
    elif len(c.handles) != c.base_genus:
        out.append(f"base genus {c.base_genus} needs {c.base_genus} handle "
                   f"pairs, got {len(c.handles)}")
    for i, (a, b) in enumerate(c.handles):
        for name, p in (("alpha", a), ("beta", b)):
            if p.degree != c.degree:
                out.append(
                    f"handle {i + 1} {name} has degree {p.degree}, expected {c.degree}")
    for j, cyc in enumerate(c.branch_cycles):
        if cyc.degree != c.degree:
            out.append(
                f"branch cycle {j + 1} has degree {cyc.degree}, expected {c.degree}")
    if c.labels is not None and len(c.labels) != len(c.branch_cycles):
        out.append(
            f"{len(c.labels)} labels for {len(c.branch_cycles)} branch cycles")
    return out


def relation_product(c: BranchedCover) -> Permutation:
    """[a_1,b_1]...[a_g,b_g] . c_1...c_r under the package convention."""
    prod = Permutation.identity(c.degree)
    for a, b in c.handles:
        prod = prod * (a * b * a.inverse() * b.inverse())
    for cyc in c.branch_cycles:
        prod = prod * cyc
    return prod


def validate(c: BranchedCover) -> CoverReport:
    """Check every invariant and report all violations, not only the first.
    Validity is read off the generators; only a valid cover's report
    builds the monodromy group, for its order."""
    violations, connected = _violations(c)
    if violations:
        return CoverReport(False, tuple(violations), c.degree, c.base_genus,
                           c.branch_count, is_connected=connected)
    order = monodromy_group(c, checked=False).order
    return CoverReport(
        valid=True,
        violations=(),
        degree=c.degree,
        base_genus=c.base_genus,
        branch_count=c.branch_count,
        is_connected=True,
        total_space_genus=total_space_genus(c, checked=False),
        monodromy_order=order,
        is_morse=is_morse(c, checked=False),
        is_galois=order == c.degree,
    )


def _violations(c: BranchedCover) -> tuple:
    """The violations of c, and whether its generators act transitively
    (None when the structure checks fail): the structure, no identity
    branch cycle, the surface relation, and one point orbit of the
    generators."""
    violations = _structural_violations(c)
    if violations:
        return violations, None
    for j, cyc in enumerate(c.branch_cycles):
        if cyc.is_identity():
            violations.append(f"branch cycle {j + 1} is the identity")
    prod = relation_product(c)
    if not prod.is_identity():
        violations.append(
            f"surface relation fails: product is {format_cycles(prod)}")
    parts = _orbits([p._raw for p in c.all_generators()], c.degree)
    if len(parts) > 1:
        shifted = tuple(tuple([x + 1 for x in part]) for part in parts)
        violations.append(f"monodromy group is intransitive: orbits {shifted}")
    return violations, len(parts) == 1


def require_valid(c: BranchedCover) -> None:
    """Raise InvalidCoverError unless c is valid.  Builds no group."""
    violations, _ = _violations(c)
    if violations:
        raise InvalidCoverError(violations)


def monodromy_group(c: BranchedCover, checked: bool = True) -> GeneratedGroup:
    """Group generated by all handles and branch cycles."""
    if checked:
        require_valid(c)
    gens = c.all_generators()
    if not gens:
        gens = (Permutation.identity(c.degree),)
    return GeneratedGroup(c.degree, gens)


def total_space_genus(c: BranchedCover, checked: bool = True) -> int:
    """Riemann-Hurwitz: 2g_Y - 2 = d(2g - 2) + sum over cycles (len - 1)."""
    if checked:
        require_valid(c)
    return _riemann_hurwitz(c.degree, c.base_genus, sum(
        len(cyc) - 1 for perm in c.branch_cycles for cyc in perm.cycles()))


def _riemann_hurwitz(degree: int, base_genus: int, ramification: int) -> int:
    """The genus g_Y of 2g_Y - 2 = degree (2 base_genus - 2) + ramification,
    or ModelInconsistencyError when that is odd or below -2."""
    doubled = degree * (2 * base_genus - 2) + ramification
    if doubled % 2 != 0 or doubled < -2:
        raise ModelInconsistencyError(
            f"Riemann-Hurwitz gives 2g-2 = {doubled}; data is not a cover")
    return (doubled + 2) // 2


def is_morse(c: BranchedCover, checked: bool = True) -> bool:
    """Every branch cycle a single transposition: one ramification point per
    branch point, of order two."""
    if checked:
        require_valid(c)
    return all(cyc.is_transposition() for cyc in c.branch_cycles)


# ---------------------------------------------------------------------------
# cover file format (strict JSON)

_COVER_FIELDS = {"degree", "base_genus", "handles", "branch_cycles", "labels"}

#: Largest degree a cover file may declare.  Parsing allocates a tuple of
#: ``degree`` entries per permutation, so the bound is checked first.
MAX_FILE_DEGREE = 10_000

#: Largest number of permutation entries times ``degree`` a cover file may
#: declare (a handle counts as two entries).  Each entry, even ``"id"``,
#: allocates a ``degree``-sized tuple, so the bound is checked before any
#: entry is parsed; at the largest degree it allows 25 entries.
MAX_FILE_CELLS = 250_000


def cover_to_json_dict(c: BranchedCover) -> dict:
    doc = {
        "degree": c.degree,
        "base_genus": c.base_genus,
        "handles": [[format_cycles(a), format_cycles(b)] for a, b in c.handles],
        "branch_cycles": [format_cycles(cyc) for cyc in c.branch_cycles],
    }
    if c.labels is not None:
        doc["labels"] = list(c.labels)
    return doc


def dumps_cover(c: BranchedCover) -> str:
    return json.dumps(cover_to_json_dict(c), indent=2) + "\n"


def cover_from_json_dict(doc: dict) -> BranchedCover:
    if not isinstance(doc, dict):
        raise CoverFormatError("cover document must be a JSON object")
    unknown = set(doc) - _COVER_FIELDS
    if unknown:
        raise CoverFormatError(f"unknown fields: {sorted(unknown)}")
    for required in ("degree", "base_genus", "handles", "branch_cycles"):
        if required not in doc:
            raise CoverFormatError(f"missing field: {required}")
    degree = doc["degree"]
    base_genus = doc["base_genus"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise CoverFormatError(f"degree must be a positive integer, got {degree!r}")
    if degree > MAX_FILE_DEGREE:
        raise CoverFormatError(
            f"degree {degree} exceeds the file bound {MAX_FILE_DEGREE}")
    if not isinstance(base_genus, int) or isinstance(base_genus, bool) or base_genus < 0:
        raise CoverFormatError(
            f"base_genus must be a non-negative integer, got {base_genus!r}")
    if not isinstance(doc["handles"], list):
        raise CoverFormatError("handles must be an array")
    if not isinstance(doc["branch_cycles"], list):
        raise CoverFormatError("branch_cycles must be an array")
    entries = 2 * len(doc["handles"]) + len(doc["branch_cycles"])
    if entries * degree > MAX_FILE_CELLS:
        raise CoverFormatError(
            f"{entries} entries of degree {degree} exceed the file bound of "
            f"{MAX_FILE_CELLS} entries times degree")
    handles = []
    for i, pair in enumerate(doc["handles"]):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise CoverFormatError(
                f"handle {i + 1} must be a 2-element array of cycle strings")
        handles.append((_parse_entry(pair[0], degree, f"handle {i + 1}"),
                        _parse_entry(pair[1], degree, f"handle {i + 1}")))
    cycles = [_parse_entry(s, degree, f"branch cycle {j + 1}")
              for j, s in enumerate(doc["branch_cycles"])]
    labels = None
    if "labels" in doc:
        if (not isinstance(doc["labels"], list)
                or not all(isinstance(s, str) for s in doc["labels"])):
            raise CoverFormatError("labels must be an array of strings")
        labels = tuple(doc["labels"])
    return BranchedCover(degree=degree, base_genus=base_genus,
                         handles=tuple(handles), branch_cycles=tuple(cycles),
                         labels=labels)


def _parse_entry(text, degree: int, where: str) -> Permutation:
    if not isinstance(text, str):
        raise CoverFormatError(f"{where} must be a cycle string, got {text!r}")
    return parse_cycles(text, degree)


def loads_cover(text: str) -> BranchedCover:
    # besides JSONDecodeError: int()'s digit limit on a long integer literal
    # (a ValueError) and the decoder's recursion on deep nesting
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CoverFormatError(f"not valid JSON: {exc}") from exc
    return cover_from_json_dict(doc)
